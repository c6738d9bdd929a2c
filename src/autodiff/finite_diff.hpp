#pragma once
/// \file finite_diff.hpp
/// Finite-difference gradients of the QAOA expectation — the baseline the
/// paper's Fig. 5 compares AD against. Central differences need 2p
/// evaluations per gradient (plus one for the value); forward differences
/// need p+1. Both scale linearly in p, which is exactly the gap the
/// adjoint path closes.

#include <span>
#include <vector>

#include "core/plan.hpp"
#include "core/qaoa.hpp"

namespace fastqaoa {

/// Finite-difference scheme selector.
enum class FdScheme {
  Central,  ///< (E(x+h) - E(x-h)) / 2h — O(h^2) accurate, 2 evals per angle
  Forward,  ///< (E(x+h) - E(x)) / h   — O(h) accurate, 1 eval per angle
};

/// Finite-difference differentiator bound to a plan + workspace (or a Qaoa
/// engine's pair); mirrors AdjointDifferentiator's interface so optimizers
/// can swap gradient providers (Fig. 5 harness does exactly that). The
/// angle work vectors are per-instance, so use one differentiator per
/// thread (sharing the plan is fine).
class FiniteDiffDifferentiator {
 public:
  explicit FiniteDiffDifferentiator(Qaoa& qaoa,
                                    FdScheme scheme = FdScheme::Central,
                                    double step = 1e-6);
  FiniteDiffDifferentiator(const QaoaPlan& plan, EvalWorkspace& ws,
                           FdScheme scheme = FdScheme::Central,
                           double step = 1e-6);

  /// Evaluate E and the full 2p gradient by repeated expectation calls.
  double value_and_gradient(std::span<const double> betas,
                            std::span<const double> gammas,
                            std::span<double> grad_betas,
                            std::span<double> grad_gammas);

  /// Packed variant (angles = [betas..., gammas...]).
  double value_and_gradient_packed(std::span<const double> angles,
                                   std::span<double> grad);

  /// Number of expectation-value evaluations performed so far (the Fig. 5
  /// bookkeeping quantity).
  [[nodiscard]] std::size_t evaluations() const noexcept { return evals_; }
  void reset_evaluations() noexcept { evals_ = 0; }

 private:
  double do_evaluate(std::span<const double> betas,
                     std::span<const double> gammas);

  const QaoaPlan* plan_;
  EvalWorkspace* ws_;
  FdScheme scheme_;
  double step_;
  std::size_t evals_ = 0;
  std::vector<double> work_betas_;
  std::vector<double> work_gammas_;
};

}  // namespace fastqaoa
