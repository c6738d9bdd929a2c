#pragma once
/// \file qaoa_objective.hpp
/// Adapter that turns a QAOA plan + workspace (or a Qaoa engine) into the
/// minimization objective the optimizers consume: f(angles) = -<C> for
/// maximization (+<C> for minimization), with gradients supplied either by
/// the adjoint AD path or by finite differences — the exact axis Fig. 5
/// sweeps.

#include <span>

#include "anglefind/optimizer.hpp"
#include "autodiff/adjoint.hpp"
#include "autodiff/finite_diff.hpp"
#include "core/plan.hpp"
#include "core/qaoa.hpp"

namespace fastqaoa {

/// How the optimizer obtains gradients of <C>.
enum class GradientProvider {
  Adjoint,      ///< exact reverse-mode (O(1) evaluations) — the AD analogue
  CentralDiff,  ///< central finite differences (2p evaluations)
  ForwardDiff,  ///< forward finite differences (p evaluations)
};

/// Minimization objective over packed angles [betas..., gammas...].
/// Holds references to a shared (immutable) plan and a private workspace;
/// one instance per optimization thread, reused across the whole run
/// (buffers allocated once). The plan may be shared across threads — each
/// thread's QaoaObjective just needs its own EvalWorkspace.
class QaoaObjective {
 public:
  QaoaObjective(const QaoaPlan& plan, EvalWorkspace& ws,
                Direction direction = Direction::Maximize,
                GradientProvider provider = GradientProvider::Adjoint);

  /// Convenience: bind to a Qaoa engine's plan + workspace.
  explicit QaoaObjective(Qaoa& engine,
                         Direction direction = Direction::Maximize,
                         GradientProvider provider = GradientProvider::Adjoint);

  /// Evaluate f (and the gradient when `grad` is non-empty).
  double operator()(std::span<const double> packed, std::span<double> grad);

  /// Batched value-only evaluation: out.size() lane-major packed angle
  /// vectors, out[l] = f(lane l), bit-identical to out.size() calls of
  /// operator() with an empty gradient span.
  void value_batch(std::span<const double> packed_lanes,
                   std::span<double> out);

  /// Expose as the std::function type the optimizers take. The returned
  /// callable references *this; keep the QaoaObjective alive while in use.
  [[nodiscard]] GradObjective as_grad_objective();

  /// Number of underlying expectation-value evaluations so far. Each
  /// adjoint gradient tallies 2, one for the forward evaluation and one
  /// for the reverse sweep: a fixed unit that max_evaluations budgets rest
  /// on, not a cost model (an X-mixer reverse sweep does about two forward
  /// passes of WHT work). Finite differences tally every evaluation.
  [[nodiscard]] std::size_t evaluations() const noexcept { return evals_; }

 private:
  const QaoaPlan* plan_;
  EvalWorkspace* ws_;
  Direction direction_;
  GradientProvider provider_;
  FiniteDiffDifferentiator central_;
  FiniteDiffDifferentiator forward_;
  std::size_t evals_ = 0;
};

}  // namespace fastqaoa
