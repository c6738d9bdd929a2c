#pragma once
/// \file grover_objective.hpp
/// The degeneracy-compressed Grover simulator (core/grover_fast.hpp) as an
/// AngleEngine: the shared drivers in strategies.hpp (INTERP rounds,
/// basinhopping chains, checkpoints, budgets, restarts, grids) run on
/// GroverQaoa's O(p * #classes) evaluations and exact compressed
/// gradients — classical angle optimization for Grover-mixer QAOAs at
/// n ≈ 100 qubits, where no statevector exists.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "anglefind/angle_engine.hpp"
#include "anglefind/strategies.hpp"
#include "core/grover_fast.hpp"

namespace fastqaoa {

/// Minimization objective over packed angles on a private copy of a
/// GroverQaoa (run() mutates the amplitudes, so chains never share one).
/// Always the exact compressed adjoint gradient; a value tallies one
/// evaluation, a value plus gradient two.
class GroverObjective final : public AngleObjective {
 public:
  explicit GroverObjective(GroverQaoa engine,
                           Direction direction = Direction::Maximize);

  /// Evaluate f = ±<C> (and the exact compressed gradient when `grad` is
  /// non-empty).
  double operator()(std::span<const double> packed,
                    std::span<double> grad) override;
  [[nodiscard]] std::size_t evaluations() const override { return evals_; }
  obs::MetricsSink& metrics() override { return metrics_; }

  [[nodiscard]] double to_expectation(double f) const noexcept {
    return direction_ == Direction::Maximize ? -f : f;
  }

 private:
  GroverQaoa engine_;
  Direction direction_;
  std::size_t evals_ = 0;
  obs::MetricsSink metrics_;
  std::vector<double> grad_betas_;
  std::vector<double> grad_gammas_;
};

/// GroverQaoa behind the angle-finding seam: find_angles(GroverAngleEngine(
/// qaoa), ...) and the other drivers. Checkpoints carry dim = num_classes()
/// and a tag with the total state count and the class count.
/// options.phase_values, when set, holds one phase value per class (it
/// replaces the engine's own); options.gradient is ignored (always the
/// compressed adjoint), and hops score one proposal (no batch hook). Holds a
/// reference; the GroverQaoa must outlive the engine.
class GroverAngleEngine final : public AngleEngine {
 public:
  explicit GroverAngleEngine(const GroverQaoa& qaoa) : qaoa_(qaoa) {}

  [[nodiscard]] ObjectiveFactory at_depth(
      int p, const FindAnglesOptions& options) const override;
  [[nodiscard]] std::uint64_t dim() const override {
    return qaoa_.num_classes();
  }
  [[nodiscard]] std::string tag() const override;

 private:
  const GroverQaoa& qaoa_;
};

}  // namespace fastqaoa
