#pragma once
/// \file optimizer.hpp
/// Common types for the classical angle-finding outer loop: the objective
/// callable contract, optimizer options and results.

#include <functional>
#include <span>
#include <vector>

#include "runtime/budget.hpp"

namespace fastqaoa {

/// Objective with optional gradient: returns f(x); when `grad` is non-empty
/// (same length as x) it must be filled with df/dx. Optimizers *minimize*.
using GradObjective =
    std::function<double(std::span<const double>, std::span<double>)>;

/// Batched gradient-free objective: `points` holds out.size() lane-major
/// packed angle vectors (lane l at points[l*width ..)), out[l] receives
/// f(lane l). Contract: per-lane values are bit-identical to the plain
/// objective at the same point (the evaluate_batch guarantee), so optimizers
/// may batch or not without changing any result.
using BatchObjective =
    std::function<void(std::span<const double>, std::span<double>)>;

/// Result of a local or global minimization.
struct OptResult {
  std::vector<double> x;      ///< best point found
  double f = 0.0;             ///< objective at x
  int iterations = 0;         ///< optimizer iterations
  std::size_t evaluations = 0;  ///< objective/gradient callbacks
  bool converged = false;     ///< tolerance met (vs. iteration cap)
  /// Why the optimizer returned before converging/exhausting iterations:
  /// a tripped RunBudget, cancellation, or a non-finite objective value it
  /// backed away from. None for a normal finish. Budget trips return the
  /// best point found so far — they never throw.
  runtime::StopReason stop_reason = runtime::StopReason::None;

  [[nodiscard]] bool stopped_early() const noexcept {
    return stop_reason != runtime::StopReason::None;
  }
};

}  // namespace fastqaoa
