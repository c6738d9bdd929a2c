#pragma once
/// \file basinhopping.hpp
/// Wales–Doye basinhopping [33]: alternate random perturbations with local
/// (BFGS) minimization and accept/reject hops with a Metropolis criterion.
/// This is the paper's workhorse global angle-finder (§2.3).

#include "anglefind/bfgs.hpp"
#include "anglefind/optimizer.hpp"
#include "common/rng.hpp"

namespace fastqaoa {

/// Basinhopping configuration.
struct BasinHoppingOptions {
  int hops = 30;                 ///< number of perturb+minimize cycles
  double step_size = 0.5;        ///< uniform perturbation half-width
  double temperature = 1.0;      ///< Metropolis temperature (0 = greedy)
  bool adaptive_step = true;     ///< tune step_size toward ~50% acceptance
  int no_improvement_limit = 0;  ///< early stop after this many stale hops
                                 ///< (0 = disabled)
  /// Trial points drawn per hop. 1 = the classic Wales–Doye hop (perturb,
  /// minimize, Metropolis). With P > 1 each hop draws P perturbations
  /// serially from the chain's RNG, scores them all in one batched
  /// evaluation, and runs the (expensive) local minimization only from the
  /// most promising one — the batch analogue of the hop. Needs a
  /// BatchObjective passed to basinhopping(); silently behaves as 1
  /// otherwise. Results depend on P (more exploration per hop) but, for a
  /// fixed P, are thread-count invariant: the draws are serial and batched
  /// values are bit-identical to sequential ones.
  int proposals = 1;
  BfgsOptions local;             ///< local minimizer settings
};

/// Global minimization by basinhopping from x0. Perturbations and the
/// Metropolis coin use `rng`, so runs are reproducible per seed.
/// `batch_values`, when non-null and options.proposals > 1, scores hop
/// proposals in batches (see BasinHoppingOptions::proposals).
OptResult basinhopping(const GradObjective& fn, std::vector<double> x0,
                       Rng& rng, const BasinHoppingOptions& options = {},
                       const BatchObjective* batch_values = nullptr);

}  // namespace fastqaoa
