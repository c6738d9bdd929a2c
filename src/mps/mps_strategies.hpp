#pragma once
/// \file mps_strategies.hpp
/// Angle finding over the MPS engine: one-line forwards to the drivers in
/// anglefind/strategies.hpp run against MpsAngleEngine, so both engines
/// share options, results, chains, sweeps and checkpoint files. The random
/// strategy is find_angles_random(MpsAngleEngine(plan), ...).
/// options.gradient is ignored (always central differences), and so is
/// options.eval_batch, because MPS has no batch hook: hops score one
/// proposal and the grid sweeps point by point.

#include <string>
#include <vector>

#include "anglefind/strategies.hpp"
#include "mps/mps_objective.hpp"
#include "mps/mps_plan.hpp"

namespace fastqaoa::mps {

/// Engine-tagged checkpoint mixer string: "mps:tf chi=<max_bond>
/// tol=<trunc_tol> budget=<fidelity_budget>". Encodes every knob that
/// changes results, so resuming with different truncation settings is
/// refused loudly.
std::string fingerprint_tag(const MpsPlan& plan);

/// find_angles(MpsAngleEngine(plan), ...). Checkpoints use
/// fingerprint_tag() and dim = n.
std::vector<AngleSchedule> find_angles_mps(
    const MpsPlan& plan, int max_rounds, const FindAnglesOptions& options = {});

/// find_angles_at(MpsAngleEngine(plan), ...).
AngleSchedule find_angles_at_mps(const MpsPlan& plan, int p,
                                 const std::vector<double>& initial_packed,
                                 const FindAnglesOptions& options = {});

/// find_angles_grid(MpsAngleEngine(plan), ...).
AngleSchedule find_angles_grid_mps(const MpsPlan& plan, int p,
                                   int points_per_axis,
                                   const FindAnglesOptions& options = {},
                                   bool polish = true);

/// evaluate_angles(MpsAngleEngine(plan), packed): <C> only; use evaluate()
/// directly for truncation stats.
double evaluate_angles_mps(const MpsPlan& plan,
                           const std::vector<double>& packed);

}  // namespace fastqaoa::mps
