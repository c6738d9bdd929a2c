#pragma once
/// \file strategies.hpp
/// The paper's angle-finding strategies (§2.3, Fig. 2/3):
///  * find_angles()        — iterative: INTERP-extrapolate the round-(p-1)
///                           optimum to seed round p, refine by basinhopping,
///                           checkpoint each round to disk, resume on crash.
///  * find_angles_random() — the random local-minima baseline of Lotshaw et
///                           al. [22]: N random starts, BFGS each, keep best.
///  * find_angles_grid()   — exhaustive grid search, optionally polished.
///  * median_angles()      — the [22] median-angles heuristic across many
///                           instances.
/// Each strategy runs against an AngleEngine (angle_engine.hpp); the
/// (mixer, obj_vals) overloads are the exact statevector engine.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "anglefind/angle_engine.hpp"
#include "anglefind/basinhopping.hpp"
#include "anglefind/qaoa_objective.hpp"
#include "common/rng.hpp"
#include "core/qaoa.hpp"
#include "mixers/mixer.hpp"
#include "runtime/budget.hpp"

namespace fastqaoa {

/// Optimized angles for a p-round QAOA plus the expectation they achieve
/// and what the search spent to find them.
struct AngleSchedule {
  int p = 0;
  std::vector<double> betas;
  std::vector<double> gammas;
  double expectation = 0.0;
  /// Objective/gradient callbacks the optimizer issued producing this
  /// schedule, summed over every chain/restart (round-tripped through v2
  /// checkpoints, so resumed rounds keep their true cost).
  std::size_t optimizer_calls = 0;
  /// Underlying expectation-evaluation equivalents those callbacks cost
  /// (an adjoint gradient tallies 2, central differences 2p+1, ...),
  /// summed over every chain/restart. Thread-count invariant: the chains
  /// do identical work no matter how they are scheduled.
  std::size_t evaluations = 0;
  /// None when the round's search ran to completion; a budget/cancel
  /// reason when the run stopped during (or right after) this round and
  /// the angles are best-so-far rather than fully optimized. Stopped
  /// rounds are checkpointed for inspection but re-run on resume.
  runtime::StopReason stop_reason = runtime::StopReason::None;

  [[nodiscard]] bool stopped_early() const noexcept {
    return stop_reason != runtime::StopReason::None;
  }

  /// Packed [betas..., gammas...] layout used by Qaoa::run_packed.
  [[nodiscard]] std::vector<double> packed() const;
};

/// INTERP extrapolation (Zhou et al.): resample a length-(p) angle sequence
/// to length p+1 by piecewise-linear interpolation, preserving the smooth
/// annealing-like angle profiles the iterative strategy exploits.
std::vector<double> interp_extrapolate(const std::vector<double>& prev);

/// Trotterized-quantum-annealing initialization (Sack & Serbyn [31], one of
/// the paper's cited initialization schemes): a linear anneal discretized
/// into p steps of size dt gives
///   beta_i  = (1 - (i+0.5)/p) * dt,    gamma_i = ((i+0.5)/p) * dt,
/// returned packed [betas..., gammas...]. A strong depth-independent seed
/// for gradient refinement, complementary to INTERP.
std::vector<double> tqa_initial_angles(int p, double dt = 0.75);

/// Options for find_angles() and find_angles_random().
struct FindAnglesOptions {
  Direction direction = Direction::Maximize;
  GradientProvider gradient = GradientProvider::Adjoint;
  BasinHoppingOptions hopping;
  /// Phase-separator table if different from the objective (threshold QAOA).
  std::optional<dvec> phase_values;
  /// Round-by-round results are appended here and reloaded on restart
  /// (empty = no checkpointing).
  std::string checkpoint_file;
  std::uint64_t seed = 0x5EED5EED5EEDULL;
  /// Number of independent basinhopping chains per round in find_angles()
  /// / find_angles_at(). Chains share one immutable depth-p setup and run in
  /// an OpenMP parallel-for with per-thread objectives and serially forked RNG
  /// streams, so the best-of-chains result is identical at any thread
  /// count. 1 = the classic single-chain behaviour.
  int parallel_starts = 1;
  /// Called by find_angles() after each freshly optimized round (not for
  /// rounds restored from a checkpoint) with the round's schedule and its
  /// wall-clock seconds — the hook behind qaoa_cli --progress. Runs on the
  /// calling thread, outside any parallel region.
  std::function<void(const AngleSchedule&, double seconds)> on_round;
  /// Cooperative stop limits for the whole call (all rounds, all chains):
  /// wall-clock deadline, max evaluations, external CancelToken. Checked at
  /// BFGS-iteration and basinhopping-hop granularity, so a tripped budget
  /// returns best-so-far schedules flagged with the StopReason instead of
  /// throwing. Default: unconstrained (and completely free).
  runtime::RunBudget budget;
  /// Advanced: share one live BudgetTracker across several calls (how
  /// run_ensemble gives all instances a single deadline). When set, `budget`
  /// is ignored and the tracker must outlive the call. Non-owning.
  runtime::BudgetTracker* shared_tracker = nullptr;
};

/// The paper's find_angles(): learn good angles for rounds 1..max_rounds
/// iteratively. Returns one AngleSchedule per round. If a checkpoint file
/// with earlier rounds exists, resumes after the last completed round —
/// the checkpoint's fingerprint (dimension, direction, seed, engine tag)
/// must match or the resume is refused with a fastqaoa::Error. Each round
/// draws from its own serially forked RNG stream, so a resumed run is
/// bit-identical to an uninterrupted one. A tripped options.budget stops
/// the iteration and returns the rounds finished so far (the last one
/// flagged with its StopReason) without throwing.
std::vector<AngleSchedule> find_angles(const AngleEngine& engine,
                                       int max_rounds,
                                       const FindAnglesOptions& options = {});
inline std::vector<AngleSchedule> find_angles(
    const Mixer& mixer, const dvec& obj_vals, int max_rounds,
    const FindAnglesOptions& options = {}) {
  return find_angles(ExactAngleEngine(mixer, obj_vals), max_rounds, options);
}

/// Basinhopping at a single fixed p from explicit initial angles (the
/// paper's `initial_angles` escape hatch that bypasses iteration).
AngleSchedule find_angles_at(const AngleEngine& engine, int p,
                             const std::vector<double>& initial_packed,
                             const FindAnglesOptions& options = {});
inline AngleSchedule find_angles_at(const Mixer& mixer, const dvec& obj_vals,
                                    int p,
                                    const std::vector<double>& initial_packed,
                                    const FindAnglesOptions& options = {}) {
  return find_angles_at(ExactAngleEngine(mixer, obj_vals), p, initial_packed,
                        options);
}

/// Random local-minima search (Listing 3's find_angles_rand): `restarts`
/// random points in [0, 2*pi)^{2p}, BFGS from each, return the best. The
/// restarts run in an OpenMP parallel-for against one shared depth-p setup
/// (start points are drawn serially up front, so the result is identical
/// at any thread count).
AngleSchedule find_angles_random(const AngleEngine& engine, int p,
                                 int restarts,
                                 const FindAnglesOptions& options = {});
inline AngleSchedule find_angles_random(
    const Mixer& mixer, const dvec& obj_vals, int p, int restarts,
    const FindAnglesOptions& options = {}) {
  return find_angles_random(ExactAngleEngine(mixer, obj_vals), p, restarts,
                            options);
}

/// Grid search over [0, 2*pi)^{2p} — the third common strategy the paper
/// names (§2.3). `points_per_axis` grid points per angle; every grid point
/// is evaluated (OpenMP-parallel over the grid, one objective per thread)
/// and the best is optionally polished with BFGS. Exponential
/// in p — practical for p = 1 (the regime [22] used it in).
AngleSchedule find_angles_grid(const AngleEngine& engine, int p,
                               int points_per_axis,
                               const FindAnglesOptions& options = {},
                               bool polish = true);
inline AngleSchedule find_angles_grid(const Mixer& mixer,
                                      const dvec& obj_vals, int p,
                                      int points_per_axis,
                                      const FindAnglesOptions& options = {},
                                      bool polish = true) {
  return find_angles_grid(ExactAngleEngine(mixer, obj_vals), p,
                          points_per_axis, options, polish);
}

/// Coordinate-wise median of a collection of packed angle vectors (all the
/// same length) — the median-angles strategy of [22].
std::vector<double> median_angles(
    const std::vector<std::vector<double>>& packed_angle_sets);

/// <C> at fixed packed angles (used to score median angles), for either
/// options.direction.
double evaluate_angles(const AngleEngine& engine,
                       const std::vector<double>& packed,
                       const FindAnglesOptions& options = {});
inline double evaluate_angles(
    const Mixer& mixer, const dvec& obj_vals, const std::vector<double>& packed,
    const std::optional<dvec>& phase_values = std::nullopt) {
  FindAnglesOptions options;
  options.phase_values = phase_values;
  return evaluate_angles(ExactAngleEngine(mixer, obj_vals), packed, options);
}

/// Identity of the run a checkpoint belongs to. Written into every v2
/// checkpoint header and validated on resume, so a checkpoint produced by
/// a different problem size, optimization direction, seed, or mixer is
/// rejected loudly instead of silently resumed into garbage.
struct CheckpointFingerprint {
  std::uint64_t dim = 0;  ///< AngleEngine::dim()
  Direction direction = Direction::Maximize;
  std::uint64_t seed = 0;
  std::string mixer;  ///< AngleEngine::tag()

  bool operator==(const CheckpointFingerprint&) const = default;
};

/// Checkpoint persistence (plain text; human-inspectable). Writes are
/// atomic (tmp file + rename) and full precision, so a reader never sees a
/// torn file and loaded angles are bit-identical to the saved ones. When a
/// fingerprint is supplied to save_checkpoint it is embedded in the header;
/// when one is supplied to load_checkpoint the file must carry a matching
/// fingerprint (legacy v1 files, which predate fingerprints, are then
/// refused). Loading without an expected fingerprint skips validation —
/// the inspection-tool escape hatch.
void save_checkpoint(
    const std::string& path, const std::vector<AngleSchedule>& schedules,
    const std::optional<CheckpointFingerprint>& fingerprint = std::nullopt);
std::vector<AngleSchedule> load_checkpoint(
    const std::string& path,
    const std::optional<CheckpointFingerprint>& expected = std::nullopt);

/// Schedule-block (de)serialization shared by find_angles checkpoints and
/// run_ensemble instance files: count line, then per schedule one
/// `p expectation optimizer_calls evaluations stop_reason` line plus a
/// betas line and a gammas line, full (round-trip exact) precision.
void write_schedules(std::ostream& out,
                     const std::vector<AngleSchedule>& schedules);
std::vector<AngleSchedule> read_schedules(std::istream& in,
                                          const std::string& context);

}  // namespace fastqaoa
