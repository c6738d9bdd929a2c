#include "anglefind/strategies.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "core/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"

namespace fastqaoa {

std::vector<double> AngleSchedule::packed() const {
  std::vector<double> out;
  out.reserve(betas.size() + gammas.size());
  out.insert(out.end(), betas.begin(), betas.end());
  out.insert(out.end(), gammas.begin(), gammas.end());
  return out;
}

std::vector<double> interp_extrapolate(const std::vector<double>& prev) {
  FASTQAOA_CHECK(!prev.empty(), "interp_extrapolate: empty angle sequence");
  const std::size_t p = prev.size();
  std::vector<double> next(p + 1);
  if (p == 1) {
    next[0] = prev[0];
    next[1] = prev[0];
    return next;
  }
  // Resample the piecewise-linear profile through prev[0..p) at p+1 evenly
  // spaced parameters (INTERP of Zhou et al.).
  for (std::size_t i = 0; i <= p; ++i) {
    const double t = static_cast<double>(i) * static_cast<double>(p - 1) /
                     static_cast<double>(p);
    const std::size_t lo = static_cast<std::size_t>(std::floor(t));
    const std::size_t hi = std::min(lo + 1, p - 1);
    const double frac = t - static_cast<double>(lo);
    next[i] = (1.0 - frac) * prev[lo] + frac * prev[hi];
  }
  return next;
}

std::vector<double> tqa_initial_angles(int p, double dt) {
  FASTQAOA_CHECK(p >= 1, "tqa_initial_angles: need p >= 1");
  FASTQAOA_CHECK(dt > 0.0, "tqa_initial_angles: need dt > 0");
  std::vector<double> packed(static_cast<std::size_t>(2 * p));
  for (int i = 0; i < p; ++i) {
    const double s = (i + 0.5) / static_cast<double>(p);
    packed[static_cast<std::size_t>(i)] = (1.0 - s) * dt;       // beta
    packed[static_cast<std::size_t>(p + i)] = s * dt;           // gamma
  }
  return packed;
}

namespace {

/// The exact engine's per-thread objective: a private EvalWorkspace and
/// QaoaObjective against the round's shared plan.
class ExactObjective final : public AngleObjective {
 public:
  ExactObjective(std::shared_ptr<const QaoaPlan> plan, Direction direction,
                 GradientProvider gradient)
      : plan_(std::move(plan)),
        objective_(*plan_, ws_, direction, gradient),
        batch_([this](std::span<const double> points, std::span<double> out) {
          objective_.value_batch(points, out);
        }) {}

  double operator()(std::span<const double> packed,
                    std::span<double> grad) override {
    return objective_(packed, grad);
  }
  const BatchObjective* batch() override { return &batch_; }
  [[nodiscard]] std::size_t evaluations() const override {
    return objective_.evaluations();
  }
  obs::MetricsSink& metrics() override { return ws_.metrics; }

 private:
  std::shared_ptr<const QaoaPlan> plan_;
  EvalWorkspace ws_;
  QaoaObjective objective_;
  BatchObjective batch_;
};

/// The schedule at packed point x, whose minimized value is f.
AngleSchedule schedule_at(int p, const std::vector<double>& x, double f,
                          Direction direction) {
  AngleSchedule s;
  s.p = p;
  s.betas.assign(x.begin(), x.begin() + p);
  s.gammas.assign(x.begin() + p, x.end());
  s.expectation = direction == Direction::Maximize ? -f : f;
  return s;
}

/// Point `index` of the grid's flat enumeration: mixed-radix digits, axis
/// 0 fastest, scaled by `step`.
void grid_point(long long index, int points_per_axis, double step,
                std::span<double> out) {
  for (double& a : out) {
    a = static_cast<double>(index % points_per_axis) * step;
    index /= points_per_axis;
  }
}

struct ChainResult {
  AngleSchedule schedule;
  double f = std::numeric_limits<double>::infinity();  ///< minimized value
};

/// One basinhopping chain: private objective + RNG against the round's
/// shared setup. The objective's metric sink is bound for the duration of
/// the chain and merged into the global registry before returning (the join
/// point), so merged totals are identical at any thread count. chain_index
/// identifies the chain to the fault-injection harness (firing is keyed on
/// the index, not the thread, so injected faults are schedule-independent).
ChainResult run_basinhopping(const ObjectiveFactory& make_objective, int p,
                             const std::vector<double>& x0, Rng& rng,
                             const FindAnglesOptions& options,
                             int chain_index) {
  const std::unique_ptr<AngleObjective> objective = make_objective();
  FASTQAOA_OBS_SCOPE(objective->metrics());
  FASTQAOA_OBS_COUNT("anglefind.chains", 1);
  FASTQAOA_TRACE_SPAN("chain");
  GradObjective fn = objective->as_grad_objective();
  // Batched hop-proposal scoring (bit-identical values, so the chain is
  // still a pure function of its RNG stream and the proposal count).
  const BatchObjective* batch_values =
      options.hopping.proposals > 1 ? objective->batch() : nullptr;
#ifdef FASTQAOA_FAULT_INJECTION_ENABLED
  // Wrap the objective so an armed "anglefind.chain_nan" fault poisons this
  // chain's value stream exactly once — the divergence the quarantine
  // machinery below must contain.
  GradObjective inner = std::move(fn);
  fn = [&inner, chain_index](std::span<const double> x,
                             std::span<double> grad) {
    const double v = inner(x, grad);
    if (fault::fire("anglefind.chain_nan", chain_index)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return v;
  };
#else
  (void)chain_index;
#endif
  OptResult res = basinhopping(fn, x0, rng, options.hopping, batch_values);

  ChainResult out;
  out.f = res.f;
  out.schedule = schedule_at(p, res.x, res.f, options.direction);
  out.schedule.optimizer_calls = res.evaluations;
  out.schedule.evaluations = objective->evaluations();
  out.schedule.stop_reason = res.stop_reason;
  FASTQAOA_OBS_MERGE_GLOBAL(objective->metrics());
  return out;
}

constexpr int kQuarantineAttempts = 3;

/// run_basinhopping with quarantine-and-reseed: a chain whose best value
/// comes back non-finite (poisoned objective, diverged line search) is
/// quarantined and re-run from the same start point with a reseeded RNG
/// stream instead of poisoning the best-of-chains reduction. Attempt k uses
/// the chain's base stream forked k times — attempt 0 IS the base stream,
/// so healthy chains are bit-identical to the unguarded implementation, and
/// the reseed sequence is a pure function of the chain's stream (thread
/// count invariant). A chain that stays non-finite after every attempt
/// reports f = +inf / StopReason::NonFinite and simply loses the reduction.
ChainResult run_chain_guarded(const ObjectiveFactory& make_objective, int p,
                              const std::vector<double>& x0, const Rng& base,
                              const FindAnglesOptions& options,
                              int chain_index) {
  std::size_t calls = 0;
  std::size_t evals = 0;
  for (int attempt = 0; attempt < kQuarantineAttempts; ++attempt) {
    Rng stream = base;
    for (int k = 0; k < attempt; ++k) stream = stream.fork();
    ChainResult res = run_basinhopping(make_objective, p, x0, stream, options,
                                       chain_index);
    calls += res.schedule.optimizer_calls;
    evals += res.schedule.evaluations;
    if (std::isfinite(res.f)) {
      res.schedule.optimizer_calls = calls;
      res.schedule.evaluations = evals;
      return res;
    }
    FASTQAOA_OBS_COUNT_GLOBAL("runtime.quarantine.chains", 1);
    // Don't burn the remaining attempts when the stop was a budget trip
    // rather than a numerical divergence.
    if (res.schedule.stopped_early() &&
        res.schedule.stop_reason != runtime::StopReason::NonFinite) {
      res.schedule.optimizer_calls = calls;
      res.schedule.evaluations = evals;
      res.f = std::numeric_limits<double>::infinity();
      return res;
    }
  }
  FASTQAOA_OBS_COUNT_GLOBAL("runtime.quarantine.exhausted", 1);
  ChainResult dead;
  dead.schedule = schedule_at(p, x0, 0.0, options.direction);
  dead.schedule.expectation = std::numeric_limits<double>::quiet_NaN();
  dead.schedule.optimizer_calls = calls;
  dead.schedule.evaluations = evals;
  dead.schedule.stop_reason = runtime::StopReason::NonFinite;
  return dead;
}

/// Run options.parallel_starts independent chains from (jittered copies of)
/// x0 and keep the best. RNG streams are forked serially before the
/// parallel region, and ties break on the chain index, so the result is
/// identical at any thread count. `tracker` stamps the winning schedule
/// with the budget's StopReason when the search was cut short.
AngleSchedule best_of_chains(const ObjectiveFactory& make_objective, int p,
                             const std::vector<double>& x0, Rng& rng,
                             const FindAnglesOptions& options,
                             const runtime::BudgetTracker& tracker) {
  const int chains = std::max(1, options.parallel_starts);
  AngleSchedule winner;
  if (chains == 1) {
    // Single chain: consume the caller's stream directly, exactly like the
    // classic serial implementation (byte-for-byte reproducible results
    // for existing seeds). The guarded runner's attempt 0 replays the
    // stream state we advance here.
    const Rng base = rng;
    rng.fork();  // advance the caller's stream past this chain's substream
    winner = run_chain_guarded(make_objective, p, x0, base, options, 0)
                 .schedule;
  } else {
    std::vector<Rng> streams;
    streams.reserve(static_cast<std::size_t>(chains));
    for (int c = 0; c < chains; ++c) streams.push_back(rng.fork());

    // Chain 0 starts exactly at x0 (the INTERP/TQA seed); the others
    // explore jittered copies so the extra workers do not all climb the
    // same basin.
    std::vector<std::vector<double>> starts(static_cast<std::size_t>(chains),
                                            x0);
    for (int c = 1; c < chains; ++c) {
      for (double& a : starts[static_cast<std::size_t>(c)]) {
        a += streams[static_cast<std::size_t>(c)].uniform(
            -options.hopping.step_size, options.hopping.step_size);
      }
    }

    std::vector<ChainResult> results(static_cast<std::size_t>(chains));
    std::exception_ptr error;
#pragma omp parallel for schedule(dynamic) if (chains > 1)
    for (int c = 0; c < chains; ++c) {
      try {
        results[static_cast<std::size_t>(c)] = run_chain_guarded(
            make_objective, p, starts[static_cast<std::size_t>(c)],
            streams[static_cast<std::size_t>(c)], options, c);
      } catch (...) {
#pragma omp critical(fastqaoa_chain_error)
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);

    // Quarantined chains carry f = +inf, so they lose every `<` comparison
    // and can never poison the reduction.
    std::size_t best = 0;
    for (std::size_t c = 1; c < results.size(); ++c) {
      if (results[c].f < results[best].f) best = c;
    }
    // The schedule carries the cost of the *whole* search, not just the
    // winning chain.
    std::size_t calls = 0;
    std::size_t evals = 0;
    for (const ChainResult& r : results) {
      calls += r.schedule.optimizer_calls;
      evals += r.schedule.evaluations;
    }
    winner = std::move(results[best].schedule);
    winner.optimizer_calls = calls;
    winner.evaluations = evals;
  }

  // Round-level stop annotation: the live budget state outranks whatever
  // the winning chain saw locally (a chain may have finished just before
  // the deadline another chain tripped).
  const runtime::StopReason now = tracker.check();
  if (now != runtime::StopReason::None) {
    winner.stop_reason = now;
  } else if (winner.stop_reason != runtime::StopReason::NonFinite) {
    winner.stop_reason = runtime::StopReason::None;
  }
  return winner;
}

/// Resolve which live budget state a strategy call uses: the caller's
/// shared tracker if provided, else `own` (constructed from options.budget).
runtime::BudgetTracker* resolve_tracker(const FindAnglesOptions& options,
                                        runtime::BudgetTracker& own) {
  return options.shared_tracker != nullptr ? options.shared_tracker : &own;
}

/// Copy of `options` with the optimizer-level budget pointer threaded into
/// the BFGS options (so budget checks happen at iteration granularity).
FindAnglesOptions with_budget(const FindAnglesOptions& options,
                              runtime::BudgetTracker* tracker) {
  FindAnglesOptions opts = options;
  opts.hopping.local.budget = tracker->active() ? tracker : nullptr;
  return opts;
}

}  // namespace

ObjectiveFactory ExactAngleEngine::at_depth(
    int p, const FindAnglesOptions& options) const {
  QaoaPlanOptions plan_options;
  if (options.phase_values) plan_options.phase_values = *options.phase_values;
  auto plan = std::make_shared<const QaoaPlan>(mixer_, obj_vals_, p,
                                               std::move(plan_options));
  return [plan, direction = options.direction, gradient = options.gradient] {
    return std::make_unique<ExactObjective>(plan, direction, gradient);
  };
}

std::vector<AngleSchedule> find_angles(const AngleEngine& engine,
                                       int max_rounds,
                                       const FindAnglesOptions& options) {
  FASTQAOA_CHECK(max_rounds >= 1, "find_angles: need max_rounds >= 1");

  runtime::BudgetTracker own(options.budget);
  runtime::BudgetTracker* tracker = resolve_tracker(options, own);
  const FindAnglesOptions opts = with_budget(options, tracker);

  const CheckpointFingerprint fingerprint{engine.dim(), options.direction,
                                          options.seed, engine.tag()};

  // One serially forked RNG stream per round: round p's randomness is a
  // pure function of (seed, p), independent of how many earlier rounds ran
  // in this process. That is what makes a crash-resumed run bit-identical
  // to an uninterrupted one.
  Rng master(options.seed);
  std::vector<Rng> round_streams;
  round_streams.reserve(static_cast<std::size_t>(max_rounds));
  for (int p = 0; p < max_rounds; ++p) round_streams.push_back(master.fork());

  std::vector<AngleSchedule> schedules;
  if (!options.checkpoint_file.empty() &&
      std::filesystem::exists(options.checkpoint_file)) {
    schedules = load_checkpoint(options.checkpoint_file, fingerprint);
    // Budget-stopped rounds were checkpointed for inspection, not resume:
    // their angles are best-so-far, so re-optimize them now that the run
    // (possibly) has fresh budget.
    while (!schedules.empty() && schedules.back().stopped_early()) {
      schedules.pop_back();
    }
    if (static_cast<int>(schedules.size()) > max_rounds) {
      schedules.resize(static_cast<std::size_t>(max_rounds));
    }
    FASTQAOA_OBS_COUNT_GLOBAL("runtime.checkpoint.resumed_rounds",
                              schedules.size());
  }

  for (int p = static_cast<int>(schedules.size()) + 1; p <= max_rounds; ++p) {
    if (!schedules.empty()) {
      // Between-rounds budget check: annotate the last *completed* round in
      // the returned set (the checkpoint keeps it unflagged — it really did
      // finish, so a resume must not redo it). When no round has run yet the
      // check is skipped so even an already-expired budget yields a
      // best-so-far round 1 (its optimizer stops within one iteration).
      const runtime::StopReason reason = tracker->check();
      if (reason != runtime::StopReason::None) {
        schedules.back().stop_reason = reason;
        break;
      }
    }
    FASTQAOA_TRACE_SPAN("find_angles_round");
    const auto round_start = std::chrono::steady_clock::now();
    Rng& rng = round_streams[static_cast<std::size_t>(p - 1)];
    std::vector<double> x0;
    if (schedules.empty()) {
      // Round 1: a small random start; basinhopping explores from there.
      x0 = {rng.uniform(0.0, 2.0 * kPi), rng.uniform(0.0, 2.0 * kPi)};
    } else {
      const AngleSchedule& prev = schedules.back();
      const std::vector<double> betas = interp_extrapolate(prev.betas);
      const std::vector<double> gammas = interp_extrapolate(prev.gammas);
      x0.insert(x0.end(), betas.begin(), betas.end());
      x0.insert(x0.end(), gammas.begin(), gammas.end());
    }
    schedules.push_back(
        best_of_chains(engine.at_depth(p, opts), p, x0, rng, opts, *tracker));
    if (!options.checkpoint_file.empty()) {
      save_checkpoint(options.checkpoint_file, schedules, fingerprint);
      if (FASTQAOA_FAULT_FIRE("crash.after_round", p)) {
        // Simulated hard kill for the fault-injection tests: the process
        // dies right after the checkpoint landed, exactly like SIGKILL.
        std::_Exit(137);
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      round_start)
            .count();
    FASTQAOA_OBS_COUNT_GLOBAL("anglefind.rounds", 1);
    FASTQAOA_OBS_TIME_GLOBAL("anglefind.round", seconds);
    FASTQAOA_OBS_HIST_GLOBAL("anglefind.round_latency_seconds", seconds);
    if (options.on_round) options.on_round(schedules.back(), seconds);
    if (schedules.back().stopped_early()) break;
  }
  return schedules;
}

AngleSchedule find_angles_at(const AngleEngine& engine, int p,
                             const std::vector<double>& initial_packed,
                             const FindAnglesOptions& options) {
  FASTQAOA_CHECK(static_cast<int>(initial_packed.size()) == 2 * p,
                 "find_angles_at: need 2p initial angles");
  runtime::BudgetTracker own(options.budget);
  runtime::BudgetTracker* tracker = resolve_tracker(options, own);
  const FindAnglesOptions opts = with_budget(options, tracker);
  Rng rng(options.seed);
  return best_of_chains(engine.at_depth(p, opts), p, initial_packed, rng,
                        opts, *tracker);
}

AngleSchedule find_angles_random(const AngleEngine& engine, int p,
                                 int restarts,
                                 const FindAnglesOptions& options) {
  FASTQAOA_CHECK(p >= 1 && restarts >= 1,
                 "find_angles_random: need p >= 1 and restarts >= 1");
  runtime::BudgetTracker own(options.budget);
  runtime::BudgetTracker* tracker = resolve_tracker(options, own);
  const FindAnglesOptions opts = with_budget(options, tracker);
  Rng rng(options.seed);
  const ObjectiveFactory make_objective = engine.at_depth(p, opts);

  // Draw every start point serially (one stream, fixed order), then run the
  // local minimizations in parallel against the shared setup. Ties break on
  // the restart index, so the winner is thread-count independent.
  std::vector<std::vector<double>> starts(
      static_cast<std::size_t>(restarts),
      std::vector<double>(static_cast<std::size_t>(2 * p)));
  for (auto& x0 : starts) {
    for (double& a : x0) a = rng.uniform(0.0, 2.0 * kPi);
  }

  std::vector<OptResult> results(static_cast<std::size_t>(restarts));
  std::size_t total_evals = 0;
  std::exception_ptr error;
#pragma omp parallel if (restarts > 1)
  {
    const std::unique_ptr<AngleObjective> objective = make_objective();
    FASTQAOA_OBS_SCOPE(objective->metrics());
    GradObjective fn = objective->as_grad_objective();
#pragma omp for schedule(dynamic)
    for (int r = 0; r < restarts; ++r) {
      try {
        // A tripped budget skips the remaining restarts (they report +inf
        // and lose the reduction) — except restart 0, which always runs so
        // a best-so-far answer exists even under an instant deadline.
        if (r > 0 && tracker->check() != runtime::StopReason::None) {
          results[static_cast<std::size_t>(r)].f =
              std::numeric_limits<double>::infinity();
          continue;
        }
        results[static_cast<std::size_t>(r)] =
            bfgs_minimize(fn, starts[static_cast<std::size_t>(r)],
                          opts.hopping.local);
      } catch (...) {
#pragma omp critical(fastqaoa_restart_error)
        if (!error) error = std::current_exception();
      }
    }
    const std::size_t mine = objective->evaluations();
#pragma omp atomic
    total_evals += mine;
    FASTQAOA_OBS_MERGE_GLOBAL(objective->metrics());
  }
  if (error) std::rethrow_exception(error);

  // Lowest finite f wins (index tie-break); restarts that diverged to
  // NaN/Inf or were skipped by a tripped budget never take the reduction.
  std::size_t best = 0;
  std::size_t total_calls = 0;
  for (std::size_t r = 0; r < results.size(); ++r) {
    total_calls += results[r].evaluations;
    if (r > 0 && (results[r].f < results[best].f ||
                  (!std::isfinite(results[best].f) &&
                   std::isfinite(results[r].f)))) {
      best = r;
    }
  }
  const OptResult& winner = results[best];

  AngleSchedule schedule = schedule_at(p, winner.x, winner.f, options.direction);
  schedule.optimizer_calls = total_calls;
  schedule.evaluations = total_evals;
  schedule.stop_reason = tracker->check();
  if (schedule.stop_reason == runtime::StopReason::None &&
      !std::isfinite(winner.f)) {
    schedule.stop_reason = runtime::StopReason::NonFinite;
  }
  return schedule;
}

AngleSchedule find_angles_grid(const AngleEngine& engine, int p,
                               int points_per_axis,
                               const FindAnglesOptions& options,
                               bool polish) {
  FASTQAOA_CHECK(p >= 1, "find_angles_grid: need p >= 1");
  FASTQAOA_CHECK(points_per_axis >= 2,
                 "find_angles_grid: need at least 2 points per axis");
  const int dims = 2 * p;
  FASTQAOA_CHECK(dims * std::log(points_per_axis) < std::log(5e7),
                 "find_angles_grid: grid too large — this strategy is "
                 "exponential in p; use find_angles() instead");

  runtime::BudgetTracker own(options.budget);
  runtime::BudgetTracker* tracker = resolve_tracker(options, own);
  const FindAnglesOptions opts = with_budget(options, tracker);
  const ObjectiveFactory make_objective = engine.at_depth(p, opts);

  const double step = 2.0 * kPi / points_per_axis;
  long long total = 1;
  for (int d = 0; d < dims; ++d) total *= points_per_axis;

  // Flat enumeration of the grid (index -> mixed-radix digits), parallel
  // over grid points with one objective per thread. The global winner is
  // the lexicographic min of (f, index), so any schedule gives the same
  // answer.
  double best_f = std::numeric_limits<double>::infinity();
  long long best_index = -1;
  std::size_t grid_evals = 0;
  std::exception_ptr error;
#pragma omp parallel if (total > 1)
  {
    const std::unique_ptr<AngleObjective> objective = make_objective();
    FASTQAOA_OBS_SCOPE(objective->metrics());
    std::vector<double> point(static_cast<std::size_t>(dims), 0.0);
    double local_f = std::numeric_limits<double>::infinity();
    long long local_index = -1;
    bool tripped = false;
#pragma omp for schedule(static)
    for (long long t = 0; t < total; ++t) {
      // Cooperative stop: once the budget trips, the remaining points in
      // every thread's range are skipped (the partial winner is flagged
      // stopped_early below).
      if (tripped) continue;
      if (tracker->active() &&
          tracker->check() != runtime::StopReason::None) {
        tripped = true;
        continue;
      }
      grid_point(t, points_per_axis, step, point);
      try {
        const double f = (*objective)(point, {});
        if (f < local_f) {
          local_f = f;
          local_index = t;
        }
      } catch (...) {
#pragma omp critical(fastqaoa_grid_error)
        if (!error) error = std::current_exception();
      }
    }
#pragma omp critical(fastqaoa_grid_best)
    if (local_f < best_f ||
        (local_f == best_f && local_index < best_index)) {
      best_f = local_f;
      best_index = local_index;
    }
    const std::size_t mine = objective->evaluations();
#pragma omp atomic
    grid_evals += mine;
    FASTQAOA_OBS_MERGE_GLOBAL(objective->metrics());
  }
  if (error) std::rethrow_exception(error);
  tracker->add_evaluations(grid_evals);

  // Every grid point is one objective callback; the polish adds its own.
  std::size_t optimizer_calls = static_cast<std::size_t>(total);
  std::size_t evaluations = grid_evals;

  std::vector<double> best_point(static_cast<std::size_t>(dims), 0.0);
  grid_point(best_index, points_per_axis, step, best_point);

  if (polish && best_index >= 0) {
    const std::unique_ptr<AngleObjective> objective = make_objective();
    FASTQAOA_OBS_SCOPE(objective->metrics());
    OptResult res = bfgs_minimize(objective->as_grad_objective(), best_point,
                                  opts.hopping.local);
    optimizer_calls += res.evaluations;
    evaluations += objective->evaluations();
    FASTQAOA_OBS_MERGE_GLOBAL(objective->metrics());
    if (res.f < best_f) {
      best_f = res.f;
      best_point = res.x;
    }
  }

  AngleSchedule schedule =
      schedule_at(p, best_point, best_f, options.direction);
  schedule.optimizer_calls = optimizer_calls;
  schedule.evaluations = evaluations;
  schedule.stop_reason = tracker->check();
  return schedule;
}

std::vector<double> median_angles(
    const std::vector<std::vector<double>>& packed_angle_sets) {
  FASTQAOA_CHECK(!packed_angle_sets.empty(), "median_angles: no inputs");
  const std::size_t width = packed_angle_sets.front().size();
  for (const auto& set : packed_angle_sets) {
    FASTQAOA_CHECK(set.size() == width, "median_angles: ragged inputs");
  }
  std::vector<double> medians(width);
  std::vector<double> column(packed_angle_sets.size());
  for (std::size_t i = 0; i < width; ++i) {
    for (std::size_t s = 0; s < packed_angle_sets.size(); ++s) {
      column[s] = packed_angle_sets[s][i];
    }
    std::sort(column.begin(), column.end());
    const std::size_t mid = column.size() / 2;
    medians[i] = column.size() % 2 == 1
                     ? column[mid]
                     : 0.5 * (column[mid - 1] + column[mid]);
  }
  return medians;
}

double evaluate_angles(const AngleEngine& engine,
                       const std::vector<double>& packed,
                       const FindAnglesOptions& options) {
  FASTQAOA_CHECK(packed.size() % 2 == 0 && !packed.empty(),
                 "evaluate_angles: need 2p angles");
  const std::unique_ptr<AngleObjective> objective =
      engine.at_depth(static_cast<int>(packed.size() / 2), options)();
  const double f = (*objective)(packed, {});
  FASTQAOA_OBS_MERGE_GLOBAL(objective->metrics());
  return options.direction == Direction::Maximize ? -f : f;
}

namespace {

const char* direction_tag(Direction d) {
  return d == Direction::Maximize ? "max" : "min";
}

/// Render the optional fingerprint header line. The mixer tag goes last and
/// is parsed rest-of-line, so mixer names may contain spaces.
void write_fingerprint(std::ostream& out,
                       const std::optional<CheckpointFingerprint>& fp) {
  if (!fp) {
    out << "fingerprint none\n";
    return;
  }
  out << "fingerprint dim=" << fp->dim << " direction="
      << direction_tag(fp->direction) << " seed=" << fp->seed
      << " mixer=" << fp->mixer << "\n";
}

/// Parse the v2 fingerprint line ("fingerprint none" or key=value fields).
std::optional<CheckpointFingerprint> read_fingerprint(
    const std::string& line, const std::string& path) {
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  FASTQAOA_CHECK(tag == "fingerprint",
                 "load_checkpoint: missing fingerprint line in " + path);
  std::string rest;
  std::getline(in, rest);
  if (rest == " none" || rest == "none") return std::nullopt;

  CheckpointFingerprint fp;
  std::istringstream fields(rest);
  std::string field;
  bool have_dim = false, have_dir = false, have_seed = false,
       have_mixer = false;
  while (fields >> field) {
    const std::size_t eq = field.find('=');
    FASTQAOA_CHECK(eq != std::string::npos,
                   "load_checkpoint: malformed fingerprint in " + path);
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "dim") {
      fp.dim = std::stoull(value);
      have_dim = true;
    } else if (key == "direction") {
      FASTQAOA_CHECK(value == "max" || value == "min",
                     "load_checkpoint: malformed fingerprint in " + path);
      fp.direction =
          value == "max" ? Direction::Maximize : Direction::Minimize;
      have_dir = true;
    } else if (key == "seed") {
      fp.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "mixer") {
      // mixer= consumes the rest of the line (names may contain spaces).
      std::string tail;
      std::getline(fields, tail);
      fp.mixer = value + tail;
      have_mixer = true;
      break;
    } else {
      FASTQAOA_CHECK(false, "load_checkpoint: unknown fingerprint field '" +
                                key + "' in " + path);
    }
  }
  FASTQAOA_CHECK(have_dim && have_dir && have_seed && have_mixer,
                 "load_checkpoint: incomplete fingerprint in " + path);
  return fp;
}

void check_fingerprint(const std::optional<CheckpointFingerprint>& found,
                       const CheckpointFingerprint& expected,
                       const std::string& path) {
  FASTQAOA_CHECK(found.has_value(),
                 "load_checkpoint: " + path +
                     " predates fingerprinting (or was saved without one) "
                     "— refusing to resume; delete the file to start over");
  auto mismatch = [&](const std::string& field, const std::string& have,
                      const std::string& want) {
    FASTQAOA_CHECK(false, "load_checkpoint: " + path +
                              " belongs to a different run — " + field +
                              " is " + have + " but this run expects " +
                              want +
                              "; delete the file (or point checkpoint_file "
                              "elsewhere) to start over");
  };
  if (found->dim != expected.dim) {
    mismatch("problem dimension", std::to_string(found->dim),
             std::to_string(expected.dim));
  }
  if (found->direction != expected.direction) {
    mismatch("direction", direction_tag(found->direction),
             direction_tag(expected.direction));
  }
  if (found->seed != expected.seed) {
    mismatch("seed", std::to_string(found->seed),
             std::to_string(expected.seed));
  }
  if (found->mixer != expected.mixer) {
    mismatch("mixer", "'" + found->mixer + "'", "'" + expected.mixer + "'");
  }
}

}  // namespace

void write_schedules(std::ostream& out,
                     const std::vector<AngleSchedule>& schedules) {
  const auto old_precision = out.precision(17);
  out << schedules.size() << "\n";
  for (const AngleSchedule& s : schedules) {
    out << s.p << " " << s.expectation << " " << s.optimizer_calls << " "
        << s.evaluations << " " << static_cast<int>(s.stop_reason) << "\n";
    for (std::size_t i = 0; i < s.betas.size(); ++i) {
      out << (i ? " " : "") << s.betas[i];
    }
    out << "\n";
    for (std::size_t i = 0; i < s.gammas.size(); ++i) {
      out << (i ? " " : "") << s.gammas[i];
    }
    out << "\n";
  }
  out.precision(old_precision);
}

std::vector<AngleSchedule> read_schedules(std::istream& in,
                                          const std::string& context) {
  std::size_t count = 0;
  in >> count;
  FASTQAOA_CHECK(!in.fail(), context + ": corrupt schedule count");
  std::vector<AngleSchedule> schedules(count);
  for (AngleSchedule& s : schedules) {
    int stop = 0;
    in >> s.p >> s.expectation >> s.optimizer_calls >> s.evaluations >> stop;
    FASTQAOA_CHECK(!in.fail() && s.p >= 1,
                   context + ": corrupt schedule entry");
    FASTQAOA_CHECK(
        stop >= 0 && stop <= static_cast<int>(runtime::StopReason::NonFinite),
        context + ": corrupt stop reason");
    s.stop_reason = static_cast<runtime::StopReason>(stop);
    s.betas.resize(static_cast<std::size_t>(s.p));
    s.gammas.resize(static_cast<std::size_t>(s.p));
    for (double& b : s.betas) in >> b;
    for (double& g : s.gammas) in >> g;
    FASTQAOA_CHECK(!in.fail(), context + ": corrupt angles");
  }
  return schedules;
}

void save_checkpoint(const std::string& path,
                     const std::vector<AngleSchedule>& schedules,
                     const std::optional<CheckpointFingerprint>& fingerprint) {
  std::ostringstream out;
  out.precision(17);
  out << "fastqaoa-angles v2\n";
  write_fingerprint(out, fingerprint);
  write_schedules(out, schedules);
  // Atomic replace (tmp + rename) so an interrupted save never corrupts the
  // resume file (the crash-resume behaviour the paper's §3 describes).
  runtime::atomic_write_file(path, out.str(), "save_checkpoint");
}

std::vector<AngleSchedule> load_checkpoint(
    const std::string& path,
    const std::optional<CheckpointFingerprint>& expected) {
  std::ifstream in(path);
  FASTQAOA_CHECK(in.good(), "load_checkpoint: cannot open " + path);
  std::string header;
  std::getline(in, header);

  if (header == "fastqaoa-angles v1") {
    // Legacy format: no fingerprint, no search-cost columns. Only loadable
    // when the caller did not ask for fingerprint validation.
    if (expected) check_fingerprint(std::nullopt, *expected, path);
    std::size_t count = 0;
    in >> count;
    FASTQAOA_CHECK(!in.fail(),
                   "load_checkpoint: corrupt schedule count in " + path);
    std::vector<AngleSchedule> schedules(count);
    for (AngleSchedule& s : schedules) {
      in >> s.p >> s.expectation;
      FASTQAOA_CHECK(!in.fail() && s.p >= 1,
                     "load_checkpoint: corrupt entry in " + path);
      s.betas.resize(static_cast<std::size_t>(s.p));
      s.gammas.resize(static_cast<std::size_t>(s.p));
      for (double& b : s.betas) in >> b;
      for (double& g : s.gammas) in >> g;
      FASTQAOA_CHECK(!in.fail(),
                     "load_checkpoint: corrupt angles in " + path);
    }
    return schedules;
  }

  FASTQAOA_CHECK(header == "fastqaoa-angles v2",
                 "load_checkpoint: unrecognized header in " + path);
  std::string fingerprint_line;
  std::getline(in, fingerprint_line);
  const std::optional<CheckpointFingerprint> found =
      read_fingerprint(fingerprint_line, path);
  if (expected) check_fingerprint(found, *expected, path);
  return read_schedules(in, "load_checkpoint(" + path + ")");
}

}  // namespace fastqaoa
