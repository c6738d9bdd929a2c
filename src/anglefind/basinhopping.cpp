#include "anglefind/basinhopping.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace fastqaoa {

OptResult basinhopping(const GradObjective& fn, std::vector<double> x0,
                       Rng& rng, const BasinHoppingOptions& opt,
                       const BatchObjective* batch_values) {
  FASTQAOA_CHECK(!x0.empty(), "basinhopping: empty starting point");
  FASTQAOA_CHECK(opt.hops >= 1, "basinhopping: need at least one hop");
  FASTQAOA_CHECK(opt.proposals >= 1, "basinhopping: need proposals >= 1");
  FASTQAOA_OBS_HIST_TIMED("anglefind.basinhopping.seconds");
  FASTQAOA_TRACE_SPAN("basinhopping");
  // Batched proposals need a batch evaluator; without one the hop falls
  // back to the classic single-proposal shape.
  const int proposals =
      batch_values != nullptr && *batch_values ? opt.proposals : 1;

  // Initial local minimization from the seed point.
  OptResult best = bfgs_minimize(fn, std::move(x0), opt.local);
  std::size_t evals = best.evaluations;
  if (!std::isfinite(best.f)) {
    // Even the seed basin is poisoned — hand the non-finite result straight
    // back so the chain-level quarantine can reseed the whole chain.
    best.stop_reason = runtime::StopReason::NonFinite;
    best.converged = false;
    return best;
  }
  if (best.stopped_early() &&
      best.stop_reason != runtime::StopReason::NonFinite) {
    return best;  // budget tripped during the seed minimization
  }

  std::vector<double> current = best.x;
  double current_f = best.f;
  double step = opt.step_size;
  int accepted = 0;
  int stale = 0;

  std::vector<double> trial(current.size());
  for (int hop = 0; hop < opt.hops; ++hop) {
    if (opt.local.budget != nullptr) {
      const runtime::StopReason reason = opt.local.budget->check();
      if (reason != runtime::StopReason::None) {
        best.stop_reason = reason;
        break;
      }
    }
    FASTQAOA_OBS_COUNT("anglefind.basinhopping.hops", 1);
    FASTQAOA_TRACE_SPAN("basinhop");
    if (proposals == 1) {
      for (std::size_t i = 0; i < current.size(); ++i) {
        trial[i] = current[i] + rng.uniform(-step, step);
      }
    } else {
      // Draw all P proposals serially (fixed order, one stream), score them
      // in one batched evaluation, and spend the local minimization on the
      // most promising basin only. Argmin ties break on the draw index, so
      // the chosen trial is a pure function of the RNG stream.
      const std::size_t dims = current.size();
      std::vector<double> points(static_cast<std::size_t>(proposals) * dims);
      for (int j = 0; j < proposals; ++j) {
        for (std::size_t i = 0; i < dims; ++i) {
          points[static_cast<std::size_t>(j) * dims + i] =
              current[i] + rng.uniform(-step, step);
        }
      }
      std::vector<double> values(static_cast<std::size_t>(proposals));
      (*batch_values)(points, values);
      evals += static_cast<std::size_t>(proposals);
      int pick = 0;
      for (int j = 1; j < proposals; ++j) {
        if (values[static_cast<std::size_t>(j)] <
            values[static_cast<std::size_t>(pick)]) {
          pick = j;
        }
      }
      const double* chosen = points.data() + static_cast<std::size_t>(pick) *
                                                 dims;
      std::copy(chosen, chosen + dims, trial.begin());
    }
    OptResult local = bfgs_minimize(fn, trial, opt.local);
    evals += local.evaluations;

    if (!std::isfinite(local.f)) {
      // A hop that diverged (NaN, or a -Inf that would otherwise win the
      // basin comparison) is rejected outright; the chain keeps hopping
      // from the last finite basin.
      FASTQAOA_OBS_COUNT("runtime.nonfinite.hops", 1);
      ++stale;
      if (opt.no_improvement_limit > 0 && stale >= opt.no_improvement_limit) {
        break;
      }
      ++best.iterations;
      continue;
    }

    // Metropolis acceptance on the *basin* energies.
    bool accept = local.f <= current_f;
    if (!accept && opt.temperature > 0.0) {
      const double prob = std::exp(-(local.f - current_f) / opt.temperature);
      accept = rng.uniform() < prob;
    }
    if (accept) {
      current = local.x;
      current_f = local.f;
      ++accepted;
      FASTQAOA_OBS_COUNT("anglefind.basinhopping.accepted", 1);
    }
    if (local.f < best.f) {
      best.x = local.x;
      best.f = local.f;
      stale = 0;
    } else {
      ++stale;
      if (opt.no_improvement_limit > 0 && stale >= opt.no_improvement_limit) {
        break;
      }
    }
    if (local.stopped_early() &&
        local.stop_reason != runtime::StopReason::NonFinite) {
      // Budget tripped inside this hop's local minimization; its result is
      // already folded into best, so stop hopping here.
      best.stop_reason = local.stop_reason;
      ++best.iterations;
      break;
    }
    if (opt.adaptive_step && (hop + 1) % 10 == 0) {
      // Steer acceptance toward ~50% (scipy's default heuristic).
      const double rate =
          static_cast<double>(accepted) / static_cast<double>(hop + 1);
      step *= rate > 0.5 ? 1.1 : 0.9;
    }
    ++best.iterations;
  }

  best.evaluations = evals;
  best.converged = !best.stopped_early();
  return best;
}

}  // namespace fastqaoa
