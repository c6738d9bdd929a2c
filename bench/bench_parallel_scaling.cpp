// bench_parallel_scaling — thread-scaling of the shared-plan evaluation
// core and the parallel random-restart outer loop.
//
// Sweeps 1..max threads twice, then measures instrumentation overhead:
//   1. raw evaluate() throughput: T std::threads hammer one shared QaoaPlan
//      with private workspaces (inner OpenMP pinned to 1 thread so only the
//      outer concurrency is measured);
//   2. find_angles_random() wall time at each OpenMP team size, verifying
//      the best objective is identical at every thread count;
//   3. single-thread evaluate() median with metrics recording on vs off
//      (the runtime toggle — both in one binary), the acceptance check for
//      the observability layer (compare bench/baselines/obs_overhead.json).
//
// Prints a table plus a JSON blob (compare against
// bench/baselines/parallel_scaling.json). --json=path writes the structured
// report shared by all harnesses.
//
// Usage: bench_parallel_scaling [--full] [--n=12] [--restarts=24]
//                               [--max-threads=N] [--json=path]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "anglefind/strategies.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "core/plan.hpp"
#include "mixers/x_mixer.hpp"
#include "obs/metrics.hpp"
#include "problems/cost_functions.hpp"

using namespace fastqaoa;

namespace {

std::vector<int> thread_sweep(int max_threads) {
  std::vector<int> sweep;
  for (int t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = benchutil::has_flag(argc, argv, "--full");
  const int n =
      static_cast<int>(benchutil::int_option(argc, argv, "--n", full ? 16 : 12));
  const int p = 4;
  const int restarts = static_cast<int>(
      benchutil::int_option(argc, argv, "--restarts", full ? 64 : 24));
  const unsigned hw = std::thread::hardware_concurrency();
  const int max_threads = static_cast<int>(benchutil::int_option(
      argc, argv, "--max-threads", hw ? static_cast<long long>(hw) : 1));

  benchutil::banner("parallel scaling",
                    "shared-plan evaluation + random-restart outer loop",
                    full);
  std::printf("n=%d p=%d restarts=%d max_threads=%d\n\n", n, p, restarts,
              max_threads);

  Rng rng(42);
  Graph g = erdos_renyi(n, 0.5, rng);
  dvec table = tabulate(StateSpace::full(n),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(n);
  QaoaPlan plan(mixer, table, p);

  std::vector<double> angles(static_cast<std::size_t>(2 * p));
  for (auto& a : angles) a = rng.uniform(0.0, 2.0 * kPi);

  // --- phase 1: raw shared-plan evaluate() throughput -------------------
  const int evals_per_thread = full ? 400 : 100;
  const std::vector<int> sweep = thread_sweep(max_threads);

  std::printf("shared-plan evaluate() throughput (%d evals/thread)\n",
              evals_per_thread);
  std::printf("%8s %14s %10s\n", "threads", "evals/sec", "speedup");
  std::vector<double> eval_rates;
  for (int t : sweep) {
    WallTimer timer;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(t));
    for (int w = 0; w < t; ++w) {
      workers.emplace_back([&] {
        set_num_threads(1);
        EvalWorkspace ws;
        ws.reserve(plan);
        for (int e = 0; e < evals_per_thread; ++e) {
          evaluate_packed(plan, ws, angles);
        }
      });
    }
    for (auto& w : workers) w.join();
    const double rate =
        static_cast<double>(t) * evals_per_thread / timer.seconds();
    eval_rates.push_back(rate);
    std::printf("%8d %14.1f %9.2fx\n", t, rate, rate / eval_rates.front());
  }

  // --- phase 2: parallel random restarts --------------------------------
  std::printf("\nfind_angles_random() wall time (%d restarts)\n", restarts);
  std::printf("%8s %10s %14s %10s %14s\n", "threads", "seconds",
              "restarts/sec", "speedup", "best <C>");
  FindAnglesOptions opt;
  opt.seed = 7;
  std::vector<double> restart_rates;
  std::vector<double> best_values;
  for (int t : sweep) {
    set_num_threads(t);
    WallTimer timer;
    const AngleSchedule s = find_angles_random(mixer, table, p, restarts, opt);
    const double secs = timer.seconds();
    const double rate = restarts / secs;
    restart_rates.push_back(rate);
    best_values.push_back(s.expectation);
    std::printf("%8d %10.3f %14.2f %9.2fx %14.8f\n", t, secs, rate,
                rate / restart_rates.front(), s.expectation);
  }
  set_num_threads(max_threads);
  for (double v : best_values) {
    if (v != best_values.front()) {
      std::printf("WARNING: best objective varies with thread count!\n");
      return 1;
    }
  }

  // --- phase 3: instrumentation overhead ---------------------------------
  // Median single-thread evaluate() with metrics recording enabled vs
  // disabled at runtime (obs::set_metrics_enabled, the instrumentation's
  // only off switch), in this same binary.
  set_num_threads(1);
  const int overhead_reps = full ? 200 : 60;
  EvalWorkspace overhead_ws;
  overhead_ws.reserve(plan);
  auto eval_once = [&] { evaluate_packed(plan, overhead_ws, angles); };
  obs::set_metrics_enabled(false);
  const double t_off = benchutil::time_median(eval_once, overhead_reps);
  obs::set_metrics_enabled(true);
  const double t_on = benchutil::time_median(eval_once, overhead_reps);
  set_num_threads(max_threads);
  const double overhead_ratio = t_on / t_off;
  std::printf("\nevaluate() instrumentation overhead (1 thread, %d reps)\n",
              overhead_reps);
  std::printf("%14s %14s %10s\n", "metrics off", "metrics on", "on/off");
  std::printf("%13.3es %13.3es %9.4fx\n", t_off, t_on, overhead_ratio);

  // --- JSON summary ------------------------------------------------------
  std::printf("\n{\"bench\":\"parallel_scaling\",\"n\":%d,\"p\":%d,"
              "\"restarts\":%d,\"threads\":[",
              n, p, restarts);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::printf("%s%d", i ? "," : "", sweep[i]);
  }
  std::printf("],\"eval_rate\":[");
  for (std::size_t i = 0; i < eval_rates.size(); ++i) {
    std::printf("%s%.1f", i ? "," : "", eval_rates[i]);
  }
  std::printf("],\"restart_rate\":[");
  for (std::size_t i = 0; i < restart_rates.size(); ++i) {
    std::printf("%s%.2f", i ? "," : "", restart_rates[i]);
  }
  std::printf("],\"best\":%.10f,\"overhead\":{\"median_off_s\":%.6e,"
              "\"median_on_s\":%.6e,\"ratio\":%.4f}}\n",
              best_values.front(), t_off, t_on, overhead_ratio);

  benchutil::JsonReport report(argc, argv, "bench_parallel_scaling");
  report.meta("n", static_cast<long long>(n));
  report.meta("p", static_cast<long long>(p));
  report.meta("restarts", static_cast<long long>(restarts));
  report.meta("full", static_cast<long long>(full ? 1 : 0));
  report.meta("overhead_median_off_s", t_off);
  report.meta("overhead_median_on_s", t_on);
  report.meta("overhead_ratio", overhead_ratio);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    report.row();
    report.field("threads", static_cast<long long>(sweep[i]));
    report.field("eval_rate", eval_rates[i]);
    report.field("restart_rate", restart_rates[i]);
    report.field("best", best_values[i]);
  }
  report.attach_metrics();
  report.write();
  return 0;
}
