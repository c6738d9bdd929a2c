// qaoa_cli — run QAOA experiments from the command line without writing C++.
//
// Wires a problem generator, a mixer, and an angle-finding strategy into one
// driver that prints a CSV series (one row per round). Exactly the workflow
// the paper's Fig. 2 automates, exposed as a tool.
//
// Usage:
//   qaoa_cli --problem=maxcut|wmaxcut|ksat|densest|vertexcover|partition
//            --mixer=tf|grover|clique|ring
//            [--engine=exact|mps] [--max-bond=64] [--fidelity-budget=1e-3]
//            [--trunc-tol=1e-12] [--degree=D]
//            [--n=10] [--k=n/2] [--p=4] [--seed=42] [--density=6]
//            [--strategy=iterative|random|grid] [--restarts=50] [--hops=8]
//            [--grid-points=16]
//            [--minimize] [--shots=0] [--checkpoint=path] [--mixer-cache=path]
//            [--table-cache=path] [--threads=N] [--starts=M] [--batch=B]
//            [--backend=auto|scalar|avx2|avx512]
//            [--deadline=seconds] [--max-evals=N]
//            [--metrics=out.json] [--trace=out.trace.json] [--progress]
//
// Engines: --engine=exact (default) runs the dense statevector engine,
// limited to n <= 24. --engine=mps runs the approximate matrix-product-state
// engine (maxcut/wmaxcut with the tf mixer only) whose cost is polynomial in
// n — the n=40-100 regime — with --max-bond capping the bond dimension and
// --fidelity-budget bounding the cumulative discarded weight. Both engines
// share one driver and every strategy; only the plan, the stderr header and
// the CSV columns differ (MPS reports discarded_weight / max_bond_reached /
// truncations fidelity proxies). Flags that have no meaning for the
// selected engine are rejected, not ignored.
//
// Batching: --batch=B (iterative strategy only) scores B perturbation
// proposals per basinhopping hop (BasinHoppingOptions::proposals) and runs
// the local minimization from the most promising one. That changes the
// search — more exploration per hop — but stays deterministic for a fixed B.
// Any other strategy rejects --batch > 1.
//
// Robustness: --deadline / --max-evals bound the whole angle search (it
// stops within one optimizer iteration of the limit and reports best-so-far
// rows). SIGINT/SIGTERM trigger the same cooperative stop, so Ctrl-C still
// flushes checkpoints, partial CSV rows, and the observability artifacts;
// cancelled runs exit 130. FASTQAOA_FAULTS arms deterministic fault points
// in builds configured with -DFASTQAOA_FAULT_INJECTION=ON.
//
// Observability: --metrics writes the merged engine counters and histograms
// (one duration histogram per instrumented scope) as JSON after the run;
// --trace records scoped spans and writes Chrome trace-event JSON (open in
// chrome://tracing or ui.perfetto.dev); --progress prints one stderr line
// per completed angle-finding round.
//
// Examples:
//   qaoa_cli --problem=maxcut --mixer=tf --n=10 --p=5
//   qaoa_cli --problem=densest --mixer=clique --n=10 --k=5 --p=3
//   qaoa_cli --problem=ksat --mixer=grover --n=10 --density=6 --p=4

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "anglefind/strategies.hpp"
#include "common/cli_flags.hpp"
#include "common/error.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "core/qaoa.hpp"
#include "io/serialize.hpp"
#include "linalg/kernels/kernels.hpp"
#include "mixers/eigen_mixer.hpp"
#include "mixers/grover_mixer.hpp"
#include "mixers/x_mixer.hpp"
#include "mps/mps_objective.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "problems/cost_functions.hpp"
#include "problems/weighted_maxcut.hpp"
#include "runtime/budget.hpp"
#include "runtime/fault.hpp"
#include "sampling/sampler.hpp"

namespace {

using namespace fastqaoa;
using namespace fastqaoa::cli;

// SIGINT/SIGTERM request a *cooperative* stop: the handler only flips the
// (async-signal-safe) CancelToken, the optimizer notices at its next
// iteration, and the normal shutdown path still runs — partial CSV rows,
// the last round's checkpoint, and the metrics/trace artifacts all land on
// disk. A second Ctrl-C falls back to the default handler (hard kill).
runtime::CancelToken g_cancel;

extern "C" void handle_stop_signal(int sig) {
  g_cancel.request_stop();
  std::signal(sig, SIG_DFL);
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "qaoa_cli: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: qaoa_cli --problem=maxcut|wmaxcut|ksat|densest|"
               "vertexcover|partition --mixer=tf|grover|clique|ring "
               "[--engine=exact|mps] [--max-bond=64] [--fidelity-budget=1e-3] "
               "[--trunc-tol=1e-12] [--degree=D] [--n=10] [--k=n/2] "
               "[--p=4] [--seed=42] [--density=6] "
               "[--strategy=iterative|random|grid] [--restarts=50] "
               "[--hops=8] [--grid-points=16] [--minimize] [--shots=0] "
               "[--checkpoint=path] "
               "[--mixer-cache=path] [--table-cache=path] "
               "[--threads=N] [--starts=M] [--batch=B] "
               "[--backend=auto|scalar|avx2|"
               "avx512] [--deadline=seconds] [--max-evals=N] "
               "[--metrics=out.json] [--trace=out.trace.json] "
               "[--progress]\n");
  std::exit(2);
}

std::string join_names(const std::vector<std::string>& names) {
  std::string s;
  for (const auto& name : names) {
    if (!s.empty()) s += ", ";
    s += name;
  }
  return s;
}

/// Shared instance generation for maxcut/wmaxcut: --degree picks a random
/// d-regular topology (the sparse large-n workload), otherwise G(n, 0.5);
/// wmaxcut layers seeded Uniform[0.1, 1.0) edge weights on top. Identical
/// for both engines, so exact-vs-MPS comparisons see the same instance.
Graph build_maxcut_graph(const std::string& problem, int n, int degree,
                         Rng& rng) {
  Graph g = degree > 0 ? random_regular(n, degree, rng)
                       : erdos_renyi(n, 0.5, rng);
  if (problem == "wmaxcut") g = with_random_weights(g, rng);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--help") || has_flag(argc, argv, "-h")) {
    usage_error("help requested");
  }
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  // Deterministic fault-injection arming (FASTQAOA_FAULTS env var); no-op
  // unless the build has FASTQAOA_FAULT_INJECTION=ON.
  fault::arm_from_env();
  const std::string problem = string_option(argc, argv, "--problem", "maxcut");
  const std::string mixer_name = string_option(argc, argv, "--mixer", "tf");
  const std::string strategy =
      string_option(argc, argv, "--strategy", "iterative");
  const int n = static_cast<int>(int_option(argc, argv, "--n", 10));
  const int k = static_cast<int>(int_option(argc, argv, "--k", n / 2));
  const int p = static_cast<int>(int_option(argc, argv, "--p", 4));
  const auto seed = static_cast<std::uint64_t>(
      int_option(argc, argv, "--seed", 42));
  const double density = double_option(argc, argv, "--density", 6.0);
  const auto shots =
      static_cast<std::uint64_t>(int_option(argc, argv, "--shots", 0));
  const bool minimize = has_flag(argc, argv, "--minimize");
  const int degree = static_cast<int>(int_option(argc, argv, "--degree", 0));

  // --- engine selection -------------------------------------------------
  const std::string engine_name =
      string_option(argc, argv, "--engine", "exact");
  const std::optional<EngineKind> kind = parse_engine(engine_name);
  if (!kind) {
    usage_error("unknown --engine '" + engine_name +
                "' (available: " + join_names(engine_names()) + ")");
  }
  const bool use_mps = *kind == EngineKind::Mps;

  if (use_mps) {
    if (n < 2 || n > 256) {
      usage_error("--n out of supported range [2, 256] for --engine=mps");
    }
  } else if (n < 2 || n > 24) {
    usage_error("--n out of supported range [2, 24] for --engine=exact "
                "(use --engine=mps for larger n)");
  }
  if (p < 1 || p > 50) usage_error("--p out of supported range [1, 50]");

  // Engine-incompatible flag combinations fail fast with an explanation
  // instead of silently ignoring flags.
  if (use_mps) {
    if (problem != "maxcut" && problem != "wmaxcut") {
      usage_error("--engine=mps supports --problem=maxcut|wmaxcut only "
                  "(sparse diagonal cost Hamiltonians)");
    }
    if (mixer_name != "tf") {
      usage_error("--engine=mps supports the transverse-field mixer only; "
                  "--mixer=" + mixer_name + " requires --engine=exact");
    }
    if (int_option(argc, argv, "--batch", 1) > 1) {
      usage_error("--engine=mps has no batch hook to score hop proposals; "
                  "--batch requires --engine=exact");
    }
    if (shots > 0) {
      usage_error("--shots samples the dense statevector; it requires "
                  "--engine=exact");
    }
    if (!string_option(argc, argv, "--table-cache", "").empty()) {
      usage_error("--table-cache tabulates all 2^n objective values; it "
                  "requires --engine=exact");
    }
    if (!string_option(argc, argv, "--backend", "").empty()) {
      usage_error("--backend selects statevector kernel tables; it "
                  "requires --engine=exact");
    }
    if (!string_option(argc, argv, "--mixer-cache", "").empty()) {
      usage_error("--mixer-cache caches eigendecomposed mixers; it "
                  "requires --engine=exact");
    }
  } else {
    if (!string_option(argc, argv, "--max-bond", "").empty() ||
        !string_option(argc, argv, "--fidelity-budget", "").empty() ||
        !string_option(argc, argv, "--trunc-tol", "").empty()) {
      usage_error("--max-bond/--fidelity-budget/--trunc-tol tune MPS "
                  "truncation; they require --engine=mps");
    }
  }
  if (degree != 0) {
    if (problem != "maxcut" && problem != "wmaxcut") {
      usage_error("--degree applies to maxcut/wmaxcut graph generation only");
    }
    if (degree < 1 || degree >= n || (n * degree) % 2 != 0) {
      usage_error("--degree needs 1 <= degree < n with n*degree even");
    }
  }

  // --- search options (shared by both engines) --------------------------
  FindAnglesOptions opt;
  opt.seed = seed;
  opt.direction = minimize ? Direction::Minimize : Direction::Maximize;
  opt.hopping.hops = static_cast<int>(int_option(argc, argv, "--hops", 8));
  if (opt.hopping.hops < 1) usage_error("--hops must be >= 1");
  opt.checkpoint_file = string_option(argc, argv, "--checkpoint", "");
  opt.parallel_starts =
      static_cast<int>(int_option(argc, argv, "--starts", 1));
  if (opt.parallel_starts < 1) usage_error("--starts must be >= 1");
  const int batch = static_cast<int>(int_option(argc, argv, "--batch", 1));
  if (batch < 1) usage_error("--batch must be >= 1");
  if (batch > 1 && strategy != "iterative") {
    usage_error("--batch scores basinhopping hop proposals; it requires "
                "--strategy=iterative");
  }
  opt.hopping.proposals = batch;
  opt.budget.wall_seconds = double_option(argc, argv, "--deadline", 0.0);
  opt.budget.max_evaluations =
      static_cast<std::size_t>(int_option(argc, argv, "--max-evals", 0));
  opt.budget.cancel = &g_cancel;
  if (has_flag(argc, argv, "--progress")) {
    opt.on_round = [](const AngleSchedule& s, double seconds) {
      std::fprintf(stderr,
                   "# round p=%d done in %.2f s: <C>=%.6f "
                   "(%zu optimizer calls, %zu evaluations)\n",
                   s.p, seconds, s.expectation, s.optimizer_calls,
                   s.evaluations);
    };
  }
  const int restarts =
      static_cast<int>(int_option(argc, argv, "--restarts", 50));
  if (restarts < 1) usage_error("--restarts must be >= 1");
  const int grid_points =
      static_cast<int>(int_option(argc, argv, "--grid-points", 16));
  if (grid_points < 2) usage_error("--grid-points must be >= 2");

  // --threads caps both the restart/grid outer loops and the per-state
  // inner kernels (they share the OpenMP default team size).
  const int threads = static_cast<int>(int_option(argc, argv, "--threads", 0));
  if (threads > 0) set_num_threads(threads);

  // Kernel backend override (beats the FASTQAOA_KERNEL env var).
  const std::string backend = string_option(argc, argv, "--backend", "");
  if (!backend.empty() && !linalg::kernels::select(backend)) {
    usage_error("unknown or unsupported --backend '" + backend +
                "' (available: " + join_names(linalg::kernels::available()) +
                ")");
  }

  const std::string metrics_path =
      string_option(argc, argv, "--metrics", "");
  const std::string trace_path = string_option(argc, argv, "--trace", "");
  if (!trace_path.empty()) obs::trace_begin();

  Rng rng(seed);

  // --- engine: plan construction and the stderr header line --------------
  std::unique_ptr<AngleEngine> engine;
  std::unique_ptr<mps::MpsPlan> mps_plan;
  dvec obj_vals;
  std::unique_ptr<Mixer> owned_mixer;
  if (use_mps) {
    mps::MpsOptions mps_options;
    mps_options.max_bond = static_cast<index_t>(
        int_option(argc, argv, "--max-bond", 64));
    mps_options.fidelity_budget =
        double_option(argc, argv, "--fidelity-budget", 1e-3);
    mps_options.trunc_tol = double_option(argc, argv, "--trunc-tol", 1e-12);
    if (mps_options.max_bond < 1) usage_error("--max-bond must be >= 1");
    if (mps_options.fidelity_budget < 0.0) {
      usage_error("--fidelity-budget must be >= 0");
    }
    if (mps_options.trunc_tol < 0.0) usage_error("--trunc-tol must be >= 0");

    const Graph g = build_maxcut_graph(problem, n, degree, rng);
    mps_plan = std::make_unique<mps::MpsPlan>(mps::maxcut_hamiltonian(g),
                                              mps_options);
    engine = std::make_unique<mps::MpsAngleEngine>(*mps_plan);
    std::fprintf(stderr,
                 "# engine=mps problem=%s n=%d edges=%d total_weight=%.4f "
                 "p=%d seed=%llu chi=%zu fidelity_budget=%g trunc_tol=%g "
                 "swaps_per_round=%zu\n",
                 problem.c_str(), n, g.num_edges(), g.total_weight(), p,
                 static_cast<unsigned long long>(seed),
                 static_cast<std::size_t>(mps_options.max_bond),
                 mps_options.fidelity_budget, mps_options.trunc_tol,
                 mps_plan->swaps_per_round());
  } else {
    const bool constrained = mixer_name == "clique" || mixer_name == "ring";
    if (constrained && (k < 1 || k >= n)) {
      usage_error("--k must satisfy 1 <= k < n for constrained mixers");
    }
    StateSpace space =
        constrained ? StateSpace::dicke(n, k) : StateSpace::full(n);

    // --table-cache applies the Listing-2 load-or-build pattern to the
    // tabulated objective: the first run saves the table (crash-safely, via
    // the atomic writer), later runs skip generation entirely.
    auto tabulate_problem = [&]() -> dvec {
      if (problem == "maxcut" || problem == "wmaxcut") {
        Graph g = build_maxcut_graph(problem, n, degree, rng);
        return tabulate(space, [&g](state_t x) { return maxcut(g, x); });
      }
      if (problem == "ksat") {
        CnfFormula f = random_ksat_density(n, 3, density, rng);
        return tabulate(space, [&f](state_t x) { return ksat(f, x); });
      }
      if (problem == "densest") {
        Graph g = erdos_renyi(n, 0.5, rng);
        return tabulate(space,
                        [&g](state_t x) { return densest_subgraph(g, x); });
      }
      if (problem == "vertexcover") {
        Graph g = erdos_renyi(n, 0.5, rng);
        return tabulate(space,
                        [&g](state_t x) { return vertex_cover(g, x); });
      }
      if (problem == "partition") {
        std::vector<double> weights(static_cast<std::size_t>(n));
        for (auto& w : weights) w = std::floor(rng.uniform(1.0, 30.0));
        return tabulate(space, [&weights](state_t x) {
          return number_partition(weights, x);
        });
      }
      usage_error("unknown --problem '" + problem + "'");
    };
    const std::string table_cache =
        string_option(argc, argv, "--table-cache", "");
    obj_vals = table_cache.empty()
                   ? tabulate_problem()
                   : io::load_or_build_table(table_cache, tabulate_problem);
    if (!table_cache.empty()) {
      FASTQAOA_CHECK(obj_vals.size() == space.dim(),
                     "--table-cache file does not match this problem's "
                     "state-space dimension: " + table_cache);
    }

    if (mixer_name == "tf") {
      owned_mixer = std::make_unique<XMixer>(XMixer::transverse_field(n));
    } else if (mixer_name == "grover") {
      owned_mixer = std::make_unique<GroverMixer>(space.dim());
    } else if (constrained) {
      const std::string cache =
          string_option(argc, argv, "--mixer-cache", "");
      auto build = [&] {
        return mixer_name == "clique" ? EigenMixer::clique(space)
                                      : EigenMixer::ring(space);
      };
      WallTimer timer;
      owned_mixer = std::make_unique<EigenMixer>(
          cache.empty() ? build() : io::load_or_build_mixer(cache, build));
      std::fprintf(stderr, "# %s mixer ready in %.3f s (dim %zu)\n",
                   mixer_name.c_str(), timer.seconds(), space.dim());
    } else {
      usage_error("unknown --mixer '" + mixer_name + "'");
    }
    engine = std::make_unique<ExactAngleEngine>(*owned_mixer, obj_vals);

    const ObjectiveStats stats = objective_stats(obj_vals);
    std::fprintf(stderr,
                 "# problem=%s mixer=%s n=%d k=%d dim=%zu p=%d seed=%llu "
                 "best=%.4f worst=%.4f mean=%.4f\n",
                 problem.c_str(), mixer_name.c_str(), n,
                 constrained ? k : -1, space.dim(), p,
                 static_cast<unsigned long long>(seed), stats.max_value,
                 stats.min_value, stats.mean);
  }

  // --- run --------------------------------------------------------------
  WallTimer timer;
  std::vector<AngleSchedule> schedules;
  if (strategy == "iterative") {
    schedules = find_angles(*engine, p, opt);
  } else if (strategy == "random") {
    schedules.push_back(find_angles_random(*engine, p, restarts, opt));
  } else if (strategy == "grid") {
    schedules.push_back(find_angles_grid(*engine, p, grid_points, opt));
  } else {
    usage_error("unknown --strategy '" + strategy + "'");
  }
  const double elapsed = timer.seconds();

  // --- report -----------------------------------------------------------
  // evals_per_sec is the whole run's expectation-evaluation throughput
  // (total evaluations / total search seconds). It repeats on every row so
  // single-row strategies and per-round readers both see it.
  std::size_t total_evals = 0;
  for (const AngleSchedule& s : schedules) total_evals += s.evaluations;
  const double evals_per_sec =
      elapsed > 0.0 ? static_cast<double>(total_evals) / elapsed : 0.0;
  if (use_mps) {
    std::printf("p,expectation,optimizer_calls,evaluations,evals_per_sec,"
                "discarded_weight,max_bond_reached,truncations\n");
  } else {
    std::printf("p,expectation,ratio,ground_state_prob,optimizer_calls,"
                "evaluations,evals_per_sec%s\n",
                shots > 0 ? ",shot_estimate,shot_stderr" : "");
  }
  for (const AngleSchedule& s : schedules) {
    if (use_mps) {
      // One extra evaluation at the winning angles harvests the truncation
      // stats (the fidelity proxy) for this row.
      mps::MpsWorkspace ws;
      mps::evaluate_packed(*mps_plan, ws, s.packed());
      std::printf("%d,%.8f,%zu,%zu,%.1f,%.3e,%zu,%llu\n", s.p, s.expectation,
                  s.optimizer_calls, s.evaluations, evals_per_sec,
                  ws.stats.discarded_weight,
                  static_cast<std::size_t>(ws.stats.max_bond_reached),
                  static_cast<unsigned long long>(ws.stats.truncations));
      continue;
    }
    Qaoa qaoa(*owned_mixer, obj_vals, s.p);
    qaoa.run_packed(s.packed());
    const double ratio =
        approximation_ratio(s.expectation, obj_vals, opt.direction);
    const double gs = qaoa.ground_state_probability(opt.direction);
    std::printf("%d,%.8f,%.6f,%.6f,%zu,%zu,%.1f", s.p, s.expectation, ratio,
                gs, s.optimizer_calls, s.evaluations, evals_per_sec);
    if (shots > 0) {
      MeasurementSampler sampler(qaoa.state());
      Rng shot_rng(seed ^ 0xABCDEF);
      std::printf(",%.8f,%.8f",
                  sampler.estimate_expectation(obj_vals, shots, shot_rng),
                  sampler.standard_error(obj_vals, shots));
    }
    std::printf("\n");
  }
  std::fprintf(stderr,
               "# angle finding took %.2f s (%zu evaluations, %.1f evals/s, "
               "engine=%s, batch=%d)\n",
               elapsed, total_evals, evals_per_sec, engine_name.c_str(),
               batch);

  // Structured stop reporting: a tripped budget / Ctrl-C is not an error —
  // the partial rows above are valid best-so-far results — but the caller
  // should know the run was cut short (and scripts can branch on exit 130
  // for an interactive interrupt, mirroring the shell convention).
  runtime::StopReason stop = runtime::StopReason::None;
  for (const AngleSchedule& s : schedules) {
    if (s.stopped_early()) stop = s.stop_reason;
  }
  if (g_cancel.stop_requested()) stop = runtime::StopReason::Cancelled;
  if (stop != runtime::StopReason::None) {
    std::fprintf(stderr,
                 "# run stopped early (%s): results above are best-so-far"
                 "%s\n",
                 runtime::to_string(stop),
                 opt.checkpoint_file.empty()
                     ? ""
                     : "; re-run with the same --checkpoint to resume");
  }

  // --- observability artifacts -------------------------------------------
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out.good()) {
      std::fprintf(stderr, "qaoa_cli: cannot open --metrics file %s\n",
                   metrics_path.c_str());
      return 1;
    }
    out << obs::global_snapshot().to_json() << "\n";
    std::fprintf(stderr, "# metrics written to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!obs::write_trace(trace_path)) {
      std::fprintf(stderr, "qaoa_cli: cannot open --trace file %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "# trace written to %s\n", trace_path.c_str());
  }
  return stop == runtime::StopReason::Cancelled ? 130 : 0;
}
