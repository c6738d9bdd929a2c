// bench_mps_scaling — the approximate-engine headline: MPS evaluation far
// past the exact engine's n <= 24 wall.
//
// Three phases:
//   1. single-evaluation scaling: n = 40..100 weighted 3-regular MaxCut at
//      chi in {8, 16}, p = 4 — wall time per evaluate() plus the fidelity
//      proxies (cumulative discarded weight, largest bond reached,
//      truncation count). The proxies are the honesty columns: a fast row
//      with large discarded weight is an approximation, not a speedup.
//   2. the acceptance run: a full find_angles(MpsAngleEngine) at n = 60,
//      p = 4 on one node, bounded by --max-evals so CI finishes in seconds.
//   3. crossover sweep: n = 16..24 with both engines on the same instance
//      and angles, at every bond cap — per-eval medians each way plus the
//      MPS discarded weight. "mps_vs_exact_speedup_n20" (the n=20 point at
//      the first chi) is what bench_check gates; in this exact-still-fits
//      range the dense kernel usually wins (2^n amplitudes are cheap), so
//      the baseline captures the crossover ratio rather than a guaranteed
//      win — regressions in either engine move it.
//
// Prints tables plus a JSON blob (compare against
// bench/baselines/mps_scaling.json via bench_check).
//
// Usage: bench_mps_scaling [--full] [--quick] [--chi=8,16] [--p=4]
//                          [--max-evals=150] [--json=path]
//
// --quick is the CI bench-check mode: one n=40 scaling row, no
// find_angles, headline crossover only — seconds instead of minutes,
// while still emitting every field bench_check gates. The reduced default
// (no flag) is the baseline-producing sweep and takes ~15-20 single-core
// minutes, most of it the bounded n=60 find_angles; --full adds n=128
// and a deeper evaluation budget.

#include <cstdio>
#include <string>
#include <vector>

#include "anglefind/strategies.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "core/plan.hpp"
#include "mixers/x_mixer.hpp"
#include "mps/hamiltonian.hpp"
#include "mps/mps_objective.hpp"
#include "mps/mps_plan.hpp"
#include "problems/cost_functions.hpp"
#include "problems/weighted_maxcut.hpp"

using namespace fastqaoa;

namespace {

/// Deterministic instance: weighted 3-regular graph seeded by n alone, so
/// every run (and the checked-in baseline) benchmarks the same instances.
Graph instance(int n) {
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  return weighted_regular(n, 3, rng);
}

std::vector<double> fixed_angles(int p) {
  // TQA-style smooth profile: representative of the angles an optimizer
  // visits (random angles truncate harder and would overstate discards).
  return tqa_initial_angles(p);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = benchutil::has_flag(argc, argv, "--full");
  const bool quick = benchutil::has_flag(argc, argv, "--quick");
  const int p =
      static_cast<int>(benchutil::int_option(argc, argv, "--p", 4));
  const long long max_evals =
      benchutil::int_option(argc, argv, "--max-evals", full ? 600 : 150);
  set_num_threads(1);  // single node, single thread: pure engine cost

  std::vector<index_t> chis;
  {
    const std::string spec =
        benchutil::string_option(argc, argv, "--chi", "8,16");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      chis.push_back(static_cast<index_t>(std::strtol(
          spec.c_str() + pos, nullptr, 10)));
      pos = spec.find(',', pos);
      if (pos == std::string::npos) break;
      ++pos;
    }
  }

  benchutil::banner("mps scaling",
                    "approximate large-n engine: weighted 3-regular MaxCut",
                    full);

  // --- phase 1: single-evaluation scaling, n = 40..100 -------------------
  const std::vector<int> sizes =
      quick ? std::vector<int>{40}
      : full ? std::vector<int>{40, 60, 80, 100, 128}
             : std::vector<int>{40, 60, 80, 100};
  const std::vector<double> angles = fixed_angles(p);

  std::printf("evaluate() scaling at p=%d (1 thread)\n", p);
  std::printf("%6s %6s %10s %12s %16s %10s %8s\n", "n", "chi", "seconds",
              "<C>", "discarded_wt", "trunc", "max_chi");
  struct Row {
    int n;
    index_t chi;
    double seconds, expectation, discarded;
    std::uint64_t truncations, max_bond;
  };
  std::vector<Row> rows;
  for (const int n : sizes) {
    const Graph g = instance(n);
    for (const index_t chi : chis) {
      mps::MpsPlan plan(mps::maxcut_hamiltonian(g),
                        {.max_bond = chi, .fidelity_budget = 1.0,
                         .trunc_tol = 1e-12});
      mps::MpsWorkspace ws;
      WallTimer timer;
      const double value = mps::evaluate_packed(plan, ws, angles);
      const double secs = timer.seconds();
      rows.push_back({n, chi, secs, value, ws.stats.discarded_weight,
                      ws.stats.truncations,
                      static_cast<std::uint64_t>(ws.stats.max_bond_reached)});
      std::printf("%6d %6d %10.3f %12.5f %16.3e %10llu %8llu\n", n,
                  static_cast<int>(chi), secs, value,
                  ws.stats.discarded_weight,
                  static_cast<unsigned long long>(ws.stats.truncations),
                  static_cast<unsigned long long>(ws.stats.max_bond_reached));
    }
  }

  // --- phase 2: n = 60 find_angles on one node ---------------------------
  const int fa_n = 60;
  double fa_secs = 0.0;
  double fa_best = 0.0;
  if (!quick) {
    const index_t fa_chi = chis.front();
    std::printf("\nfind_angles(MpsAngleEngine) n=%d chi=%d p=%d "
                "(<= %lld evaluations)\n",
                fa_n, static_cast<int>(fa_chi), p, max_evals);
    mps::MpsPlan fa_plan(mps::maxcut_hamiltonian(instance(fa_n)),
                         {.max_bond = fa_chi, .fidelity_budget = 1.0,
                          .trunc_tol = 1e-12});
    FindAnglesOptions fa_opt;
    fa_opt.seed = 7;
    fa_opt.hopping.hops = 2;
    fa_opt.budget.max_evaluations =
        static_cast<std::uint64_t>(max_evals);
    WallTimer fa_timer;
    const std::vector<AngleSchedule> schedules =
        find_angles(mps::MpsAngleEngine(fa_plan), p, fa_opt);
    fa_secs = fa_timer.seconds();
    fa_best = schedules.back().expectation;
    std::printf("%8s %10s %12s %10s\n", "rounds", "seconds", "best <C>",
                "evals/s");
    std::printf("%8zu %10.3f %12.6f %10.1f\n", schedules.size(), fa_secs,
                fa_best, static_cast<double>(max_evals) / fa_secs);
  }

  // --- phase 3: exact-vs-MPS crossover sweep, n = 16..24 -----------------
  // Both engines, same instance, same angles, per-eval medians. The
  // headline ratio bench_check gates is the n=20 point at the first chi.
  const std::vector<int> xsizes =
      quick ? std::vector<int>{20} : std::vector<int>{16, 20, 24};
  const int reps = full ? 9 : 5;
  struct XRow {
    int n;
    index_t chi;
    double exact_secs, mps_secs, speedup, discarded;
  };
  std::vector<XRow> xrows;
  double speedup = 0.0;
  std::printf("\nexact-vs-MPS crossover sweep (%d reps)\n", reps);
  std::printf("%6s %6s %14s %14s %10s %16s\n", "n", "chi", "exact s/eval",
              "mps s/eval", "ratio", "discarded_wt");
  for (const int xn : xsizes) {
    const Graph xg = instance(xn);
    dvec table = tabulate(StateSpace::full(xn),
                          [&xg](state_t x) { return maxcut(xg, x); });
    XMixer mixer = XMixer::transverse_field(xn);
    QaoaPlan exact_plan(mixer, table, p);
    EvalWorkspace exact_ws;
    exact_ws.reserve(exact_plan);
    const double exact_secs = benchutil::time_median(
        [&] { evaluate_packed(exact_plan, exact_ws, angles); }, reps);
    for (const index_t chi : chis) {
      mps::MpsPlan mps_plan(mps::maxcut_hamiltonian(xg),
                            {.max_bond = chi, .fidelity_budget = 1.0,
                             .trunc_tol = 1e-12});
      mps::MpsWorkspace mps_ws;
      const double mps_secs = benchutil::time_median(
          [&] { mps::evaluate_packed(mps_plan, mps_ws, angles); }, reps);
      const double ratio = exact_secs / mps_secs;
      xrows.push_back({xn, chi, exact_secs, mps_secs, ratio,
                       mps_ws.stats.discarded_weight});
      if (xn == 20 && chi == chis.front()) speedup = ratio;
      std::printf("%6d %6d %13.3es %13.3es %9.3fx %16.3e\n", xn,
                  static_cast<int>(chi), exact_secs, mps_secs, ratio,
                  mps_ws.stats.discarded_weight);
      if (quick) break;  // headline point only
    }
  }

  // --- JSON summary ------------------------------------------------------
  std::printf("\n{\"bench\":\"mps_scaling\",\"p\":%d,"
              "\"mps_vs_exact_speedup_n20\":%.6f,"
              "\"find_angles_n\":%d,\"find_angles_best\":%.8f,"
              "\"find_angles_seconds\":%.3f,\"rows\":[",
              p, speedup, fa_n, fa_best, fa_secs);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf("%s{\"n\":%d,\"chi\":%d,\"seconds\":%.4f,"
                "\"expectation\":%.6f,\"discarded_weight\":%.6e,"
                "\"truncations\":%llu,\"max_bond_reached\":%llu}",
                i ? "," : "", r.n, static_cast<int>(r.chi), r.seconds,
                r.expectation, r.discarded,
                static_cast<unsigned long long>(r.truncations),
                static_cast<unsigned long long>(r.max_bond));
  }
  std::printf("],\"crossover\":[");
  for (std::size_t i = 0; i < xrows.size(); ++i) {
    const XRow& x = xrows[i];
    std::printf("%s{\"n\":%d,\"chi\":%d,\"exact_s\":%.6e,\"mps_s\":%.6e,"
                "\"ratio\":%.4f,\"discarded_weight\":%.6e}",
                i ? "," : "", x.n, static_cast<int>(x.chi), x.exact_secs,
                x.mps_secs, x.speedup, x.discarded);
  }
  std::printf("]}\n");

  benchutil::JsonReport report(argc, argv, "bench_mps_scaling");
  report.meta("p", static_cast<long long>(p));
  report.meta("full", static_cast<long long>(full ? 1 : 0));
  report.meta("mps_vs_exact_speedup_n20", speedup);
  report.meta("find_angles_n", static_cast<long long>(fa_n));
  report.meta("find_angles_best", fa_best);
  report.meta("find_angles_seconds", fa_secs);
  for (const Row& r : rows) {
    report.row();
    report.field("kind", "scaling");
    report.field("n", static_cast<long long>(r.n));
    report.field("chi", static_cast<long long>(static_cast<int>(r.chi)));
    report.field("seconds", r.seconds);
    report.field("expectation", r.expectation);
    report.field("discarded_weight", r.discarded);
    report.field("truncations", static_cast<long long>(r.truncations));
    report.field("max_bond_reached", static_cast<long long>(r.max_bond));
  }
  for (const XRow& x : xrows) {
    report.row();
    report.field("kind", "crossover");
    report.field("n", static_cast<long long>(x.n));
    report.field("chi", static_cast<long long>(static_cast<int>(x.chi)));
    report.field("exact_s_per_eval", x.exact_secs);
    report.field("mps_s_per_eval", x.mps_secs);
    report.field("ratio", x.speedup);
    report.field("discarded_weight", x.discarded);
  }
  report.attach_metrics();
  report.write();
  return 0;
}
