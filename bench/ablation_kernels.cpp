// Kernel-backend ablations: quantify the two structural bets of
// src/linalg/kernels/ against the code they replaced.
//
//   1. blocked WHT — one parallel region, L1-resident multi-stage blocks,
//      radix-8 sweeps — vs the seed's per-stage-parallel radix-2
//      butterflies, at n = 18/20 and, single-threaded with achieved
//      bandwidth, at the folded working lengths n = 11 and 15,
//   2. fused phase -> WHT -> expectation round vs the same work issued as
//      separate kernel calls,
//   3. the headline: the fused round on the best available backend vs the
//      full seed-era evaluate round (libm sincos phase sweep, per-stage
//      WHT, separate scale and reduction passes),
//   4. the quantized phase route on single-state sweeps: linalg::phase_wht
//      with vs without the table's DiagDict, per backend (one sincos per
//      distinct cost value vs one per element). A speedup near 1.0 on a
//      fast-sincos backend means the route silently stopped engaging.
//   5. the Z2 fold: evaluate() of a p = 3 MaxCut plan that folds (half the
//      amplitudes) vs the same plan on the full route (an explicit uniform
//      initial state), single-threaded. A speedup near 1.0 means plans
//      stopped folding.
//   6. the adjoint gradient's reverse step: XMixer::adjoint_step (the
//      whole step in the Hadamard frame, 4 WHT passes) vs the base-class
//      composition Mixer::adjoint_step (apply_ham + 2 apply_exp, 6 passes),
//      with a pending maxcut phase, single-threaded. A speedup near 1.0
//      means the gradient fell back to the generic step.
//   7. the cold plan's cost table: the blocked maxcut_table builder vs the
//      generic per-state tabulate() on MaxCut over Erdős–Rényi(n, 0.5),
//      single-threaded, with a bit_identical check on each row.
//
// Sweeps run per backend via kernels::select(); the seed references are
// compiled locally in this TU with the build's default flags so they stay
// an honest baseline. Results land in bench/baselines/kernel_backends.json
// through the shared --json flag.
//
// Every sweep but 2 and 3 times each rep as an interleaved pair and
// reports the median of the per-rep ratios — back-to-back A/B pairs under
// one machine state are the only timing comparison that survives the
// clock drift of shared runners.
//
// Usage: ablation_kernels [--full] [--reps=N] [--json=path]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/plan.hpp"
#include "graphs/graph.hpp"
#include "linalg/diag_dict.hpp"
#include "linalg/kernels/kernels.hpp"
#include "linalg/wht.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"

namespace {

using namespace fastqaoa;
namespace kn = linalg::kernels;

// Defeats dead-code elimination of the timed loops; printed at the end.
double g_sink = 0.0;

// ---- seed-code references (default build flags, this TU) -------------------

/// Per-stage-parallel radix-2 WHT: one omp parallel region per stage,
/// exactly the shape src/linalg/wht.cpp shipped before the blocked kernel.
void wht_per_stage(cplx* a, index_t n) {
  for (index_t h = 1; h < n; h <<= 1) {
    const std::ptrdiff_t blocks = static_cast<std::ptrdiff_t>(n / (2 * h));
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t b = 0; b < blocks; ++b) {
      const index_t base = static_cast<index_t>(b) * 2 * h;
      for (index_t j = base; j < base + h; ++j) {
        const cplx x = a[j];
        const cplx y = a[j + h];
        a[j] = x + y;
        a[j + h] = x - y;
      }
    }
  }
}

/// Seed-era evaluate round: separate libm-sincos phase sweep, per-stage
/// WHT, a scale pass, and an OpenMP-reduction expectation — four trips
/// through memory where the fused kernel makes roughly one and a half.
double round_seed(cplx* a, const double* d, double angle, double scale,
                  const double* obj, index_t n) {
  const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < m; ++i) {
    const double phase = -angle * d[i];
    a[i] *= cplx{std::cos(phase), std::sin(phase)};
  }
  wht_per_stage(a, n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < m; ++i) a[i] *= scale;
  double acc = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : acc)
  for (std::ptrdiff_t i = 0; i < m; ++i) acc += obj[i] * std::norm(a[i]);
  return acc;
}

// ---- timing ------------------------------------------------------------------

/// Median seconds of each side of an interleaved A/B timing, and the median
/// of the per-rep ratios b_s / a_s.
struct PairTimes {
  double a_s;
  double b_s;
  double ratio;
};

/// Times reps interleaved (a, b) pairs after one warm-up pair; reset() runs
/// untimed before every call.
template <typename Reset, typename A, typename B>
PairTimes time_pairs(int reps, Reset&& reset, A&& a, B&& b) {
  std::vector<double> t_a;
  std::vector<double> t_b;
  std::vector<double> ratio;
  for (int rep = 0; rep <= reps; ++rep) {  // rep 0 warms up
    reset();
    WallTimer a_timer;
    a();
    const double a_s = a_timer.seconds();
    reset();
    WallTimer b_timer;
    b();
    const double b_s = b_timer.seconds();
    if (rep == 0) continue;
    t_a.push_back(a_s);
    t_b.push_back(b_s);
    ratio.push_back(b_s / a_s);
  }
  std::sort(t_a.begin(), t_a.end());
  std::sort(t_b.begin(), t_b.end());
  std::sort(ratio.begin(), ratio.end());
  return {t_a[t_a.size() / 2], t_b[t_b.size() / 2], ratio[ratio.size() / 2]};
}

// ---- state setup -----------------------------------------------------------

cvec random_state(index_t dim, std::uint64_t seed) {
  Rng rng(seed);
  cvec psi(dim);
  double norm_sq = 0.0;
  for (auto& v : psi) {
    v = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    norm_sq += std::norm(v);
  }
  const double inv = 1.0 / std::sqrt(norm_sq);
  for (auto& v : psi) v *= inv;
  return psi;
}

dvec random_diag(index_t dim, std::uint64_t seed) {
  Rng rng(seed);
  dvec d(dim);
  for (auto& v : d) v = rng.uniform(-4.0, 4.0);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = benchutil::has_flag(argc, argv, "--full");
  const int reps =
      static_cast<int>(benchutil::int_option(argc, argv, "--reps", 5));

  benchutil::banner("ablation_kernels",
                    "blocked WHT and fused-round kernels vs seed code", full);

  std::vector<int> qubits = full ? std::vector<int>{18, 20, 22}
                                 : std::vector<int>{18, 20};

  benchutil::JsonReport report(argc, argv, "ablation_kernels");
  report.meta("mode", full ? std::string("full") : std::string("reduced"));
  report.meta("threads", static_cast<long long>(num_threads()));
  report.meta("reps", static_cast<long long>(reps));

  const std::vector<std::string> backends = kn::available();
  kn::select("auto");
  const std::string best = kn::active_name();
  const double kAngle = 0.37;
  const double kGamma = 0.21;

  // -- 1. blocked vs per-stage WHT, per backend ------------------------------
  // Each rep is an interleaved pair of one call per side from the same
  // start; the speedup is the median of the per-rep ratios.
  std::printf("\n[wht] blocked (kernel) vs per-stage-parallel (seed)\n");
  std::printf("%-8s %4s %14s %14s %9s\n", "backend", "n", "blocked_s",
              "per_stage_s", "speedup");
  double scalar_blocked_speedup_n20 = 0.0;
  for (const auto& name : backends) {
    if (!kn::select(name)) continue;
    const kn::KernelBackend& k = kn::active();
    for (const int n : qubits) {
      const index_t dim = index_t{1} << n;
      const cvec start = random_state(dim, 11);
      cvec psi = start;
      const PairTimes t = time_pairs(
          reps, [&] { psi = start; }, [&] { k.wht(psi.data(), dim); },
          [&] { wht_per_stage(psi.data(), dim); });
      g_sink += psi[0].real();
      if (name == "scalar" && n == 20) scalar_blocked_speedup_n20 = t.ratio;
      std::printf("%-8s %4d %14.6f %14.6f %8.2fx\n", name.c_str(), n, t.a_s,
                  t.b_s, t.ratio);
      report.row();
      report.field("section", std::string("wht_blocked_vs_per_stage"));
      report.field("backend", name);
      report.field("n", static_cast<long long>(n));
      report.field("blocked_s", t.a_s);
      report.field("per_stage_s", t.b_s);
      report.field("speedup", t.ratio);
    }
  }

  // One-thread rows at the folded working lengths of find_angles (n=11)
  // and eval_hot / batch_sweep (n=15). Each side of a pair makes kWhtCalls
  // calls from the same start (few enough calls that the unnormalized
  // transform cannot overflow). gbps is compulsory traffic, one read and
  // one write of every complex value (32 B), over the blocked kernel's time.
  const int restore_wht_threads = num_threads();
  set_num_threads(1);
  std::printf("\n[wht] 1 thread, folded working lengths: blocked vs "
              "per-stage (seed)\n");
  std::printf("%-8s %4s %14s %14s %9s %8s\n", "backend", "n", "blocked_s",
              "per_stage_s", "speedup", "gbps");
  double wht_blocked_speedup_n15 = 0.0;
  for (const auto& name : backends) {
    if (!kn::select(name)) continue;
    const kn::KernelBackend& k = kn::active();
    for (const int n : {11, 15}) {
      const int kWhtCalls = n == 11 ? 64 : 8;
      const index_t dim = index_t{1} << n;
      const cvec start = random_state(dim, 11);
      cvec psi = start;
      const PairTimes t = time_pairs(
          reps, [&] { psi = start; },
          [&] {
            for (int c = 0; c < kWhtCalls; ++c) k.wht(psi.data(), dim);
          },
          [&] {
            for (int c = 0; c < kWhtCalls; ++c) wht_per_stage(psi.data(), dim);
          });
      g_sink += psi[0].real();
      const double blocked_s = t.a_s / kWhtCalls;
      const double stage_s = t.b_s / kWhtCalls;
      const double gbps = 32.0 * static_cast<double>(dim) / blocked_s / 1e9;
      if (name == best && n == 15) wht_blocked_speedup_n15 = t.ratio;
      std::printf("%-8s %4d %14.8f %14.8f %8.2fx %8.1f\n", name.c_str(), n,
                  blocked_s, stage_s, t.ratio, gbps);
      report.row();
      report.field("section", std::string("wht_blocked_vs_per_stage_t1"));
      report.field("backend", name);
      report.field("n", static_cast<long long>(n));
      report.field("blocked_s", blocked_s);
      report.field("per_stage_s", stage_s);
      report.field("speedup", t.ratio);
      report.field("gbps", gbps);
    }
  }
  set_num_threads(restore_wht_threads);

  // -- 2. fused vs unfused round, per backend --------------------------------
  // Round = diag phase + normalize-scale -> WHT -> diagonal expectation;
  // unfused issues the identical kernels of the same backend as separate
  // passes, so the delta is purely the fusion (memory traffic), not ISA.
  std::printf("\n[round] fused phase_wht_expect vs separate kernel calls\n");
  std::printf("%-8s %4s %14s %14s %9s\n", "backend", "n", "fused_s",
              "unfused_s", "speedup");
  for (const auto& name : backends) {
    if (!kn::select(name)) continue;
    const kn::KernelBackend& k = kn::active();
    for (const int n : qubits) {
      const index_t dim = index_t{1} << n;
      const dvec d = random_diag(dim, 7);
      const dvec obj = random_diag(dim, 13);
      const double scale = 1.0 / std::sqrt(static_cast<double>(dim));
      cvec psi = random_state(dim, 17);
      const double t_fused = benchutil::time_median(
          [&] {
            g_sink += k.phase_wht_expect(psi.data(), d.data(), kGamma, scale,
                                         obj.data(), dim);
          },
          reps);
      psi = random_state(dim, 17);
      const double t_unfused = benchutil::time_median(
          [&] {
            k.diag_phase(psi.data(), d.data(), nullptr, kGamma, dim);
            k.scale_real(psi.data(), scale, dim);
            k.wht(psi.data(), dim);
            g_sink += k.diag_expectation(obj.data(), psi.data(), dim);
          },
          reps);
      const double speedup = t_unfused / t_fused;
      std::printf("%-8s %4d %14.6f %14.6f %8.2fx\n", name.c_str(), n, t_fused,
                  t_unfused, speedup);
      report.row();
      report.field("section", std::string("round_fused_vs_unfused"));
      report.field("backend", name);
      report.field("n", static_cast<long long>(n));
      report.field("fused_s", t_fused);
      report.field("unfused_s", t_unfused);
      report.field("speedup", speedup);
    }
  }

  // -- 3. headline: best backend fused round vs the seed-era round -----------
  kn::select("auto");
  const kn::KernelBackend& k = kn::active();
  std::printf("\n[evaluate] %s fused round vs seed-era round\n", best.c_str());
  std::printf("%-8s %4s %14s %14s %9s\n", "backend", "n", "fused_s", "seed_s",
              "speedup");
  double best_vs_seed_n20 = 0.0;
  for (const int n : qubits) {
    const index_t dim = index_t{1} << n;
    const dvec d = random_diag(dim, 7);
    const dvec obj = random_diag(dim, 13);
    const double scale = 1.0 / std::sqrt(static_cast<double>(dim));
    cvec psi = random_state(dim, 19);
    const double t_fused = benchutil::time_median(
        [&] {
          g_sink += k.phase_wht_expect(psi.data(), d.data(), kAngle, scale,
                                       obj.data(), dim);
        },
        reps);
    psi = random_state(dim, 19);
    const double t_seed = benchutil::time_median(
        [&] {
          g_sink += round_seed(psi.data(), d.data(), kAngle, scale, obj.data(),
                               dim);
        },
        reps);
    const double speedup = t_seed / t_fused;
    if (n == 20) best_vs_seed_n20 = speedup;
    std::printf("%-8s %4d %14.6f %14.6f %8.2fx\n", best.c_str(), n, t_fused,
                t_seed, speedup);
    report.row();
    report.field("section", std::string("evaluate_vs_seed"));
    report.field("backend", best);
    report.field("n", static_cast<long long>(n));
    report.field("fused_s", t_fused);
    report.field("seed_s", t_seed);
    report.field("speedup", speedup);
  }

  // -- 4. quantized phase route on single-state sweeps, per backend --------
  // The orthonormal scale keeps repeated in-place calls norm-preserving.
  // Each rep times an interleaved pair (kRouteCalls calls per side); the
  // speedup is the median of the per-rep ratios. The gated
  // field is the best backend's; the scalar backend keeps the per-element
  // sweep for single states, so its row reads ~1.0 by design.
  std::printf("\n[phase_route] single-state phase_wht: DiagDict lookup vs "
              "per-element sincos (maxcut)\n");
  std::printf("%-8s %4s %5s %14s %14s %9s\n", "backend", "n", "nv",
              "per_elem_s", "quantized_s", "speedup");
  double quantized_phase_speedup_n20 = 0.0;
  for (const int n : {16, 20}) {
    constexpr int kRouteCalls = 4;
    Rng graph_rng(29);
    const Graph graph = erdos_renyi(n, 0.3, graph_rng);
    const dvec cost = tabulate(StateSpace::full(n), [&graph](state_t x) {
      return maxcut(graph, x);
    });
    const linalg::DiagDict dict = linalg::build_diag_dict(cost);
    const index_t dim = cost.size();
    const double scale = 1.0 / std::sqrt(static_cast<double>(dim));
    for (const auto& name : backends) {
      if (!kn::select(name)) continue;
      cvec plain = random_state(dim, 31);
      cvec quant = plain;
      linalg::phase_wht(plain, cost, kGamma, scale);
      linalg::phase_wht(quant, cost, kGamma, scale, &dict);
      const bool bit_identical =
          std::memcmp(plain.data(), quant.data(), dim * sizeof(cplx)) == 0;

      std::vector<double> t_plain;
      std::vector<double> t_quant;
      std::vector<double> ratio;
      for (int rep = 0; rep < reps; ++rep) {
        WallTimer plain_timer;
        for (int c = 0; c < kRouteCalls; ++c) {
          linalg::phase_wht(plain, cost, kGamma, scale);
        }
        const double plain_s = plain_timer.seconds() / kRouteCalls;
        WallTimer quant_timer;
        for (int c = 0; c < kRouteCalls; ++c) {
          linalg::phase_wht(quant, cost, kGamma, scale, &dict);
        }
        const double quant_s = quant_timer.seconds() / kRouteCalls;
        t_plain.push_back(plain_s);
        t_quant.push_back(quant_s);
        ratio.push_back(plain_s / quant_s);
      }
      g_sink += plain[0].real() + quant[0].real();
      std::sort(t_plain.begin(), t_plain.end());
      std::sort(t_quant.begin(), t_quant.end());
      std::sort(ratio.begin(), ratio.end());
      const double speedup = ratio[ratio.size() / 2];
      if (name == best && n == 20) quantized_phase_speedup_n20 = speedup;
      std::printf("%-8s %4d %5zu %14.6f %14.6f %8.2fx%s\n", name.c_str(), n,
                  dict.vals.size(), t_plain[t_plain.size() / 2],
                  t_quant[t_quant.size() / 2], speedup,
                  bit_identical ? "" : "  BITDIFF");
      report.row();
      report.field("section", std::string("phase_route"));
      report.field("backend", name);
      report.field("n", static_cast<long long>(n));
      report.field("distinct_values",
                   static_cast<long long>(dict.vals.size()));
      report.field("per_element_s", t_plain[t_plain.size() / 2]);
      report.field("quantized_s", t_quant[t_quant.size() / 2]);
      report.field("speedup", speedup);
      report.field("bit_identical",
                   static_cast<long long>(bit_identical ? 1 : 0));
    }
  }
  // One thread at the find_angles working length (n=12 MaxCut folded to
  // 2^11): the folded transverse-field diagonal (nv=7) and the folded cost
  // table. Interleaved pairs of kRouteCalls11 calls per side from the same
  // start; gbps is compulsory state traffic (32 B per complex value) over
  // the quantized time.
  const int restore_route_threads = num_threads();
  set_num_threads(1);
  std::printf("\n[phase_route] 1 thread, n=11 (find_angles working length)"
              "\n");
  std::printf("%-8s %4s %-6s %5s %14s %14s %9s %8s\n", "backend", "n",
              "table", "nv", "per_elem_s", "quantized_s", "speedup", "gbps");
  {
    constexpr int kRouteCalls11 = 64;
    const index_t dim = index_t{1} << 11;
    Rng graph_rng(59);
    const Graph graph = erdos_renyi(12, 0.5, graph_rng);
    const dvec cost12 = maxcut_table(StateSpace::full(12), graph);
    const XMixer folded_mixer = XMixer::transverse_field(12).folded();
    const dvec folded_cost(cost12.begin(),
                           cost12.begin() + static_cast<std::ptrdiff_t>(dim));
    const struct {
      const char* table;
      const dvec* d;
    } tables[] = {{"mixer", &folded_mixer.diagonal()},
                  {"cost", &folded_cost}};
    const double scale = 1.0 / std::sqrt(static_cast<double>(dim));
    for (const auto& tc : tables) {
      const dvec& d = *tc.d;
      const linalg::DiagDict dict = linalg::build_diag_dict(d);
      for (const auto& name : backends) {
        if (!kn::select(name)) continue;
        const cvec start = random_state(dim, 61);
        cvec plain = start;
        cvec quant = start;
        linalg::phase_wht(plain, d, kGamma, scale);
        linalg::phase_wht(quant, d, kGamma, scale, &dict);
        const bool bit_identical =
            std::memcmp(plain.data(), quant.data(), dim * sizeof(cplx)) == 0;
        const PairTimes t = time_pairs(
            reps,
            [&] {
              plain = start;
              quant = start;
            },
            [&] {
              for (int c = 0; c < kRouteCalls11; ++c) {
                linalg::phase_wht(quant, d, kGamma, scale, &dict);
              }
            },
            [&] {
              for (int c = 0; c < kRouteCalls11; ++c) {
                linalg::phase_wht(plain, d, kGamma, scale);
              }
            });
        g_sink += plain[0].real() + quant[0].real();
        const double quant_s = t.a_s / kRouteCalls11;
        const double plain_s = t.b_s / kRouteCalls11;
        const double gbps = 32.0 * static_cast<double>(dim) / quant_s / 1e9;
        std::printf("%-8s %4d %-6s %5zu %14.8f %14.8f %8.2fx %8.1f%s\n",
                    name.c_str(), 11, tc.table, dict.vals.size(), plain_s,
                    quant_s, t.ratio, gbps, bit_identical ? "" : "  BITDIFF");
        report.row();
        report.field("section", std::string("phase_route_t1"));
        report.field("backend", name);
        report.field("n", 11LL);
        report.field("table", std::string(tc.table));
        report.field("distinct_values",
                     static_cast<long long>(dict.vals.size()));
        report.field("per_element_s", plain_s);
        report.field("quantized_s", quant_s);
        report.field("speedup", t.ratio);
        report.field("gbps", gbps);
        report.field("bit_identical",
                     static_cast<long long>(bit_identical ? 1 : 0));
      }
    }
  }
  set_num_threads(restore_route_threads);
  kn::select("auto");

  // -- 5. Z2 fold: folded vs full-route evaluate(), best backend -----------
  // Single-threaded whatever the run's thread count, so the gated
  // z2_fold_speedup_n20 is measured at its baseline's setting (threads: 1);
  // the multi-threaded ratio is much noisier.
  const int restore_threads = num_threads();
  set_num_threads(1);
  std::printf("\n[z2_fold] %s evaluate(), maxcut p=3, 1 thread: folded vs "
              "full route\n", best.c_str());
  std::printf("%-8s %4s %14s %14s %9s %12s\n", "backend", "n", "full_s",
              "folded_s", "speedup", "rel_diff");
  double z2_fold_speedup_n20 = 0.0;
  for (const int n : qubits) {
    if (n > 20) continue;
    Rng graph_rng(37);
    const Graph graph = erdos_renyi(n, 0.5, graph_rng);
    const dvec cost = tabulate(StateSpace::full(n), [&graph](state_t x) {
      return maxcut(graph, x);
    });
    const XMixer mixer = XMixer::transverse_field(n);
    QaoaPlanOptions full_route;
    full_route.initial_state = cvec(
        cost.size(), cplx{1.0 / std::sqrt(static_cast<double>(cost.size())),
                          0.0});
    const QaoaPlan full(mixer, cost, 3, std::move(full_route));
    const QaoaPlan folded(mixer, cost, 3);
    const std::vector<double> betas{0.31, -0.52, 0.77};
    const std::vector<double> gammas{0.43, 0.91, -0.28};
    EvalWorkspace full_ws;
    EvalWorkspace folded_ws;
    const double e_full = evaluate(full, full_ws, betas, gammas);
    const double e_folded = evaluate(folded, folded_ws, betas, gammas);
    const double rel_diff = std::abs(e_folded - e_full) / std::abs(e_full);

    std::vector<double> t_full;
    std::vector<double> t_folded;
    std::vector<double> ratio;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer full_timer;
      g_sink += evaluate(full, full_ws, betas, gammas);
      const double full_s = full_timer.seconds();
      WallTimer folded_timer;
      g_sink += evaluate(folded, folded_ws, betas, gammas);
      const double folded_s = folded_timer.seconds();
      t_full.push_back(full_s);
      t_folded.push_back(folded_s);
      ratio.push_back(full_s / folded_s);
    }
    std::sort(t_full.begin(), t_full.end());
    std::sort(t_folded.begin(), t_folded.end());
    std::sort(ratio.begin(), ratio.end());
    const double speedup = ratio[ratio.size() / 2];
    if (n == 20) z2_fold_speedup_n20 = speedup;
    std::printf("%-8s %4d %14.6f %14.6f %8.2fx %12.2e%s\n", best.c_str(), n,
                t_full[t_full.size() / 2], t_folded[t_folded.size() / 2],
                speedup, rel_diff, folded.folded() ? "" : "  NOT FOLDED");
    report.row();
    report.field("section", std::string("z2_fold"));
    report.field("backend", best);
    report.field("n", static_cast<long long>(n));
    report.field("full_s", t_full[t_full.size() / 2]);
    report.field("folded_s", t_folded[t_folded.size() / 2]);
    report.field("speedup", speedup);
    report.field("rel_diff", rel_diff);
  }

  // -- 6. adjoint reverse step: Hadamard frame vs generic, best backend ----
  // One thread, like the fold section. Each call unapplies a pending maxcut
  // phase and the mixer from psi and lambda in place; both are unitary, so
  // repeated calls keep the states bounded.
  std::printf("\n[frame_adjoint] %s adjoint_step, transverse field with a "
              "pending maxcut phase, 1 thread: generic vs Hadamard frame\n",
              best.c_str());
  std::printf("%-8s %4s %14s %14s %9s %12s\n", "backend", "n", "generic_s",
              "frame_s", "speedup", "rel_diff");
  double frame_adjoint_speedup_n20 = 0.0;
  for (const int n : qubits) {
    if (n > 20) continue;
    Rng graph_rng(41);
    const Graph graph = erdos_renyi(n, 0.5, graph_rng);
    const dvec cost = tabulate(StateSpace::full(n), [&graph](state_t x) {
      return maxcut(graph, x);
    });
    const linalg::DiagDict dict = linalg::build_diag_dict(cost);
    const XMixer mixer = XMixer::transverse_field(n);
    const Mixer& generic = mixer;
    const index_t dim = cost.size();
    cvec psi_generic = random_state(dim, 43);
    cvec lambda_generic = random_state(dim, 47);
    cvec psi_frame = psi_generic;
    cvec lambda_frame = lambda_generic;
    cvec hpsi;
    cvec scratch;
    const double gamma = 0.37;
    const double beta = -0.61;
    const double g_generic = generic.Mixer::adjoint_step(
        psi_generic, lambda_generic, &cost, &dict, gamma, beta, scratch, hpsi);
    const double g_frame = mixer.adjoint_step(psi_frame, lambda_frame, &cost,
                                              &dict, gamma, beta, scratch,
                                              hpsi);
    const double rel_diff =
        std::abs(g_frame - g_generic) / std::abs(g_generic);

    std::vector<double> t_generic;
    std::vector<double> t_frame;
    std::vector<double> ratio;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer generic_timer;
      g_sink += generic.Mixer::adjoint_step(psi_generic, lambda_generic,
                                            &cost, &dict, gamma, beta, scratch,
                                            hpsi);
      const double generic_s = generic_timer.seconds();
      WallTimer frame_timer;
      g_sink += mixer.adjoint_step(psi_frame, lambda_frame, &cost, &dict,
                                   gamma, beta, scratch, hpsi);
      const double frame_s = frame_timer.seconds();
      t_generic.push_back(generic_s);
      t_frame.push_back(frame_s);
      ratio.push_back(generic_s / frame_s);
    }
    std::sort(t_generic.begin(), t_generic.end());
    std::sort(t_frame.begin(), t_frame.end());
    std::sort(ratio.begin(), ratio.end());
    const double speedup = ratio[ratio.size() / 2];
    if (n == 20) frame_adjoint_speedup_n20 = speedup;
    std::printf("%-8s %4d %14.6f %14.6f %8.2fx %12.2e\n", best.c_str(), n,
                t_generic[t_generic.size() / 2], t_frame[t_frame.size() / 2],
                speedup, rel_diff);
    report.row();
    report.field("section", std::string("frame_adjoint"));
    report.field("backend", best);
    report.field("n", static_cast<long long>(n));
    report.field("generic_s", t_generic[t_generic.size() / 2]);
    report.field("frame_s", t_frame[t_frame.size() / 2]);
    report.field("speedup", speedup);
    report.field("rel_diff", rel_diff);
  }

  // -- 7. cost table: blocked builder vs per-state tabulate, 1 thread ------
  std::printf("\n[cost_table] maxcut ER(n, 0.5), 1 thread: per-state "
              "tabulate vs blocked maxcut_table\n");
  std::printf("%-8s %4s %14s %14s %9s\n", "table", "n", "tabulate_s",
              "blocked_s", "speedup");
  double cost_table_speedup_n20 = 0.0;
  for (const int n : {16, 20}) {
    Rng graph_rng(53);
    const Graph graph = erdos_renyi(n, 0.5, graph_rng);
    const StateSpace space = StateSpace::full(n);
    dvec per_state;
    dvec blocked;
    const PairTimes t = time_pairs(
        reps, [] {}, [&] { blocked = maxcut_table(space, graph); },
        [&] {
          per_state = tabulate(
              space, [&graph](state_t x) { return maxcut(graph, x); });
        });
    const bool bit_identical =
        per_state.size() == blocked.size() &&
        std::memcmp(per_state.data(), blocked.data(),
                    blocked.size() * sizeof(double)) == 0;
    if (n == 20) cost_table_speedup_n20 = t.ratio;
    std::printf("%-8s %4d %14.6f %14.6f %8.2fx%s\n", "maxcut", n, t.b_s,
                t.a_s, t.ratio, bit_identical ? "" : "  BITDIFF");
    report.row();
    report.field("section", std::string("cost_table"));
    report.field("n", static_cast<long long>(n));
    report.field("tabulate_s", t.b_s);
    report.field("blocked_s", t.a_s);
    report.field("speedup", t.ratio);
    report.field("bit_identical",
                 static_cast<long long>(bit_identical ? 1 : 0));
  }
  set_num_threads(restore_threads);

  std::printf("\nacceptance: blocked vs per-stage WHT (scalar, n=20): %.2fx\n",
              scalar_blocked_speedup_n20);
  std::printf("acceptance: %s blocked vs per-stage WHT (n=15, 1 thread): "
              "%.2fx\n", best.c_str(), wht_blocked_speedup_n15);
  std::printf("acceptance: %s fused round vs seed round (n=20): %.2fx\n",
              best.c_str(), best_vs_seed_n20);
  std::printf("acceptance: %s quantized vs per-element phase_wht (n=20): "
              "%.2fx\n", best.c_str(), quantized_phase_speedup_n20);
  report.meta("best_backend", best);
  report.meta("scalar_blocked_speedup_n20", scalar_blocked_speedup_n20);
  report.meta("wht_blocked_speedup_n15", wht_blocked_speedup_n15);
  report.meta("best_vs_seed_speedup_n20", best_vs_seed_n20);
  std::printf("acceptance: %s folded vs full-route evaluate() (n=20): "
              "%.2fx\n", best.c_str(), z2_fold_speedup_n20);
  report.meta("quantized_phase_speedup_n20", quantized_phase_speedup_n20);
  report.meta("z2_fold_speedup_n20", z2_fold_speedup_n20);
  std::printf("acceptance: %s Hadamard-frame vs generic adjoint_step "
              "(n=20): %.2fx\n", best.c_str(), frame_adjoint_speedup_n20);
  report.meta("frame_adjoint_speedup_n20", frame_adjoint_speedup_n20);
  std::printf("acceptance: blocked maxcut_table vs per-state tabulate "
              "(n=20, 1 thread): %.2fx\n", cost_table_speedup_n20);
  report.meta("cost_table_speedup_n20", cost_table_speedup_n20);
  report.attach_metrics();
  report.write();

  std::printf("(sink %.3g)\n", g_sink);
  return 0;
}
