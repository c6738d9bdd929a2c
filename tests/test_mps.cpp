// Tests for the approximate MPS engine (src/mps/): parity with the exact
// statevector engine at small n when the bond cap is unsaturated, graceful
// degradation (monotone discarded weight) when saturated, and bit-identical
// determinism across repeated evaluations and concurrent threads — the same
// invariance contract the exact engine's QaoaPlan/EvalWorkspace split is
// tested for in test_parallel.cpp.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "anglefind/strategies.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "core/plan.hpp"
#include "mixers/x_mixer.hpp"
#include "mps/hamiltonian.hpp"
#include "mps/mps_objective.hpp"
#include "mps/mps_plan.hpp"
#include "mps/mps_state.hpp"
#include "problems/cost_functions.hpp"
#include "problems/state_space.hpp"
#include "runtime/budget.hpp"
#include "test_util.hpp"

namespace fastqaoa::mps {
namespace {

dvec maxcut_table(const Graph& g) {
  return tabulate(StateSpace::full(g.num_vertices()),
                  [&g](state_t x) { return maxcut(g, x); });
}

std::vector<double> random_angles(int count, Rng& rng) {
  std::vector<double> a(static_cast<std::size_t>(count));
  for (auto& x : a) x = rng.uniform(0.0, 2.0 * kPi);
  return a;
}

/// Exact-engine reference <C> at the same packed angles.
double exact_expectation(const Graph& g, int p,
                         const std::vector<double>& packed) {
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(g.num_vertices());
  QaoaPlan plan(mixer, table, p);
  EvalWorkspace ws;
  return evaluate_packed(plan, ws, packed);
}

double mps_expectation(const Graph& g, int p,
                       const std::vector<double>& packed,
                       MpsOptions options = {.max_bond = 256,
                                             .fidelity_budget = 0.0,
                                             .trunc_tol = 1e-14}) {
  MpsPlan plan(maxcut_hamiltonian(g), options);
  MpsWorkspace ws;
  const double e = evaluate_packed(plan, ws, packed);
  EXPECT_EQ(p * 2, static_cast<int>(packed.size()));
  return e;
}

// ---------------------------------------------------------------------------
// Hamiltonian construction

TEST(MpsHamiltonian, MaxCutMatchesTableOnBitstrings) {
  Rng rng(11);
  Graph g = erdos_renyi(8, 0.5, rng);
  for (auto& e : const_cast<std::vector<Edge>&>(g.edges())) (void)e;
  DiagonalHamiltonian h = maxcut_hamiltonian(g);
  for (state_t x = 0; x < (state_t{1} << 8); ++x) {
    ASSERT_NEAR(eval_bits(h, x), maxcut(g, x), 1e-12) << "x=" << x;
  }
}

TEST(MpsHamiltonian, WeightedMaxCutMatchesTable) {
  Rng rng(12);
  Graph base = erdos_renyi(7, 0.6, rng);
  Graph g(base.num_vertices());
  for (const Edge& e : base.edges()) {
    g.add_edge(e.u, e.v, rng.uniform(0.25, 2.0));
  }
  DiagonalHamiltonian h = maxcut_hamiltonian(g);
  for (state_t x = 0; x < (state_t{1} << 7); ++x) {
    ASSERT_NEAR(eval_bits(h, x), maxcut(g, x), 1e-12) << "x=" << x;
  }
}

TEST(MpsHamiltonian, CanonicalizeMergesAndOrders) {
  DiagonalHamiltonian h;
  h.n = 4;
  h.zz_terms = {{2, 0, 1.0}, {0, 2, 0.5}, {1, 3, -1.0}, {0, 1, 0.0}};
  h.z_terms = {{1, 2.0}, {1, -2.0}, {3, 0.75}};
  h = canonicalize(std::move(h));
  ASSERT_EQ(h.zz_terms.size(), 2u);
  EXPECT_EQ(h.zz_terms[0].u, 0u);
  EXPECT_EQ(h.zz_terms[0].v, 2u);
  EXPECT_DOUBLE_EQ(h.zz_terms[0].coeff, 1.5);
  EXPECT_EQ(h.zz_terms[1].u, 1u);
  EXPECT_EQ(h.zz_terms[1].v, 3u);
  ASSERT_EQ(h.z_terms.size(), 1u);
  EXPECT_EQ(h.z_terms[0].site, 3u);
}

// ---------------------------------------------------------------------------
// MpsState basics

TEST(MpsState, PlusStateAmplitudesAndNorm) {
  MpsState s = MpsState::plus_state(6);
  EXPECT_NEAR(s.norm2(), 1.0, 1e-12);
  const double amp = 1.0 / std::sqrt(64.0);
  for (state_t x = 0; x < 64; ++x) {
    EXPECT_NEAR(std::abs(s.amplitude(x) - cplx(amp, 0.0)), 0.0, 1e-12);
  }
}

TEST(MpsState, SingleSiteGatesMatchHandComputation) {
  // e^{-i a Z_0} on |++>: amplitude picks up e^{-ia} for bit0 = 0 and
  // e^{+ia} for bit0 = 1; site 1 stays |+>.
  MpsState s = MpsState::plus_state(2);
  const double a = 0.7;
  s.apply_phase(0, a);
  for (state_t x = 0; x < 4; ++x) {
    const double sign = (x & 1) ? 1.0 : -1.0;
    EXPECT_NEAR(std::abs(s.amplitude(x) - 0.5 * std::exp(cplx(0, sign * a))),
                0.0, 1e-12)
        << "x=" << x;
  }
  // e^{-i b X_0} leaves |++> invariant up to the phase e^{-i b}.
  MpsState t = MpsState::plus_state(2);
  const double b = 0.4;
  t.apply_rx(0, b);
  for (state_t x = 0; x < 4; ++x) {
    EXPECT_NEAR(std::abs(t.amplitude(x) - 0.5 * std::exp(cplx(0, -b))), 0.0,
                1e-12)
        << "x=" << x;
  }
}

TEST(MpsState, CenterMovesPreserveState) {
  MpsState s = MpsState::plus_state(5);
  s.apply_phase(2, 0.3);
  s.apply_rx(1, 0.9);
  std::vector<cplx> before(32);
  for (state_t x = 0; x < 32; ++x) before[x] = s.amplitude(x);
  s.move_center(4);
  s.move_center(0);
  s.move_center(2);
  EXPECT_NEAR(s.norm2(), 1.0, 1e-12);
  for (state_t x = 0; x < 32; ++x) {
    EXPECT_NEAR(std::abs(s.amplitude(x) - before[x]), 0.0, 1e-11);
  }
}

// ---------------------------------------------------------------------------
// Parity with the exact engine (unsaturated bond cap)

TEST(MpsParity, RingP1ToP3) {
  Graph g = ring_graph(8);
  Rng rng(21);
  for (int p = 1; p <= 3; ++p) {
    const auto packed = random_angles(2 * p, rng);
    EXPECT_NEAR(mps_expectation(g, p, packed), exact_expectation(g, p, packed),
                1e-8)
        << "p=" << p;
  }
}

TEST(MpsParity, ErdosRenyiN10P3) {
  Rng rng(22);
  Graph g = erdos_renyi(10, 0.5, rng);
  const auto packed = random_angles(6, rng);
  EXPECT_NEAR(mps_expectation(g, 3, packed), exact_expectation(g, 3, packed),
              1e-8);
}

TEST(MpsParity, RandomRegularN12P2) {
  Rng rng(23);
  Graph g = random_regular(12, 3, rng);
  const auto packed = random_angles(4, rng);
  EXPECT_NEAR(mps_expectation(g, 2, packed), exact_expectation(g, 2, packed),
              1e-8);
}

TEST(MpsParity, WeightedGraphN10P2) {
  Rng rng(24);
  Graph base = erdos_renyi(10, 0.4, rng);
  Graph g(base.num_vertices());
  for (const Edge& e : base.edges()) {
    g.add_edge(e.u, e.v, rng.uniform(0.1, 1.5));
  }
  const auto packed = random_angles(4, rng);
  EXPECT_NEAR(mps_expectation(g, 2, packed), exact_expectation(g, 2, packed),
              1e-8);
}

TEST(MpsParity, RingN20P3LargeExact) {
  // n=20: the largest parity point the acceptance criteria name. A ring
  // keeps the light cone (and therefore the required bond dimension) small
  // at p=3, so chi=64 is unsaturated and the match must be exact-grade.
  Graph g = ring_graph(20);
  Rng rng(25);
  const auto packed = random_angles(6, rng);
  const double mps_e = mps_expectation(
      g, 3, packed,
      {.max_bond = 64, .fidelity_budget = 0.0, .trunc_tol = 1e-14});
  EXPECT_NEAR(mps_e, exact_expectation(g, 3, packed), 1e-8);
}

TEST(MpsParity, AmplitudesMatchExactState) {
  // Beyond <C>: the full wavefunction after 2 rounds must agree with the
  // exact engine amplitude-by-amplitude (phases included).
  Rng rng(26);
  Graph g = erdos_renyi(8, 0.5, rng);
  const auto packed = random_angles(4, rng);

  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(8);
  QaoaPlan eplan(mixer, table, 2);
  EvalWorkspace ews;
  evaluate_packed(eplan, ews, packed);

  MpsPlan plan(maxcut_hamiltonian(g),
               {.max_bond = 256, .fidelity_budget = 0.0, .trunc_tol = 1e-14});
  MpsWorkspace ws;
  evaluate_packed(plan, ws, packed);
  // The exact engine phases by the full cost table (constant included);
  // the MPS applies only the Z/ZZ terms, so the states differ by the
  // global phase e^{-i const sum(gamma)}.
  const double sum_gamma = packed[2] + packed[3];
  const cplx global = std::exp(cplx(0, -plan.hamiltonian().constant *
                                           sum_gamma));
  for (state_t x = 0; x < 256; ++x) {
    EXPECT_NEAR(std::abs(global * ws.state.amplitude(x) - ews.psi[x]), 0.0,
                1e-9)
        << "x=" << x;
  }
}

TEST(MpsParity, UnsaturatedRunReportsNoDiscard) {
  Rng rng(27);
  Graph g = erdos_renyi(10, 0.5, rng);
  MpsPlan plan(maxcut_hamiltonian(g),
               {.max_bond = 256, .fidelity_budget = 0.0, .trunc_tol = 1e-14});
  MpsWorkspace ws;
  evaluate_packed(plan, ws, random_angles(4, rng));
  EXPECT_EQ(ws.stats.truncations, 0u);
  EXPECT_EQ(ws.stats.discarded_weight, 0.0);
  EXPECT_EQ(ws.stats.budget_exhausted, 0u);
  EXPECT_LE(ws.stats.max_bond_reached, index_t{32});
}

// ---------------------------------------------------------------------------
// Saturated cap: graceful degradation

TEST(MpsTruncation, SaturatedCapReportsMonotoneDiscardedWeight) {
  Rng rng(31);
  Graph g = erdos_renyi(14, 0.5, rng);
  const auto packed = random_angles(6, rng);
  MpsPlan plan(maxcut_hamiltonian(g),
               {.max_bond = 4, .fidelity_budget = 1.0, .trunc_tol = 1e-12});
  double prev = 0.0;
  for (int p = 1; p <= 3; ++p) {
    MpsWorkspace ws;
    std::vector<double> prefix(packed.begin(), packed.begin() + p);
    prefix.insert(prefix.end(), packed.begin() + 3, packed.begin() + 3 + p);
    const double e = evaluate_packed(plan, ws, prefix);
    EXPECT_TRUE(std::isfinite(e));
    EXPECT_GT(ws.stats.truncations, 0u) << "p=" << p;
    EXPECT_GT(ws.stats.discarded_weight, 0.0) << "p=" << p;
    EXPECT_GE(ws.stats.discarded_weight, prev)
        << "discarded weight must be monotone in depth, p=" << p;
    EXPECT_EQ(ws.stats.max_bond_reached, index_t{4});
    prev = ws.stats.discarded_weight;
  }
}

TEST(MpsTruncation, HardCapForcesDiscardsPastBudget) {
  Rng rng(32);
  Graph g = erdos_renyi(14, 0.5, rng);
  MpsPlan plan(maxcut_hamiltonian(g),
               {.max_bond = 2, .fidelity_budget = 1e-12, .trunc_tol = 1e-12});
  MpsWorkspace ws;
  evaluate_packed(plan, ws, random_angles(4, rng));
  // The budget is microscopic; the chi=2 cap must keep discarding anyway
  // and count those forced discards separately.
  EXPECT_GT(ws.stats.budget_exhausted, 0u);
  EXPECT_GT(ws.stats.discarded_weight, 1e-12);
}

TEST(MpsTruncation, TighterCapDiscardsAtLeastAsMuch) {
  Rng rng(33);
  Graph g = erdos_renyi(12, 0.5, rng);
  const auto packed = random_angles(6, rng);
  double prev = 0.0;
  for (index_t chi : {index_t{32}, index_t{8}, index_t{4}, index_t{2}}) {
    MpsPlan plan(maxcut_hamiltonian(g),
                 {.max_bond = chi, .fidelity_budget = 1.0,
                  .trunc_tol = 1e-12});
    MpsWorkspace ws;
    evaluate_packed(plan, ws, packed);
    EXPECT_GE(ws.stats.discarded_weight, prev) << "chi=" << chi;
    prev = ws.stats.discarded_weight;
  }
}

// ---------------------------------------------------------------------------
// Determinism and concurrency

TEST(MpsDeterminism, RepeatedEvaluationsBitIdentical) {
  Rng rng(41);
  Graph g = erdos_renyi(12, 0.5, rng);
  const auto packed = random_angles(6, rng);
  MpsPlan plan(maxcut_hamiltonian(g),
               {.max_bond = 8, .fidelity_budget = 1e-2, .trunc_tol = 1e-12});
  MpsWorkspace ws;
  const double first = evaluate_packed(plan, ws, packed);
  const auto first_stats = ws.stats;
  for (int i = 0; i < 3; ++i) {
    MpsWorkspace fresh;
    const double e = evaluate_packed(plan, fresh, packed);
    EXPECT_EQ(std::memcmp(&e, &first, sizeof e), 0);
    EXPECT_EQ(fresh.stats.truncations, first_stats.truncations);
    EXPECT_EQ(fresh.stats.discarded_weight, first_stats.discarded_weight);
    EXPECT_EQ(fresh.stats.max_bond_reached, first_stats.max_bond_reached);
  }
}

// Shared-plan concurrency (std::thread, no OpenMP in the MPS kernels): one
// immutable MpsPlan, one workspace per thread, bit-identical results.
TEST(MpsShared, ConcurrentEvaluationsBitIdentical) {
  constexpr int kThreads = 4;
  constexpr int kEvals = 5;
  Rng rng(42);
  Graph g = erdos_renyi(12, 0.5, rng);
  const auto packed = random_angles(6, rng);
  MpsPlan plan(maxcut_hamiltonian(g),
               {.max_bond = 8, .fidelity_budget = 1e-2, .trunc_tol = 1e-12});

  MpsWorkspace ref_ws;
  const double ref = evaluate_packed(plan, ref_ws, packed);

  std::vector<std::vector<double>> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      MpsWorkspace ws;
      for (int e = 0; e < kEvals; ++e) {
        results[static_cast<std::size_t>(t)].push_back(
            evaluate_packed(plan, ws, packed));
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& per_thread : results) {
    for (double e : per_thread) {
      EXPECT_EQ(std::memcmp(&e, &ref, sizeof e), 0);
    }
  }
}

TEST(MpsDeterminism, FindAnglesInvariantToThreadCount) {
  Graph g = ring_graph(8);
  MpsPlan plan(maxcut_hamiltonian(g),
               {.max_bond = 16, .fidelity_budget = 1e-3, .trunc_tol = 1e-12});

  FindAnglesOptions options;
  options.parallel_starts = 4;
  options.hopping.hops = 1;
  options.hopping.local.max_iterations = 8;
  options.seed = 99;

  set_num_threads(1);
  const auto serial = find_angles(MpsAngleEngine(plan), 2, options);
  set_num_threads(4);
  const auto parallel = find_angles(MpsAngleEngine(plan), 2, options);
  set_num_threads(1);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(std::memcmp(&serial[r].expectation, &parallel[r].expectation,
                          sizeof(double)),
              0);
    ASSERT_EQ(serial[r].betas, parallel[r].betas);
    ASSERT_EQ(serial[r].gammas, parallel[r].gammas);
  }
  // And the angles must actually be good for something: better than the
  // uniform-state mean.
  dvec table = maxcut_table(g);
  const double mean = objective_stats(table).mean;
  EXPECT_GT(serial.back().expectation, mean);
}

TEST(MpsDeterminism, GridSweepInvariantToThreadCount) {
  Graph g = ring_graph(9);
  MpsPlan plan(maxcut_hamiltonian(g),
               {.max_bond = 16, .fidelity_budget = 1e-3, .trunc_tol = 1e-12});
  FindAnglesOptions options;
  options.seed = 7;
  set_num_threads(1);
  const auto serial = find_angles_grid(MpsAngleEngine(plan), 1, 5, options, false);
  set_num_threads(4);
  const auto parallel = find_angles_grid(MpsAngleEngine(plan), 1, 5, options, false);
  set_num_threads(1);
  EXPECT_EQ(std::memcmp(&serial.expectation, &parallel.expectation,
                        sizeof(double)),
            0);
  EXPECT_EQ(serial.betas, parallel.betas);
  EXPECT_EQ(serial.gammas, parallel.gammas);
}

// ---------------------------------------------------------------------------
// Runtime integration

TEST(MpsRuntime, CancelledTrackerInterruptsEvaluation) {
  Rng rng(51);
  Graph g = erdos_renyi(12, 0.5, rng);
  MpsPlan plan(maxcut_hamiltonian(g), {.max_bond = 16});
  runtime::CancelToken cancel;
  cancel.request_stop();
  runtime::RunBudget budget;
  budget.cancel = &cancel;
  runtime::BudgetTracker tracker(budget);
  MpsWorkspace ws;
  ws.tracker = &tracker;
  evaluate_packed(plan, ws, random_angles(6, rng));
  EXPECT_TRUE(ws.interrupted);
}

TEST(MpsRuntime, FingerprintTagEncodesEveryKnob) {
  Rng rng(52);
  Graph g = erdos_renyi(8, 0.5, rng);
  const DiagonalHamiltonian h = maxcut_hamiltonian(g);
  const std::string base = fingerprint_tag(MpsPlan(h, {.max_bond = 64}));
  EXPECT_NE(base, fingerprint_tag(MpsPlan(h, {.max_bond = 32})));
  EXPECT_NE(base, fingerprint_tag(
                      MpsPlan(h, {.max_bond = 64, .fidelity_budget = 1e-4})));
  EXPECT_NE(base,
            fingerprint_tag(MpsPlan(
                h, {.max_bond = 64, .fidelity_budget = 1e-3,
                    .trunc_tol = 1e-10})));
  EXPECT_EQ(base, fingerprint_tag(MpsPlan(h, {.max_bond = 64})));
  EXPECT_NE(base.find("mps:"), std::string::npos)
      << "tag must be engine-branded so exact checkpoints can never match";
}

TEST(MpsRuntime, FindAnglesAtMatchesDirectEvaluation) {
  Rng rng(53);
  Graph g = ring_graph(10);
  MpsPlan plan(maxcut_hamiltonian(g), {.max_bond = 32});
  FindAnglesOptions options;
  options.hopping.hops = 1;
  options.hopping.local.max_iterations = 10;
  const auto schedule =
      find_angles_at(MpsAngleEngine(plan), 1, {0.3, 0.8}, options);
  ASSERT_EQ(schedule.p, 1);
  const double direct =
      evaluate_angles(MpsAngleEngine(plan), schedule.packed());
  EXPECT_NEAR(schedule.expectation, direct, 1e-10);
}

// ---------------------------------------------------------------------------
// The shared angle-finding drivers on the MPS engine

/// Checkpoint path private to this process (gtest_discover_tests runs every
/// TEST in its own process, possibly concurrently).
std::string checkpoint_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("fastqaoa_mps_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

void expect_bitwise_equal(const AngleSchedule& a, const AngleSchedule& b) {
  EXPECT_EQ(std::memcmp(&a.expectation, &b.expectation, sizeof(double)), 0);
  EXPECT_EQ(a.betas, b.betas);
  EXPECT_EQ(a.gammas, b.gammas);
  EXPECT_EQ(a.optimizer_calls, b.optimizer_calls);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

FindAnglesOptions short_search() {
  FindAnglesOptions options;
  options.hopping.hops = 1;
  options.hopping.local.max_iterations = 6;
  options.seed = 21;
  return options;
}

TEST(MpsDrivers, CheckpointResumeIsBitIdentical) {
  MpsPlan plan(maxcut_hamiltonian(ring_graph(6)), {.max_bond = 4});
  FindAnglesOptions options = short_search();
  const auto uninterrupted = find_angles(MpsAngleEngine(plan), 3, options);

  options.checkpoint_file = checkpoint_path("resume.txt");
  std::filesystem::remove(options.checkpoint_file);
  ASSERT_EQ(find_angles(MpsAngleEngine(plan), 2, options).size(), 2u);
  const auto resumed = find_angles(MpsAngleEngine(plan), 3, options);
  std::filesystem::remove(options.checkpoint_file);

  ASSERT_EQ(resumed.size(), uninterrupted.size());
  for (std::size_t r = 0; r < resumed.size(); ++r) {
    expect_bitwise_equal(resumed[r], uninterrupted[r]);
  }
}

TEST(MpsDrivers, CheckpointsNeverResumeAcrossEngines) {
  const Graph g = ring_graph(8);
  MpsPlan plan(maxcut_hamiltonian(g), {.max_bond = 8});
  const dvec table = maxcut_table(g);
  const XMixer mixer = XMixer::transverse_field(8);
  FindAnglesOptions options = short_search();

  options.checkpoint_file = checkpoint_path("mps.txt");
  std::filesystem::remove(options.checkpoint_file);
  find_angles(MpsAngleEngine(plan), 1, options);
  EXPECT_THROW(find_angles(mixer, table, 2, options), Error);
  std::filesystem::remove(options.checkpoint_file);

  options.checkpoint_file = checkpoint_path("exact.txt");
  std::filesystem::remove(options.checkpoint_file);
  find_angles(mixer, table, 1, options);
  EXPECT_THROW(find_angles(MpsAngleEngine(plan), 2, options), Error);
  std::filesystem::remove(options.checkpoint_file);
}

TEST(MpsDrivers, RandomRestartsInvariantToThreadCount) {
  MpsPlan plan(maxcut_hamiltonian(ring_graph(8)), {.max_bond = 8});
  const MpsAngleEngine engine(plan);
  const FindAnglesOptions options = short_search();
  set_num_threads(1);
  const AngleSchedule serial = find_angles_random(engine, 1, 4, options);
  set_num_threads(4);
  const AngleSchedule parallel = find_angles_random(engine, 1, 4, options);
  set_num_threads(1);
  expect_bitwise_equal(serial, parallel);
  EXPECT_TRUE(std::isfinite(serial.expectation));
}

}  // namespace
}  // namespace fastqaoa::mps
