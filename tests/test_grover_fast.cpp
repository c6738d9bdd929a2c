// Unit tests for the degeneracy-compressed Grover-QAOA fast path (§2.4):
// it must agree exactly with the full statevector simulation and reproduce
// Grover's algorithm when driven with threshold phases.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>

#include "anglefind/grover_objective.hpp"
#include "autodiff/adjoint.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "core/grover_fast.hpp"
#include "core/qaoa.hpp"
#include "mixers/grover_mixer.hpp"
#include "problems/cost_functions.hpp"
#include "test_util.hpp"

namespace fastqaoa {
namespace {

TEST(GroverFast, MatchesFullStatevectorOnMaxCut) {
  Rng rng(1);
  Graph g = erdos_renyi(8, 0.5, rng);
  StateSpace space = StateSpace::full(8);
  dvec table = tabulate(space, [&g](state_t x) { return maxcut(g, x); });

  // Full simulation with the rank-1 Grover mixer.
  GroverMixer mixer(256);
  Qaoa full(mixer, table, 3);
  std::vector<double> angles(6);
  for (auto& a : angles) a = rng.uniform(0.0, 2.0 * kPi);
  const double e_full = full.run_packed(angles);

  // Compressed simulation from the degeneracy histogram.
  GroverQaoa fast(degeneracy_table(table));
  const double e_fast = fast.run_packed(angles);
  EXPECT_NEAR(e_fast, e_full, 1e-10);
  EXPECT_NEAR(fast.ground_state_probability(),
              full.ground_state_probability(), 1e-10);
}

TEST(GroverFast, MatchesFullStatevectorOnDickeSubspace) {
  Rng rng(2);
  Graph g = erdos_renyi(9, 0.5, rng);
  StateSpace space = StateSpace::dicke(9, 4);
  dvec table =
      tabulate(space, [&g](state_t x) { return densest_subgraph(g, x); });
  GroverMixer mixer(space.dim());
  Qaoa full(mixer, table, 2);
  std::vector<double> angles = {0.3, 1.2, 0.8, 2.1};
  const double e_full = full.run_packed(angles);

  GroverQaoa fast(degeneracy_table_streaming_dicke(
      9, 4, [&g](state_t x) { return densest_subgraph(g, x); }));
  EXPECT_NEAR(fast.run_packed(angles), e_full, 1e-10);
}

TEST(GroverFast, ClassAmplitudesMatchExpandedState) {
  Rng rng(3);
  Graph g = erdos_renyi(6, 0.5, rng);
  StateSpace space = StateSpace::full(6);
  dvec table = tabulate(space, [&g](state_t x) { return maxcut(g, x); });
  DegeneracyTable hist = degeneracy_table(table);
  GroverQaoa fast(hist);
  std::vector<double> angles = {0.5, 0.9};
  fast.run_packed(angles);

  // Map each state to its class and expand.
  std::vector<std::size_t> class_of(table.size());
  for (index_t i = 0; i < table.size(); ++i) {
    class_of[i] = static_cast<std::size_t>(
        std::lower_bound(hist.values.begin(), hist.values.end(), table[i]) -
        hist.values.begin());
  }
  cvec expanded = fast.expand(class_of);

  GroverMixer mixer(64);
  Qaoa full(mixer, table, 1);
  full.run_packed(angles);
  EXPECT_LT(testutil::max_diff(expanded, full.state()), 1e-11);
}

TEST(GroverFast, GroverSearchSingleRoundKnownProbability) {
  // One Grover iteration via threshold-QAOA with beta = gamma = pi: success
  // probability sin^2(3 theta) with theta = asin(sqrt(M/N)).
  const double n_states = 1024.0;
  const double marked = 1.0;
  GroverQaoa qaoa = grover_search_qaoa(n_states, marked);
  std::vector<double> angles = {kPi, kPi};  // beta, gamma
  qaoa.run_packed(angles);
  const double theta = std::asin(std::sqrt(marked / n_states));
  const double expected = std::sin(3.0 * theta) * std::sin(3.0 * theta);
  EXPECT_NEAR(qaoa.ground_state_probability(), expected, 1e-10);
}

TEST(GroverFast, GroverSearchMultiRoundAmplification) {
  // p rounds at (pi, pi) give sin^2((2p+1) theta) — quadratic speedup.
  const double n_states = 4096.0;
  const double marked = 1.0;
  const double theta = std::asin(std::sqrt(marked / n_states));
  for (const int p : {1, 5, 20}) {
    GroverQaoa qaoa = grover_search_qaoa(n_states, marked);
    std::vector<double> angles(2 * static_cast<std::size_t>(p), kPi);
    qaoa.run_packed(angles);
    const double expected = std::pow(std::sin((2.0 * p + 1.0) * theta), 2);
    EXPECT_NEAR(qaoa.ground_state_probability(), expected, 1e-9)
        << "p=" << p;
  }
}

TEST(GroverFast, HammingWeightCostAtN100) {
  // n = 100: the full space has 2^100 states, far beyond any statevector —
  // but the compressed path handles it because there are only 101 classes.
  const int n = 100;
  std::vector<double> cost(static_cast<std::size_t>(n) + 1);
  for (int m = 0; m <= n; ++m) {
    cost[static_cast<std::size_t>(m)] = static_cast<double>(m);
  }
  GroverQaoa qaoa = grover_hamming_weight_qaoa(n, cost);
  EXPECT_EQ(qaoa.num_classes(), 101u);
  EXPECT_NEAR(qaoa.total_states() / std::pow(2.0, 100), 1.0, 1e-9);

  std::vector<double> zeros(4, 0.0);
  // Zero angles: uniform state, <C> = n/2 (mean Hamming weight).
  EXPECT_NEAR(qaoa.run_packed(zeros) / (n / 2.0), 1.0, 1e-9);

  // Nonzero angles change the expectation but keep it in [0, n].
  std::vector<double> angles = {0.4, 1.1, 0.9, 0.2};
  const double e = qaoa.run_packed(angles);
  EXPECT_GE(e, 0.0);
  EXPECT_LE(e, static_cast<double>(n));
}

TEST(GroverFast, PhaseValuesOverrideThresholdSemantics) {
  // Phase on the marked class only, measured objective untouched.
  GroverQaoa qaoa({0.0, 1.0}, {7.0, 1.0});
  qaoa.set_phase_values({0.0, 1.0});
  std::vector<double> angles = {kPi, kPi};
  qaoa.run_packed(angles);
  const double theta = std::asin(std::sqrt(1.0 / 8.0));
  EXPECT_NEAR(qaoa.ground_state_probability(),
              std::pow(std::sin(3.0 * theta), 2), 1e-10);
}

TEST(GroverFast, AdjointGradientMatchesFiniteDifferences) {
  Rng rng(31);
  Graph g = erdos_renyi(8, 0.5, rng);
  dvec table = tabulate(StateSpace::full(8),
                        [&g](state_t x) { return maxcut(g, x); });
  GroverQaoa qaoa(degeneracy_table(table));

  const int p = 3;
  std::vector<double> betas(p), gammas(p);
  for (auto& a : betas) a = rng.uniform(0.0, 2.0 * kPi);
  for (auto& a : gammas) a = rng.uniform(0.0, 2.0 * kPi);

  std::vector<double> gb(p), gg(p);
  const double value = qaoa.value_and_gradient(betas, gammas, gb, gg);
  EXPECT_NEAR(value, qaoa.run(betas, gammas), 1e-12);

  const double h = 1e-6;
  for (int i = 0; i < p; ++i) {
    auto bp = betas;
    bp[static_cast<std::size_t>(i)] += h;
    auto bm = betas;
    bm[static_cast<std::size_t>(i)] -= h;
    const double fd =
        (qaoa.run(bp, gammas) - qaoa.run(bm, gammas)) / (2.0 * h);
    EXPECT_NEAR(gb[static_cast<std::size_t>(i)], fd, 1e-5) << "beta " << i;

    auto gp = gammas;
    gp[static_cast<std::size_t>(i)] += h;
    auto gm = gammas;
    gm[static_cast<std::size_t>(i)] -= h;
    const double fd_g =
        (qaoa.run(betas, gp) - qaoa.run(betas, gm)) / (2.0 * h);
    EXPECT_NEAR(gg[static_cast<std::size_t>(i)], fd_g, 1e-5) << "gamma " << i;
  }
}

TEST(GroverFast, GradientAgreesWithFullSimulatorGradient) {
  // The compressed gradient must equal the full-space adjoint gradient.
  Rng rng(32);
  Graph g = erdos_renyi(7, 0.5, rng);
  dvec table = tabulate(StateSpace::full(7),
                        [&g](state_t x) { return maxcut(g, x); });
  GroverMixer mixer(128);
  Qaoa full(mixer, table, 2);
  AdjointDifferentiator adjoint(full);
  std::vector<double> betas = {0.6, 1.3};
  std::vector<double> gammas = {0.9, 0.4};
  std::vector<double> gb_full(2), gg_full(2);
  const double e_full =
      adjoint.value_and_gradient(betas, gammas, gb_full, gg_full);

  GroverQaoa fast(degeneracy_table(table));
  std::vector<double> gb_fast(2), gg_fast(2);
  const double e_fast =
      fast.value_and_gradient(betas, gammas, gb_fast, gg_fast);
  EXPECT_NEAR(e_full, e_fast, 1e-10);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(gb_full[static_cast<std::size_t>(i)],
                gb_fast[static_cast<std::size_t>(i)], 1e-9);
    EXPECT_NEAR(gg_full[static_cast<std::size_t>(i)],
                gg_fast[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(GroverFast, CompressedAngleFindingBeyondStatevectorScale) {
  // Optimize Grover-mixer QAOA angles over a 2^24-state search space — a
  // 128 MiB statevector replaced by two compressed classes. (At the truly
  // astronomic scales the compressed path *simulates*, e.g. 2^100, the
  // success probability itself underflows any optimizer's tolerances, so
  // angle *optimization* is exercised where the objective is resolvable.)
  const double num_states = std::pow(2.0, 24);
  GroverQaoa engine = grover_search_qaoa(num_states, 4096.0);
  FindAnglesOptions opt;
  opt.hopping.hops = 6;
  opt.seed = 7;
  auto schedules = find_angles(GroverAngleEngine(engine), 3, opt);
  ASSERT_EQ(schedules.size(), 3u);
  const double theta = std::asin(std::sqrt(4096.0 / num_states));
  for (const AngleSchedule& s : schedules) {
    engine.run_packed(s.packed());
    const double optimal =
        std::pow(std::sin((2.0 * s.p + 1.0) * theta), 2);
    // Optimized angles recover at least 90% of the known optimum, and the
    // expectation equals the success probability for the 0/1 objective.
    EXPECT_GT(engine.ground_state_probability(), 0.9 * optimal) << s.p;
    EXPECT_NEAR(s.expectation, engine.ground_state_probability(), 1e-12);
  }
  // Monotone amplification across rounds.
  EXPECT_GT(schedules[2].expectation, schedules[0].expectation);
}

TEST(GroverFast, CompressedObjectiveGradientsFeedBfgs) {
  Rng rng(41);
  Graph g = erdos_renyi(8, 0.5, rng);
  dvec table = tabulate(StateSpace::full(8),
                        [&g](state_t x) { return maxcut(g, x); });
  GroverQaoa engine(degeneracy_table(table));
  GroverObjective objective(engine, Direction::Maximize);
  OptResult res =
      bfgs_minimize(objective.as_grad_objective(), {0.5, 0.5, 0.8, 0.8});
  // BFGS with compressed gradients improves on the uniform-state mean.
  EXPECT_GT(objective.to_expectation(res.f), objective_stats(table).mean);
}

// ---------------------------------------------------------------------------
// The shared angle-finding drivers on the compressed engine

/// Checkpoint path private to this process (gtest_discover_tests runs every
/// TEST in its own process, possibly concurrently).
std::string checkpoint_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("fastqaoa_grover_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

void expect_bitwise_equal(const AngleSchedule& a, const AngleSchedule& b) {
  EXPECT_EQ(std::memcmp(&a.expectation, &b.expectation, sizeof(double)), 0);
  EXPECT_EQ(a.betas, b.betas);
  EXPECT_EQ(a.gammas, b.gammas);
  EXPECT_EQ(a.optimizer_calls, b.optimizer_calls);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
}

/// A 7-qubit MaxCut table: a handful of cut-value classes, small enough for
/// the exact engine too.
dvec grover_test_table() {
  Rng rng(61);
  Graph g = erdos_renyi(7, 0.5, rng);
  return tabulate(StateSpace::full(7),
                  [&g](state_t x) { return maxcut(g, x); });
}

FindAnglesOptions short_search() {
  FindAnglesOptions options;
  options.hopping.hops = 2;
  options.hopping.local.max_iterations = 20;
  options.seed = 23;
  return options;
}

TEST(GroverDrivers, CheckpointResumeIsBitIdentical) {
  const GroverQaoa qaoa(degeneracy_table(grover_test_table()));
  FindAnglesOptions options = short_search();
  const auto uninterrupted = find_angles(GroverAngleEngine(qaoa), 3, options);

  // A run that stops after round 2 leaves a checkpoint the next run resumes.
  options.checkpoint_file = checkpoint_path("resume.txt");
  std::filesystem::remove(options.checkpoint_file);
  ASSERT_EQ(find_angles(GroverAngleEngine(qaoa), 2, options).size(), 2u);
  const auto resumed = find_angles(GroverAngleEngine(qaoa), 3, options);
  std::filesystem::remove(options.checkpoint_file);

  ASSERT_EQ(resumed.size(), uninterrupted.size());
  for (std::size_t r = 0; r < resumed.size(); ++r) {
    expect_bitwise_equal(resumed[r], uninterrupted[r]);
  }
}

TEST(GroverDrivers, RefusesExactEngineCheckpoint) {
  const dvec table = grover_test_table();
  const GroverQaoa qaoa(degeneracy_table(table));
  const GroverMixer mixer(table.size());
  FindAnglesOptions options = short_search();
  options.checkpoint_file = checkpoint_path("exact.txt");
  std::filesystem::remove(options.checkpoint_file);
  find_angles(mixer, table, 1, options);
  EXPECT_THROW(find_angles(GroverAngleEngine(qaoa), 2, options), Error);
  std::filesystem::remove(options.checkpoint_file);
}

TEST(GroverDrivers, ParallelStartsInvariantToThreadCount) {
  const GroverQaoa qaoa(degeneracy_table(grover_test_table()));
  FindAnglesOptions options = short_search();
  options.parallel_starts = 4;
  set_num_threads(1);
  const auto serial = find_angles(GroverAngleEngine(qaoa), 3, options);
  set_num_threads(4);
  const auto parallel = find_angles(GroverAngleEngine(qaoa), 3, options);
  set_num_threads(1);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    expect_bitwise_equal(serial[r], parallel[r]);
  }
}

TEST(GroverDrivers, ExpiredDeadlineReturnsFlaggedRoundOne) {
  const GroverQaoa qaoa(degeneracy_table(grover_test_table()));
  FindAnglesOptions options = short_search();
  options.budget.wall_seconds = 1e-6;  // expired before the first iteration
  const auto schedules = find_angles(GroverAngleEngine(qaoa), 3, options);
  ASSERT_EQ(schedules.size(), 1u);  // round 1 always produces an answer
  EXPECT_EQ(schedules[0].stop_reason, runtime::StopReason::Deadline);
  EXPECT_TRUE(std::isfinite(schedules[0].expectation));
  ASSERT_EQ(schedules[0].betas.size(), 1u);
}

TEST(GroverDrivers, PhaseValuesOptionReplacesEngineTable) {
  // options.phase_values carries one phase value per class, exactly like
  // GroverQaoa::set_phase_values.
  const GroverQaoa qaoa = grover_search_qaoa(1024.0, 8.0);
  const std::vector<double> packed = {0.7, 1.9};
  FindAnglesOptions options;
  options.phase_values = dvec{0.0, 2.5};
  GroverQaoa direct = qaoa;
  direct.set_phase_values({0.0, 2.5});
  EXPECT_EQ(evaluate_angles(GroverAngleEngine(qaoa), packed, options),
            direct.run_packed(packed));
  EXPECT_NE(evaluate_angles(GroverAngleEngine(qaoa), packed),
            direct.run_packed(packed));
}

TEST(GroverDrivers, TagEncodesStateAndClassCounts) {
  const GroverQaoa qaoa = grover_search_qaoa(1024.0, 8.0);
  const GroverAngleEngine engine(qaoa);
  EXPECT_EQ(engine.dim(), 2u);
  EXPECT_EQ(engine.tag(), "grover:N=1024 classes=2");
}

TEST(GroverFast, Validation) {
  EXPECT_THROW(GroverQaoa({}, {}), Error);
  EXPECT_THROW(GroverQaoa({1.0}, {1.0, 2.0}), Error);
  EXPECT_THROW(GroverQaoa({1.0}, {0.0}), Error);
  GroverQaoa ok({0.0, 1.0}, {3.0, 1.0});
  EXPECT_THROW(ok.set_phase_values({1.0}), Error);
  std::vector<double> odd(3, 0.1);
  EXPECT_THROW(ok.run_packed(odd), Error);
  EXPECT_THROW(grover_search_qaoa(10.0, 10.0), Error);
  EXPECT_THROW(grover_hamming_weight_qaoa(4, {1.0}), Error);
}

}  // namespace
}  // namespace fastqaoa
