// Concurrency tests for the QaoaPlan / EvalWorkspace split: one immutable
// plan shared across many threads must produce bit-identical results, and
// the parallel outer loops (random restarts, basinhopping chains, ensemble
// instances) must be invariant to the thread count.
//
// All tests pin the OpenMP default team to 1 thread (in every worker
// thread too — the ICV is per-thread) so the per-state inner kernels reduce
// in a fixed order; only the outer loops under test run with >1 threads,
// via explicit num_threads clauses or std::thread.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/threading.hpp"
#include "core/plan.hpp"
#include "core/qaoa.hpp"
#include "autodiff/adjoint.hpp"
#include "mixers/chebyshev_mixer.hpp"
#include "mixers/grover_mixer.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"
#include "study/ensemble.hpp"
#include "test_util.hpp"

namespace fastqaoa {
namespace {

constexpr int kThreads = 6;
constexpr int kEvalsPerThread = 20;

dvec maxcut_table(const Graph& g) {
  return tabulate(StateSpace::full(g.num_vertices()),
                  [&g](state_t x) { return maxcut(g, x); });
}

std::vector<double> random_angles(int count, Rng& rng) {
  std::vector<double> a(static_cast<std::size_t>(count));
  for (auto& x : a) x = rng.uniform(0.0, 2.0 * kPi);
  return a;
}

/// Evaluate `plan` at fixed packed angles from kThreads std::threads, each
/// with a private workspace, and require every result to be bit-identical
/// to the serial reference.
void expect_concurrent_bit_identical(const QaoaPlan& plan,
                                     const std::vector<double>& packed) {
  set_num_threads(1);
  EvalWorkspace ref_ws;
  const double ref = evaluate_packed(plan, ref_ws, packed);
  const cvec ref_state = ref_ws.psi;

  std::vector<std::vector<double>> results(kThreads);
  std::vector<cvec> final_states(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      set_num_threads(1);  // fresh native thread: pin its OpenMP ICV too
      EvalWorkspace ws;
      ws.reserve(plan);
      for (int e = 0; e < kEvalsPerThread; ++e) {
        results[static_cast<std::size_t>(t)].push_back(
            evaluate_packed(plan, ws, packed));
      }
      final_states[static_cast<std::size_t>(t)] = ws.psi;
    });
  }
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    for (double e : results[static_cast<std::size_t>(t)]) {
      EXPECT_EQ(e, ref) << "thread " << t;
    }
    const cvec& state = final_states[static_cast<std::size_t>(t)];
    ASSERT_EQ(state.size(), ref_state.size());
    for (index_t i = 0; i < plan.work_dim(); ++i) {
      EXPECT_EQ(state[i].real(), ref_state[i].real()) << "thread " << t;
      EXPECT_EQ(state[i].imag(), ref_state[i].imag()) << "thread " << t;
    }
  }
}

TEST(SharedPlan, ConcurrentXMixerEvaluationBitIdentical) {
  Rng rng(11);
  Graph g = erdos_renyi(8, 0.5, rng);
  XMixer mixer = XMixer::transverse_field(8);
  QaoaPlan plan(mixer, maxcut_table(g), 3);
  expect_concurrent_bit_identical(plan, random_angles(6, rng));
}

TEST(SharedPlan, ConcurrentGroverMixerEvaluationBitIdentical) {
  Rng rng(12);
  Graph g = erdos_renyi(7, 0.5, rng);
  GroverMixer mixer(static_cast<index_t>(1) << 7);
  QaoaPlan plan(mixer, maxcut_table(g), 2);
  expect_concurrent_bit_identical(plan, random_angles(4, rng));
}

// The Chebyshev mixer used to keep mutable recurrence buffers — the one
// mixer that violated the thread-compatibility contract. Its state now
// lives entirely in the caller's scratch, so a shared instance must be
// safe under real concurrency.
TEST(SharedPlan, ConcurrentChebyshevMixerEvaluationBitIdentical) {
  Rng rng(13);
  StateSpace space = StateSpace::dicke(8, 4);
  ChebyshevMixer mixer = ChebyshevMixer::clique(space, 1e-12);
  Graph g = erdos_renyi(8, 0.5, rng);
  dvec table =
      tabulate(space, [&g](state_t x) { return densest_subgraph(g, x); });
  QaoaPlan plan(mixer, std::move(table), 2);
  expect_concurrent_bit_identical(plan, random_angles(4, rng));
}

TEST(SharedPlan, ConcurrentAdjointGradientBitIdentical) {
  Rng rng(14);
  Graph g = erdos_renyi(7, 0.5, rng);
  XMixer mixer = XMixer::transverse_field(7);
  QaoaPlan plan(mixer, maxcut_table(g), 3);
  const std::vector<double> betas = random_angles(3, rng);
  const std::vector<double> gammas = random_angles(3, rng);

  set_num_threads(1);
  EvalWorkspace ref_ws;
  std::vector<double> ref_gb(3), ref_gg(3);
  const double ref =
      adjoint_value_and_gradient(plan, ref_ws, betas, gammas, ref_gb, ref_gg);

  std::vector<double> values(kThreads);
  std::vector<std::vector<double>> grads_b(kThreads), grads_g(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      set_num_threads(1);
      EvalWorkspace ws;
      std::vector<double> gb(3), gg(3);
      double v = 0.0;
      for (int e = 0; e < kEvalsPerThread; ++e) {
        v = adjoint_value_and_gradient(plan, ws, betas, gammas, gb, gg);
      }
      values[static_cast<std::size_t>(t)] = v;
      grads_b[static_cast<std::size_t>(t)] = gb;
      grads_g[static_cast<std::size_t>(t)] = gg;
    });
  }
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(values[static_cast<std::size_t>(t)], ref);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(grads_b[static_cast<std::size_t>(t)][static_cast<std::size_t>(
                    i)],
                ref_gb[static_cast<std::size_t>(i)]);
      EXPECT_EQ(grads_g[static_cast<std::size_t>(t)][static_cast<std::size_t>(
                    i)],
                ref_gg[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(ParallelStrategies, RandomRestartsThreadCountInvariant) {
  Rng rng(21);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(6);
  FindAnglesOptions opt;
  opt.seed = 7;

  set_num_threads(1);
  const AngleSchedule serial = find_angles_random(mixer, table, 2, 6, opt);
  set_num_threads(4);
  const AngleSchedule parallel = find_angles_random(mixer, table, 2, 6, opt);
  set_num_threads(1);

  EXPECT_EQ(serial.expectation, parallel.expectation);
  EXPECT_EQ(serial.betas, parallel.betas);
  EXPECT_EQ(serial.gammas, parallel.gammas);
}

TEST(ParallelStrategies, BasinhoppingChainsThreadCountInvariant) {
  Rng rng(22);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(6);
  FindAnglesOptions opt;
  opt.seed = 9;
  opt.hopping.hops = 3;
  opt.parallel_starts = 4;

  set_num_threads(1);
  const std::vector<AngleSchedule> serial = find_angles(mixer, table, 2, opt);
  set_num_threads(4);
  const std::vector<AngleSchedule> parallel =
      find_angles(mixer, table, 2, opt);
  set_num_threads(1);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    EXPECT_EQ(serial[p].expectation, parallel[p].expectation);
    EXPECT_EQ(serial[p].betas, parallel[p].betas);
    EXPECT_EQ(serial[p].gammas, parallel[p].gammas);
  }
}

TEST(ParallelStrategies, GridSearchThreadCountInvariant) {
  Rng rng(23);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(6);
  FindAnglesOptions opt;

  set_num_threads(1);
  const AngleSchedule serial =
      find_angles_grid(mixer, table, 1, 8, opt, /*polish=*/false);
  set_num_threads(4);
  const AngleSchedule parallel =
      find_angles_grid(mixer, table, 1, 8, opt, /*polish=*/false);
  set_num_threads(1);

  EXPECT_EQ(serial.expectation, parallel.expectation);
  EXPECT_EQ(serial.betas, parallel.betas);
  EXPECT_EQ(serial.gammas, parallel.gammas);
}

TEST(Ensemble, DeterministicAcrossThreadCounts) {
  set_num_threads(1);  // keep the inner kernels serial at both team sizes
  XMixer mixer = XMixer::transverse_field(6);
  InstanceFactory factory = [](Rng& rng) {
    Graph g = erdos_renyi(6, 0.5, rng);
    return tabulate(StateSpace::full(6),
                    [&g](state_t x) { return maxcut(g, x); });
  };

  EnsembleConfig config;
  config.instances = 4;
  config.max_rounds = 2;
  config.seed = 99;
  config.angle_options.hopping.hops = 2;

  config.threads = 1;
  const EnsembleResult serial = run_ensemble(mixer, factory, config);
  config.threads = 8;
  const EnsembleResult parallel = run_ensemble(mixer, factory, config);

  ASSERT_EQ(serial.ratios.size(), parallel.ratios.size());
  for (std::size_t i = 0; i < serial.ratios.size(); ++i) {
    ASSERT_EQ(serial.ratios[i].size(), parallel.ratios[i].size());
    for (std::size_t p = 0; p < serial.ratios[i].size(); ++p) {
      EXPECT_EQ(serial.ratios[i][p], parallel.ratios[i][p]);
    }
  }
  ASSERT_EQ(serial.per_round.size(), parallel.per_round.size());
  for (std::size_t p = 0; p < serial.per_round.size(); ++p) {
    EXPECT_EQ(serial.per_round[p].mean, parallel.per_round[p].mean);
  }
}

TEST(Ensemble, MedianTransferDeterministicAcrossThreadCounts) {
  set_num_threads(1);
  XMixer mixer = XMixer::transverse_field(6);
  InstanceFactory factory = [](Rng& rng) {
    Graph g = erdos_renyi(6, 0.5, rng);
    return tabulate(StateSpace::full(6),
                    [&g](state_t x) { return maxcut(g, x); });
  };

  EnsembleConfig config;
  config.instances = 3;
  config.seed = 7;

  config.threads = 1;
  const MedianTransferResult serial =
      median_angle_transfer(mixer, factory, 1, 4, config);
  config.threads = 8;
  const MedianTransferResult parallel =
      median_angle_transfer(mixer, factory, 1, 4, config);

  EXPECT_EQ(serial.median_packed, parallel.median_packed);
  EXPECT_EQ(serial.donor_ratios.mean, parallel.donor_ratios.mean);
  EXPECT_EQ(serial.transfer_ratios.mean, parallel.transfer_ratios.mean);
}

}  // namespace
}  // namespace fastqaoa
