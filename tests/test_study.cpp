// Tests for the ensemble-study module (stats, run_ensemble, median-angle
// transfer) and multi-angle QAOA layers built from per-qubit X mixers.

#include <gtest/gtest.h>

#include <cmath>

#include "bits/bitops.hpp"
#include "core/qaoa.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"
#include "study/ensemble.hpp"

namespace fastqaoa {
namespace {

TEST(Stats, SampleStatsKnownValues) {
  SampleStats s = sample_stats({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
  EXPECT_EQ(s.count, 4u);
  EXPECT_THROW(sample_stats({}), Error);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW(median({}), Error);
}

InstanceFactory maxcut_factory(int n) {
  return [n](Rng& rng) {
    Graph g = erdos_renyi(n, 0.5, rng);
    return tabulate(StateSpace::full(n),
                    [&g](state_t x) { return maxcut(g, x); });
  };
}

TEST(Ensemble, RunProducesPerInstanceAndAggregateResults) {
  const int n = 6;
  XMixer mixer = XMixer::transverse_field(n);
  EnsembleConfig config;
  config.instances = 4;
  config.max_rounds = 2;
  config.angle_options.hopping.hops = 3;
  EnsembleResult result = run_ensemble(mixer, maxcut_factory(n), config);

  ASSERT_EQ(result.schedules.size(), 4u);
  ASSERT_EQ(result.ratios.size(), 4u);
  ASSERT_EQ(result.per_round.size(), 2u);
  for (const auto& inst : result.ratios) {
    ASSERT_EQ(inst.size(), 2u);
    for (const double r : inst) {
      EXPECT_GT(r, 0.4);
      EXPECT_LE(r, 1.0 + 1e-12);
    }
  }
  // Aggregates consistent with per-instance data.
  EXPECT_GE(result.per_round[1].mean, result.per_round[0].mean - 0.05);
  EXPECT_LE(result.per_round[0].min, result.per_round[0].mean);
  EXPECT_GE(result.per_round[0].max, result.per_round[0].mean);
  EXPECT_EQ(result.per_round[0].count, 4u);
}

TEST(Ensemble, ReproduciblePerSeed) {
  const int n = 5;
  XMixer mixer = XMixer::transverse_field(n);
  EnsembleConfig config;
  config.instances = 3;
  config.max_rounds = 1;
  config.seed = 77;
  config.angle_options.hopping.hops = 2;
  EnsembleResult a = run_ensemble(mixer, maxcut_factory(n), config);
  EnsembleResult b = run_ensemble(mixer, maxcut_factory(n), config);
  EXPECT_EQ(a.ratios, b.ratios);
}

TEST(Ensemble, DimensionMismatchThrows) {
  XMixer mixer = XMixer::transverse_field(4);
  EnsembleConfig config;
  config.instances = 1;
  EXPECT_THROW(run_ensemble(mixer, maxcut_factory(6), config), Error);
}

TEST(Ensemble, MedianTransferRatiosBelowDonors) {
  const int n = 6;
  XMixer mixer = XMixer::transverse_field(n);
  EnsembleConfig config;
  config.instances = 5;
  config.angle_options.hopping.local.max_iterations = 100;
  MedianTransferResult result =
      median_angle_transfer(mixer, maxcut_factory(n), 1, 10, config);
  ASSERT_EQ(result.median_packed.size(), 2u);
  // Transferred angles cannot beat per-instance optimization on average.
  EXPECT_LE(result.transfer_ratios.mean, result.donor_ratios.mean + 1e-9);
  EXPECT_GT(result.donor_ratios.mean, 0.6);
}

/// One single-qubit X mixer per qubit: the ma-QAOA decomposition (n betas
/// per round instead of one).
std::vector<XMixer> per_qubit_mixers(int n) {
  std::vector<XMixer> mixers;
  for (int q = 0; q < n; ++q) {
    mixers.emplace_back(n, std::vector<PauliXTerm>{{state_t{1} << q, 1.0}});
  }
  return mixers;
}

/// `rounds` identical layers, each holding every mixer of `mixers`.
std::vector<MixerLayer> layers_of(const std::vector<XMixer>& mixers,
                                  int rounds) {
  MixerLayer layer;
  for (const XMixer& m : mixers) layer.mixers.push_back(&m);
  return std::vector<MixerLayer>(static_cast<std::size_t>(rounds), layer);
}

TEST(MultiAngle, PerQubitMixersActIndependently) {
  const auto mixers = per_qubit_mixers(3);
  ASSERT_EQ(mixers.size(), 3u);
  // Mixer q is X on qubit q only: diagonal (+1 where bit q clear, -1 set).
  for (int q = 0; q < 3; ++q) {
    for (state_t z = 0; z < 8; ++z) {
      EXPECT_DOUBLE_EQ(mixers[static_cast<std::size_t>(q)].diagonal()[z],
                       bit(z, q) ? -1.0 : 1.0);
    }
  }
}

TEST(MultiAngle, RepeatedLayersMatchSingleMixerWhenAnglesEqual) {
  // ma-QAOA with all per-qubit betas equal must reduce to the standard
  // transverse-field QAOA (the per-qubit X terms commute).
  Rng rng(5);
  const int n = 5;
  Graph g = erdos_renyi(n, 0.5, rng);
  dvec table = tabulate(StateSpace::full(n),
                        [&g](state_t x) { return maxcut(g, x); });

  const auto mixers = per_qubit_mixers(n);
  Qaoa multi(layers_of(mixers, 2), table);
  EXPECT_EQ(multi.num_betas(), 2 * n);

  XMixer tf = XMixer::transverse_field(n);
  Qaoa single(tf, table, 2);

  const double beta1 = 0.4;
  const double beta2 = 0.9;
  std::vector<double> gammas = {0.7, 0.3};
  std::vector<double> single_betas = {beta1, beta2};
  std::vector<double> multi_betas(static_cast<std::size_t>(2 * n));
  for (int q = 0; q < n; ++q) {
    multi_betas[static_cast<std::size_t>(q)] = beta1;
    multi_betas[static_cast<std::size_t>(n + q)] = beta2;
  }
  EXPECT_NEAR(multi.run(multi_betas, gammas),
              single.run(single_betas, gammas), 1e-10);
}

TEST(MultiAngle, DistinctAnglesChangeTheState) {
  Rng rng(6);
  const int n = 4;
  Graph g = erdos_renyi(n, 0.6, rng);
  dvec table = tabulate(StateSpace::full(n),
                        [&g](state_t x) { return maxcut(g, x); });
  const auto mixers = per_qubit_mixers(n);
  Qaoa engine(layers_of(mixers, 1), table);
  std::vector<double> gammas = {0.8};
  std::vector<double> uniform_betas(4, 0.5);
  std::vector<double> varied_betas = {0.1, 0.9, 0.4, 1.3};
  const double e_uniform = engine.run(uniform_betas, gammas);
  const double e_varied = engine.run(varied_betas, gammas);
  EXPECT_GT(std::abs(e_uniform - e_varied), 1e-6);
}

}  // namespace
}  // namespace fastqaoa
