// Tests for the angle-finding strategies: INTERP extrapolation, iterative
// find_angles with checkpoint/resume, random restarts, median angles.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "anglefind/strategies.hpp"
#include "common/rng.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"

namespace fastqaoa {
namespace {

class TempDir {
 public:
  TempDir() {
    // gtest_discover_tests runs every TEST in its own process, so a bare
    // counter restarts at 0 each time and concurrent ctest jobs would
    // collide on (and remove_all!) the same directory — key by pid too.
    dir_ = std::filesystem::temp_directory_path() /
           ("fastqaoa_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

dvec maxcut_table(const Graph& g) {
  return tabulate(StateSpace::full(g.num_vertices()),
                  [&g](state_t x) { return maxcut(g, x); });
}

FindAnglesOptions quick_options() {
  FindAnglesOptions opt;
  opt.hopping.hops = 4;
  opt.hopping.local.max_iterations = 60;
  opt.seed = 1234;
  return opt;
}

TEST(Interp, LengthOneRepeats) {
  std::vector<double> next = interp_extrapolate({0.7});
  ASSERT_EQ(next.size(), 2u);
  EXPECT_DOUBLE_EQ(next[0], 0.7);
  EXPECT_DOUBLE_EQ(next[1], 0.7);
}

TEST(Interp, PreservesEndpointsAndMonotonicity) {
  std::vector<double> prev = {0.1, 0.3, 0.5, 0.9};
  std::vector<double> next = interp_extrapolate(prev);
  ASSERT_EQ(next.size(), 5u);
  EXPECT_DOUBLE_EQ(next.front(), 0.1);
  EXPECT_DOUBLE_EQ(next.back(), 0.9);
  for (std::size_t i = 0; i + 1 < next.size(); ++i) {
    EXPECT_LE(next[i], next[i + 1] + 1e-12);
  }
}

TEST(Interp, LinearProfileResampledExactly) {
  // A linear ramp stays a linear ramp under INTERP.
  std::vector<double> prev = {0.0, 1.0, 2.0};
  std::vector<double> next = interp_extrapolate(prev);
  ASSERT_EQ(next.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(next[i], 2.0 * static_cast<double>(i) / 3.0, 1e-12);
  }
}

TEST(Interp, EmptyThrows) {
  EXPECT_THROW(interp_extrapolate({}), Error);
}

TEST(FindAngles, ExpectationImprovesWithRounds) {
  Rng rng(42);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(6);

  auto schedules = find_angles(mixer, table, 3, quick_options());
  ASSERT_EQ(schedules.size(), 3u);
  const double best = objective_stats(table).max_value;
  const double mean = objective_stats(table).mean;
  for (int p = 0; p < 3; ++p) {
    const auto& s = schedules[static_cast<std::size_t>(p)];
    EXPECT_EQ(s.p, p + 1);
    EXPECT_EQ(s.betas.size(), static_cast<std::size_t>(p + 1));
    EXPECT_EQ(s.gammas.size(), static_cast<std::size_t>(p + 1));
    EXPECT_GT(s.expectation, mean);  // beats random guessing
    EXPECT_LE(s.expectation, best + 1e-9);
    if (p > 0) {
      // Monotone non-decreasing (within optimizer noise): p rounds can
      // always reproduce p-1 rounds by zeroing the extra angles, and the
      // INTERP seed starts from the previous optimum.
      EXPECT_GE(s.expectation,
                schedules[static_cast<std::size_t>(p - 1)].expectation - 0.05);
    }
  }
}

TEST(FindAngles, ReproducesExactSingleEdgeOptimum) {
  Graph g(2, {{0, 1}});
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(2);
  auto schedules = find_angles(mixer, table, 1, quick_options());
  EXPECT_NEAR(schedules[0].expectation, 1.0, 1e-6);
}

TEST(FindAngles, MinimizeDirection) {
  Rng rng(3);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(5);
  FindAnglesOptions opt = quick_options();
  opt.direction = Direction::Minimize;
  auto schedules = find_angles(mixer, table, 1, opt);
  // Minimizing cut: should get below the mean.
  EXPECT_LT(schedules[0].expectation, objective_stats(table).mean);
}

TEST(FindAngles, CheckpointRoundTrip) {
  TempDir tmp;
  std::vector<AngleSchedule> schedules(2);
  schedules[0] = {1, {0.1}, {0.2}, 3.5};
  schedules[1] = {2, {0.1, 0.3}, {0.2, 0.4}, 4.25};
  const std::string path = tmp.path("angles.txt");
  save_checkpoint(path, schedules);
  auto loaded = load_checkpoint(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].p, 2);
  EXPECT_DOUBLE_EQ(loaded[1].expectation, 4.25);
  EXPECT_EQ(loaded[0].betas, schedules[0].betas);
  EXPECT_EQ(loaded[1].gammas, schedules[1].gammas);
}

TEST(FindAngles, ResumeFromCheckpointSkipsCompletedRounds) {
  TempDir tmp;
  Rng rng(4);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(5);

  FindAnglesOptions opt = quick_options();
  opt.checkpoint_file = tmp.path("resume.txt");

  auto first = find_angles(mixer, table, 2, opt);
  ASSERT_EQ(first.size(), 2u);
  // Resume to p=4: rounds 1-2 must be bit-identical (loaded, not re-run).
  auto resumed = find_angles(mixer, table, 4, opt);
  ASSERT_EQ(resumed.size(), 4u);
  EXPECT_EQ(resumed[0].betas, first[0].betas);
  EXPECT_EQ(resumed[1].gammas, first[1].gammas);
  EXPECT_DOUBLE_EQ(resumed[1].expectation, first[1].expectation);
  // And the file now holds all four rounds.
  EXPECT_EQ(load_checkpoint(opt.checkpoint_file).size(), 4u);
}

TEST(FindAngles, CorruptCheckpointFailsLoudly) {
  TempDir tmp;
  const std::string path = tmp.path("corrupt.txt");
  std::ofstream(path) << "not a checkpoint\n";
  EXPECT_THROW(load_checkpoint(path), Error);
  EXPECT_THROW(load_checkpoint(tmp.path("missing.txt")), Error);
}

TEST(FindAnglesAt, RefinesGivenInitialAngles) {
  Graph g(2, {{0, 1}});
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(2);
  // Start near the optimum (pi/8, pi/2); basinhopping should lock it in.
  AngleSchedule s = find_angles_at(mixer, table, 1, {0.3, 1.4},
                                   quick_options());
  EXPECT_NEAR(s.expectation, 1.0, 1e-6);
  EXPECT_THROW(find_angles_at(mixer, table, 2, {0.3, 1.4}, quick_options()),
               Error);
}

TEST(FindAnglesRandom, FindsGoodAnglesWithEnoughRestarts) {
  Rng rng(5);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(5);
  FindAnglesOptions opt = quick_options();
  AngleSchedule s = find_angles_random(mixer, table, 1, 20, opt);
  EXPECT_EQ(s.p, 1);
  EXPECT_GT(approximation_ratio(s.expectation, table), 0.55);
}

TEST(MedianAngles, CoordinateWiseMedian) {
  std::vector<std::vector<double>> sets = {
      {1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  std::vector<double> med = median_angles(sets);
  ASSERT_EQ(med.size(), 2u);
  EXPECT_DOUBLE_EQ(med[0], 2.0);
  EXPECT_DOUBLE_EQ(med[1], 20.0);
  // Even count: average of the middle two.
  sets.push_back({4.0, 40.0});
  med = median_angles(sets);
  EXPECT_DOUBLE_EQ(med[0], 2.5);
  EXPECT_DOUBLE_EQ(med[1], 25.0);
}

TEST(MedianAngles, EquivalentOptimaGiveTheSameMedian) {
  // MaxCut under the transverse field: integer and flip-invariant, so the
  // energy has period pi/2 in every beta and 2 pi in every gamma, and is
  // invariant under time reversal. Copies of the base sets moved by
  // periods or reversed must give a bit-equal median. The angles are
  // dyadic and the shifts power-of-two multiples of the periods, so every
  // shifted angle is exact and wraps back to the base bits.
  Rng rng(12);
  const Graph g = erdos_renyi(6, 0.5, rng);
  const dvec table = maxcut_table(g);
  const XMixer mixer = XMixer::transverse_field(6);
  const AngleDomain domain = angle_domain(mixer, table);
  const double pb = 0.5 * kPi;
  const double pg = 2.0 * kPi;
  EXPECT_EQ(domain.beta_period, pb);
  EXPECT_EQ(domain.gamma_period, pg);

  // Packed [beta1, beta2, gamma1, gamma2], betas in [0, pi/2), first gamma
  // in (0, pi), second gamma in [0, 2 pi).
  const std::vector<std::vector<double>> base = {{0.375, 1.25, 0.5, 2.75},
                                                 {0.625, 0.125, 1.5, 0.25},
                                                 {1.125, 0.75, 2.25, 4.5},
                                                 {0.25, 1.5, 3.0, 1.0}};
  const std::vector<std::vector<double>> moved = {
      {0.375 + pb, 1.25 - pb, 0.5 + pg, 2.75 - pg},
      {-0.625, -0.125, -1.5, -0.25},
      {-1.125 + 2.0 * pb, -0.75 + pb, -2.25 + pg, -4.5 + 2.0 * pg},
      {0.25 + 4.0 * pb, 1.5, 3.0 + 2.0 * pg, 1.0}};
  for (std::size_t s = 0; s < base.size(); ++s) {
    const double e = evaluate_angles(mixer, table, base[s]);
    EXPECT_NEAR(evaluate_angles(mixer, table, moved[s]), e, 1e-12) << s;
  }
  const std::vector<double> want = median_angles(base, domain);
  const std::vector<double> got = median_angles(moved, domain);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(double)),
            0);
  // The base sets are already canonical: the domain form agrees with the
  // raw median on them.
  EXPECT_EQ(want, median_angles(base));

  // Domains the conditions do not grant.
  dvec biased = table;
  biased[0] += 1.0;  // no longer flip-invariant
  EXPECT_EQ(angle_domain(mixer, biased).beta_period, kPi);
  dvec halves = table;
  for (double& v : halves) v += 0.5;
  EXPECT_EQ(angle_domain(mixer, halves).gamma_period, 0.0);
  const XMixer pairs = XMixer::from_orders(6, {2});
  EXPECT_EQ(angle_domain(pairs, table).beta_period, 0.0);
  EXPECT_THROW(median_angles({{1.0, 2.0, 3.0}}, domain), Error);
}

TEST(MedianAngles, ValidatesInput) {
  EXPECT_THROW(median_angles({}), Error);
  EXPECT_THROW(median_angles({{1.0}, {1.0, 2.0}}), Error);
}

TEST(EvaluateAngles, MatchesEngineRun) {
  Rng rng(6);
  Graph g = erdos_renyi(4, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(4);
  std::vector<double> packed = {0.3, 0.5, 0.7, 0.9};
  Qaoa engine(mixer, table, 2);
  EXPECT_NEAR(evaluate_angles(mixer, table, packed),
              engine.run_packed(packed), 1e-13);
}

TEST(TqaInit, LinearRampShape) {
  std::vector<double> packed = tqa_initial_angles(4, 0.8);
  ASSERT_EQ(packed.size(), 8u);
  // Betas ramp down, gammas ramp up, symmetric about dt/2.
  for (int i = 0; i + 1 < 4; ++i) {
    EXPECT_GT(packed[static_cast<std::size_t>(i)],
              packed[static_cast<std::size_t>(i + 1)]);
    EXPECT_LT(packed[static_cast<std::size_t>(4 + i)],
              packed[static_cast<std::size_t>(4 + i + 1)]);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(packed[static_cast<std::size_t>(i)] +
                    packed[static_cast<std::size_t>(4 + i)],
                0.8, 1e-12);
  }
  EXPECT_THROW(tqa_initial_angles(0), Error);
  EXPECT_THROW(tqa_initial_angles(2, -1.0), Error);
}

TEST(TqaInit, BeatsRandomAnglesOnAverage) {
  // The annealing-inspired seed should outperform typical random angles
  // without any optimization at all.
  Rng rng(31);
  Graph g = erdos_renyi(8, 0.5, rng);
  dvec table = tabulate(StateSpace::full(8),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(8);
  const int p = 4;
  const double e_tqa =
      evaluate_angles(mixer, table, tqa_initial_angles(p));
  double e_random = 0.0;
  const int draws = 25;
  for (int d = 0; d < draws; ++d) {
    std::vector<double> rnd(static_cast<std::size_t>(2 * p));
    for (auto& a : rnd) a = rng.uniform(0.0, 2.0 * kPi);
    e_random += evaluate_angles(mixer, table, rnd);
  }
  EXPECT_GT(e_tqa, e_random / draws);
}

TEST(AngleSchedule, PackedLayout) {
  AngleSchedule s{2, {0.1, 0.2}, {0.3, 0.4}, 0.0};
  std::vector<double> packed = s.packed();
  ASSERT_EQ(packed.size(), 4u);
  EXPECT_DOUBLE_EQ(packed[0], 0.1);
  EXPECT_DOUBLE_EQ(packed[3], 0.4);
}

}  // namespace
}  // namespace fastqaoa
