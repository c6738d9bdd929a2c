// End-to-end integration tests: miniature versions of the paper's workflows
// run through the full public API — precompute, simulate, find angles,
// serialize — with quantitative success criteria.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "anglefind/strategies.hpp"
#include "common/rng.hpp"
#include "core/grover_fast.hpp"
#include "core/qaoa.hpp"
#include "io/serialize.hpp"
#include "mixers/eigen_mixer.hpp"
#include "mixers/grover_mixer.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"

namespace fastqaoa {
namespace {

FindAnglesOptions quick_options(std::uint64_t seed = 99) {
  FindAnglesOptions opt;
  opt.hopping.hops = 5;
  opt.hopping.local.max_iterations = 80;
  opt.seed = seed;
  return opt;
}

TEST(Integration, MaxCutTransverseFieldApproachesOptimum) {
  // Fig. 2 panel 1 in miniature: MaxCut + transverse field, ratio grows
  // with p and exceeds 0.9 by p=4 on a small instance.
  Rng rng(1);
  Graph g = erdos_renyi(8, 0.5, rng);
  dvec table = tabulate(StateSpace::full(8),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(8);
  auto schedules = find_angles(mixer, table, 4, quick_options());
  const double r1 = approximation_ratio(schedules[0].expectation, table);
  const double r4 = approximation_ratio(schedules[3].expectation, table);
  EXPECT_GT(r1, 0.6);
  EXPECT_GE(r4, r1 - 1e-6);
  EXPECT_GT(r4, 0.9);
}

TEST(Integration, DensestKSubgraphWithCliqueMixer) {
  // Fig. 2 panel 3 in miniature: constrained problem on the Dicke
  // subspace, Clique mixer, feasibility preserved throughout.
  Rng rng(2);
  Graph g = erdos_renyi(8, 0.5, rng);
  StateSpace space = StateSpace::dicke(8, 4);
  dvec table =
      tabulate(space, [&g](state_t x) { return densest_subgraph(g, x); });
  EigenMixer mixer = EigenMixer::clique(space);
  auto schedules = find_angles(mixer, table, 3, quick_options());
  const double r3 = approximation_ratio(schedules[2].expectation, table);
  EXPECT_GT(r3, 0.8);
}

TEST(Integration, KVertexCoverWithRingMixer) {
  Rng rng(3);
  Graph g = erdos_renyi(8, 0.5, rng);
  StateSpace space = StateSpace::dicke(8, 4);
  dvec table = tabulate(space, [&g](state_t x) { return vertex_cover(g, x); });
  EigenMixer mixer = EigenMixer::ring(space);
  // Seed picked for the per-round RNG streams introduced with crash-safe
  // resume (round p's draws are a pure function of (seed, p)).
  auto schedules = find_angles(mixer, table, 3, quick_options(13));
  EXPECT_GT(approximation_ratio(schedules[2].expectation, table), 0.8);
}

TEST(Integration, ThreeSatWithGroverMixer) {
  // Fig. 2 panel 2 in miniature: 3-SAT at clause density 6 with the Grover
  // mixer on the full space.
  Rng rng(4);
  CnfFormula f = random_ksat_density(8, 3, 6.0, rng);
  dvec table = tabulate(StateSpace::full(8),
                        [&f](state_t x) { return ksat(f, x); });
  GroverMixer mixer(256);
  auto schedules = find_angles(mixer, table, 3, quick_options());
  // Grover mixing amplifies slowly at small p (unstructured search); the
  // success criterion is clear improvement over the uniform state, plus
  // monotone progress in p.
  const double uniform_ratio =
      approximation_ratio(objective_stats(table).mean, table);
  const double r3 = approximation_ratio(schedules[2].expectation, table);
  EXPECT_GT(r3, uniform_ratio + 0.05);
  EXPECT_GE(r3, approximation_ratio(schedules[0].expectation, table) - 1e-6);
}

TEST(Integration, ThresholdQaoaReproducesGroverSearchExactly) {
  // §2.4: Grover mixer + threshold phase separator at (pi, pi) equals
  // Grover's algorithm. Cross-check compressed and full paths at n=10 with
  // a single marked state.
  const int n = 10;
  const index_t dim = index_t{1} << n;
  const state_t marked = 0b1011001011 & (dim - 1);
  dvec table(dim, 0.0);
  table[marked] = 1.0;

  GroverMixer mixer(dim);
  Qaoa full(mixer, table, 5);
  std::vector<double> betas(5, kPi);
  std::vector<double> gammas(5, kPi);
  full.run(betas, gammas);
  const double theta = std::asin(std::sqrt(1.0 / static_cast<double>(dim)));
  const double expected = std::pow(std::sin(11.0 * theta), 2);
  EXPECT_NEAR(full.ground_state_probability(), expected, 1e-10);

  GroverQaoa fast = grover_search_qaoa(static_cast<double>(dim), 1.0);
  std::vector<double> packed(10, kPi);
  fast.run_packed(packed);
  EXPECT_NEAR(fast.ground_state_probability(), expected, 1e-10);
}

TEST(Integration, ListingTwoWorkflowSaveAndReuseCliqueMixer) {
  // Listing 2: build the Clique mixer once, save it, reload it in a second
  // "session", and verify the reloaded mixer drives an identical QAOA.
  const auto path = std::filesystem::temp_directory_path() /
                    "fastqaoa_integration_clique.mix";
  std::filesystem::remove(path);

  Rng rng(5);
  Graph g = erdos_renyi(6, 0.5, rng);
  StateSpace space = StateSpace::dicke(6, 3);
  dvec table =
      tabulate(space, [&g](state_t x) { return densest_subgraph(g, x); });

  EigenMixer first = io::load_or_build_mixer(
      path.string(), [&space] { return EigenMixer::clique(space); });
  Qaoa engine1(first, table, 2);
  std::vector<double> angles = {0.3, 0.7, 0.5, 0.9};
  const double e1 = engine1.run_packed(angles);

  EigenMixer second = io::load_or_build_mixer(path.string(), [&space]() {
    ADD_FAILURE() << "cache hit expected — builder must not run";
    return EigenMixer::clique(space);
  });
  Qaoa engine2(second, table, 2);
  EXPECT_DOUBLE_EQ(engine2.run_packed(angles), e1);
  std::filesystem::remove(path);
}

TEST(Integration, MultiMixerScheduleBeatsNothing) {
  // Alternating transverse-field and Grover mixers across rounds runs end
  // to end and yields a valid expectation.
  Rng rng(6);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = tabulate(StateSpace::full(6),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer tf = XMixer::transverse_field(6);
  GroverMixer grover(64);
  Qaoa engine({&tf, &grover, &tf}, table);
  std::vector<double> betas = {0.3, 0.8, 0.2};
  std::vector<double> gammas = {0.5, 0.4, 0.9};
  const double e = engine.run(betas, gammas);
  const ObjectiveStats stats = objective_stats(table);
  EXPECT_GE(e, stats.min_value - 1e-9);
  EXPECT_LE(e, stats.max_value + 1e-9);
}

TEST(Integration, WarmStartChangesOutcome) {
  // Warm starts [11]: a biased initial state produces a different (here:
  // better at zero angles) expectation than the uniform default.
  Rng rng(7);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = tabulate(StateSpace::full(6),
                        [&g](state_t x) { return maxcut(g, x); });
  const ObjectiveStats stats = objective_stats(table);
  XMixer mixer = XMixer::transverse_field(6);

  Qaoa engine(mixer, table, 1);
  std::vector<double> angles = {0.2, 0.2};
  const double e_uniform = engine.run_packed(angles);

  // Concentrate the warm start on the best state.
  cvec warm(64, cplx{0.0, 0.0});
  warm[stats.argmax] = cplx{1.0, 0.0};
  engine.set_initial_state(warm);
  const double e_warm = engine.run_packed(angles);
  EXPECT_GT(e_warm, e_uniform);
}

TEST(Integration, MedianAnglesTransferAcrossInstances) {
  // The [22] workflow: learn angles on several instances, take medians,
  // apply to a held-out instance — should beat random angles on average.
  Rng rng(8);
  const int n = 6;
  XMixer mixer = XMixer::transverse_field(n);

  // Medians are taken over canonical representatives: the searches may
  // report the same optimum a β period apart or time-reversed.
  std::vector<std::vector<double>> angle_sets;
  AngleDomain domain;
  for (int inst = 0; inst < 4; ++inst) {
    Graph g = erdos_renyi(n, 0.5, rng);
    dvec table = tabulate(StateSpace::full(n),
                          [&g](state_t x) { return maxcut(g, x); });
    auto schedules =
        find_angles(mixer, table, 1, quick_options(55 + inst));
    angle_sets.push_back(schedules[0].packed());
    domain = angle_domain(mixer, table);
  }
  std::vector<double> med = median_angles(angle_sets, domain);

  Graph held_out = erdos_renyi(n, 0.5, rng);
  dvec table = tabulate(StateSpace::full(n), [&held_out](state_t x) {
    return maxcut(held_out, x);
  });
  const double e_median = evaluate_angles(mixer, table, med);
  // Random-angle baseline, averaged.
  double e_random = 0.0;
  const int draws = 20;
  for (int d = 0; d < draws; ++d) {
    std::vector<double> rnd = {rng.uniform(0.0, 2.0 * kPi),
                               rng.uniform(0.0, 2.0 * kPi)};
    e_random += evaluate_angles(mixer, table, rnd);
  }
  e_random /= draws;
  EXPECT_GT(e_median, e_random);
}

TEST(Integration, GradientProvidersReachSameMinimum) {
  // Fig. 5's premise: AD and FD gradients drive BFGS to the same local
  // minimum from the same start.
  Rng rng(9);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = tabulate(StateSpace::full(6),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(6);

  std::vector<double> x0 = {0.4, 0.6, 0.9, 1.2};
  Qaoa engine_ad(mixer, table, 2);
  QaoaObjective obj_ad(engine_ad, Direction::Maximize,
                       GradientProvider::Adjoint);
  OptResult res_ad = bfgs_minimize(obj_ad.as_grad_objective(), x0);

  Qaoa engine_fd(mixer, table, 2);
  QaoaObjective obj_fd(engine_fd, Direction::Maximize,
                       GradientProvider::CentralDiff);
  OptResult res_fd = bfgs_minimize(obj_fd.as_grad_objective(), x0);

  EXPECT_NEAR(res_ad.f, res_fd.f, 1e-6);
  // FD pays ~4p+1 engine evaluations per gradient; adjoint pays ~2.
  EXPECT_GT(obj_fd.evaluations(), 3 * obj_ad.evaluations());
}

}  // namespace
}  // namespace fastqaoa
