// The Z2 bit-flip fold of QaoaPlan: which plans fold, and the fold's
// contract. A folded plan agrees with the full route (the same plan given
// an explicit uniform initial state) within 1e-12 relative in <C> and the
// gradient, its full-space views match the full route's, it is
// bit-identical across thread counts and batch widths, and sampling it
// reproduces the exact distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "autodiff/adjoint.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "core/plan.hpp"
#include "core/qaoa.hpp"
#include "graphs/graph.hpp"
#include "linalg/vector_ops.hpp"
#include "mixers/grover_mixer.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"
#include "problems/weighted_maxcut.hpp"
#include "sampling/sampler.hpp"
#include "service/job.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"
#include "test_util.hpp"

namespace fastqaoa {
namespace {

dvec maxcut_table(const Graph& g) {
  return tabulate(StateSpace::full(g.num_vertices()),
                  [&g](state_t x) { return maxcut(g, x); });
}

/// The same plan on the full route: an explicit initial state declines the
/// fold, even when it is the uniform one.
QaoaPlan full_route(std::vector<MixerLayer> layers, const dvec& table) {
  QaoaPlanOptions options;
  options.initial_state = testutil::uniform_state(table.size());
  return QaoaPlan(std::move(layers), table, std::move(options));
}

std::vector<MixerLayer> repeat(const Mixer& m, int p) {
  return std::vector<MixerLayer>(static_cast<std::size_t>(p),
                                 MixerLayer{{&m}});
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_bits(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

TEST(Z2Fold, FoldsFlipInvariantXMixerPlansOnly) {
  Rng rng(7);
  const int n = 8;
  const dvec cut = maxcut_table(erdos_renyi(n, 0.5, rng));
  const XMixer tf = XMixer::transverse_field(n);

  const QaoaPlan plan(tf, cut, 2);
  EXPECT_TRUE(plan.folded());
  EXPECT_EQ(plan.dim(), index_t{256});
  EXPECT_EQ(plan.work_dim(), index_t{128});
  EXPECT_EQ(plan.initial_state().size(), index_t{256});

  // Weighted MaxCut, number partitioning and X-product mixers fold too.
  const Graph wg = weighted_erdos_renyi(n, 0.5, rng);
  const dvec wcut = tabulate(StateSpace::full(n),
                             [&wg](state_t x) { return maxcut(wg, x); });
  EXPECT_TRUE(QaoaPlan(tf, wcut, 1).folded());
  const std::vector<double> weights{3, 1, 4, 1, 5, 9, 2, 6};
  const dvec part = tabulate(StateSpace::full(n), [&weights](state_t x) {
    return number_partition(weights, x);
  });
  EXPECT_TRUE(QaoaPlan(tf, part, 1).folded());
  const XMixer xx = XMixer::from_orders(n, {1, 2});
  EXPECT_TRUE(QaoaPlan(xx, cut, 1).folded());

  // Declined: an explicit initial state, a table that is not flip
  // invariant, a phase table that is not, a non-X mixer, one qubit.
  EXPECT_FALSE(full_route(repeat(tf, 1), cut).folded());
  dvec skewed = cut;
  skewed[3] += 1.0;
  EXPECT_FALSE(QaoaPlan(tf, skewed, 1).folded());
  QaoaPlanOptions phase;
  phase.phase_values = skewed;
  EXPECT_FALSE(QaoaPlan(tf, cut, 1, std::move(phase)).folded());
  const GroverMixer grover(cut.size());
  EXPECT_FALSE(QaoaPlan(grover, cut, 1).folded());
  const XMixer one = XMixer::transverse_field(1);
  EXPECT_FALSE(QaoaPlan(one, dvec{1.0, 1.0}, 1).folded());
  // A declined plan works at the full length.
  EXPECT_EQ(QaoaPlan(tf, skewed, 1).work_dim(), index_t{256});
}

TEST(Z2Fold, FoldedMixerRemapsTheDiagonalLikeTheFoldedTerms) {
  // Weighted terms, some holding the top qubit: folding the terms
  // (top-qubit masks complemented) and re-summing must give exactly the
  // remapped diagonal XMixer::folded() builds.
  Rng rng(11);
  const int n = 7;
  const state_t full = (state_t{1} << n) - 1;
  const state_t top = state_t{1} << (n - 1);
  std::vector<PauliXTerm> terms;
  std::vector<PauliXTerm> folded_terms;
  for (int t = 0; t < 12; ++t) {
    const state_t mask = 1 + rng.bounded(full);
    const double w = rng.uniform(-1.0, 1.0);
    terms.push_back({mask, w});
    folded_terms.push_back({(mask & top) != 0 ? mask ^ full : mask, w});
  }
  const XMixer folded = XMixer(n, terms).folded();
  const XMixer by_terms(n - 1, folded_terms);
  EXPECT_EQ(folded.n(), n - 1);
  EXPECT_EQ(folded.terms(), folded_terms);
  ASSERT_EQ(folded.diagonal().size(), by_terms.diagonal().size());
  for (index_t y = 0; y < folded.diagonal().size(); ++y) {
    EXPECT_TRUE(same_bits(folded.diagonal()[y], by_terms.diagonal()[y]))
        << "y=" << y;
  }
}

struct Instance {
  const char* name;
  dvec table;
};

std::vector<Instance> instances(int n) {
  Rng rng(static_cast<std::uint64_t>(100 + n));
  std::vector<Instance> out;
  out.push_back({"maxcut-er", maxcut_table(erdos_renyi(n, 0.5, rng))});
  out.push_back({"maxcut-3reg", maxcut_table(random_regular(n, 3, rng))});
  const Graph wg = weighted_erdos_renyi(n, 0.5, rng);
  out.push_back({"wmaxcut", tabulate(StateSpace::full(n), [&wg](state_t x) {
                   return maxcut(wg, x);
                 })});
  // Integer weights, as the service's "partition" draws them; real weights
  // are covered by RealWeightedPartitionFolds.
  std::vector<double> weights;
  for (int i = 0; i < n; ++i) {
    weights.push_back(static_cast<double>(1 + rng.bounded(9)));
  }
  out.push_back({"partition",
                 tabulate(StateSpace::full(n), [&weights](state_t x) {
                   return number_partition(weights, x);
                 })});
  return out;
}

/// Relative distance of a from b, scaled by max(|b|, 1e-300).
double rel(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

TEST(Z2Fold, ValueAndGradientMatchTheFullRoute) {
  const int n = 12;
  const XMixer tf = XMixer::transverse_field(n);
  const XMixer xx = XMixer::from_orders(n, {2});
  // Schedules: one mixer every round, alternating mixers per round, and a
  // two-mixer (multi-angle) round.
  const std::vector<std::vector<MixerLayer>> schedules{
      repeat(tf, 3),
      {MixerLayer{{&tf}}, MixerLayer{{&xx}}, MixerLayer{{&tf}}},
      {MixerLayer{{&tf, &xx}}, MixerLayer{{&tf}}}};
  Rng rng(5);
  for (const Instance& inst : instances(n)) {
    for (const auto& layers : schedules) {
      const QaoaPlan folded(layers, inst.table);
      const QaoaPlan full = full_route(layers, inst.table);
      ASSERT_TRUE(folded.folded()) << inst.name;
      ASSERT_FALSE(full.folded());
      std::vector<double> betas(static_cast<std::size_t>(folded.num_betas()));
      std::vector<double> gammas(static_cast<std::size_t>(folded.rounds()));
      for (double& b : betas) b = rng.uniform(-1.0, 1.0);
      for (double& g : gammas) g = rng.uniform(-1.0, 1.0);

      EvalWorkspace wf;
      EvalWorkspace wu;
      std::vector<double> gbf(betas.size()), ggf(gammas.size());
      std::vector<double> gbu(betas.size()), ggu(gammas.size());
      const double ef =
          adjoint_value_and_gradient(folded, wf, betas, gammas, gbf, ggf);
      const double eu =
          adjoint_value_and_gradient(full, wu, betas, gammas, gbu, ggu);
      EXPECT_LE(rel(ef, eu), 1e-12) << inst.name << " " << ef << " vs " << eu;
      EXPECT_EQ(wf.psi.size(), folded.work_dim());
      double gscale = 0.0;
      for (const double g : gbu) gscale = std::max(gscale, std::abs(g));
      for (const double g : ggu) gscale = std::max(gscale, std::abs(g));
      for (std::size_t i = 0; i < betas.size(); ++i) {
        EXPECT_LE(std::abs(gbf[i] - gbu[i]), 1e-12 * gscale)
            << inst.name << " dbeta " << i;
      }
      for (std::size_t i = 0; i < gammas.size(); ++i) {
        EXPECT_LE(std::abs(ggf[i] - ggu[i]), 1e-12 * gscale)
            << inst.name << " dgamma " << i;
      }
      // The unfolded state is the full route's state.
      cvec psi;
      unfold_state(folded, wf.psi, psi);
      EXPECT_LT(testutil::max_diff(psi, wu.psi), 1e-12) << inst.name;
    }
  }
}

TEST(Z2Fold, RealWeightedPartitionFolds) {
  // number_partition sums +-w_i in a fixed order, so complementing x
  // negates the sum exactly and a real-weighted table passes the bitwise
  // flip check. The fold must agree with the full route, and the table
  // with the textbook |2 * selected - total|.
  const int n = 10;
  Rng rng(31);
  std::vector<double> weights(static_cast<std::size_t>(n));
  for (double& w : weights) w = rng.uniform(0.1, 10.0);
  const dvec table = tabulate(StateSpace::full(n), [&weights](state_t x) {
    return number_partition(weights, x);
  });
  double wscale = 0.0;
  for (const double w : weights) wscale += w;
  for (state_t x = 0; x < table.size(); ++x) {
    double selected = 0.0;
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      total += weights[static_cast<std::size_t>(i)];
      if (((x >> i) & 1) != 0) selected += weights[static_cast<std::size_t>(i)];
    }
    EXPECT_LE(std::abs(table[x] - std::abs(2.0 * selected - total)),
              1e-12 * wscale)
        << "x=" << x;
  }

  const XMixer tf = XMixer::transverse_field(n);
  const QaoaPlan folded(repeat(tf, 3), table);
  const QaoaPlan full = full_route(repeat(tf, 3), table);
  ASSERT_TRUE(folded.folded());
  ASSERT_FALSE(full.folded());
  const std::vector<double> betas{0.41, -0.27, 0.63};
  const std::vector<double> gammas{0.12, -0.35, 0.08};
  EvalWorkspace wf;
  EvalWorkspace wu;
  std::vector<double> gbf(3), ggf(3), gbu(3), ggu(3);
  const double ef =
      adjoint_value_and_gradient(folded, wf, betas, gammas, gbf, ggf);
  const double eu =
      adjoint_value_and_gradient(full, wu, betas, gammas, gbu, ggu);
  EXPECT_LE(rel(ef, eu), 1e-12) << ef << " vs " << eu;
  double gscale = 0.0;
  for (const double g : gbu) gscale = std::max(gscale, std::abs(g));
  for (const double g : ggu) gscale = std::max(gscale, std::abs(g));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LE(std::abs(gbf[i] - gbu[i]), 1e-12 * gscale) << "dbeta " << i;
    EXPECT_LE(std::abs(ggf[i] - ggu[i]), 1e-12 * gscale) << "dgamma " << i;
  }
}

TEST(Z2Fold, FacadeViewsMatchTheFullRoute) {
  Rng rng(19);
  const int n = 10;
  const dvec table = maxcut_table(erdos_renyi(n, 0.5, rng));
  const XMixer tf = XMixer::transverse_field(n);
  Qaoa folded(tf, table, 2);
  Qaoa full(full_route(repeat(tf, 2), table));
  ASSERT_TRUE(folded.plan().folded());
  ASSERT_FALSE(full.plan().folded());
  const std::vector<double> angles{0.31, -0.72, 0.58, 1.13};
  const double ef = folded.run_packed(angles);
  const double eu = full.run_packed(angles);
  EXPECT_LE(rel(ef, eu), 1e-12);

  ASSERT_EQ(folded.state().size(), table.size());
  EXPECT_LT(testutil::max_diff(folded.state(), full.state()), 1e-12);
  for (const index_t i : {index_t{0}, index_t{37}, index_t{600},
                          index_t{1023}}) {
    EXPECT_LT(std::abs(folded.amplitude(i) - full.amplitude(i)), 1e-12);
  }
  EXPECT_NEAR(folded.ground_state_probability(),
              full.ground_state_probability(), 1e-12);
  EXPECT_NEAR(folded.ground_state_probability(Direction::Minimize),
              full.ground_state_probability(Direction::Minimize), 1e-12);
  EXPECT_NEAR(folded.probability_of_value(table[5]),
              full.probability_of_value(table[5]), 1e-12);
  // An observable that is not flip invariant still sees the full state.
  dvec obs(table.size());
  for (double& v : obs) v = rng.uniform(-1.0, 1.0);
  EXPECT_NEAR(folded.expectation_of(obs), full.expectation_of(obs), 1e-12);
  EXPECT_LT(testutil::max_diff(folded.initial_state(),
                               testutil::uniform_state(table.size())),
            1e-15);

  const SimResult sf = simulate(angles, tf, table);
  const SimResult su =
      simulate(angles, tf, table, testutil::uniform_state(table.size()));
  EXPECT_LT(testutil::max_diff(sf.statevector, su.statevector), 1e-12);
  EXPECT_NEAR(sf.exp_value, su.exp_value, 1e-12 * std::abs(su.exp_value));
  EXPECT_NEAR(sf.ground_state_prob, su.ground_state_prob, 1e-12);
}

TEST(Z2Fold, FacadeConstViewsAreSafeToShareAcrossThreads) {
  // The const views read the folded state in place and write nothing, so
  // several threads may call them on one engine (run it under TSan to see
  // a data race if one ever writes).
  Rng rng(29);
  const int n = 10;
  const dvec table = maxcut_table(erdos_renyi(n, 0.5, rng));
  Qaoa engine(XMixer::transverse_field(n), table, 2);
  ASSERT_TRUE(engine.plan().folded());
  engine.run_packed(std::vector<double>{0.31, -0.72, 0.58, 1.13});
  dvec obs(table.size());
  for (double& v : obs) v = rng.uniform(-1.0, 1.0);
  const cvec want_state = engine.state();
  const double want_p = engine.ground_state_probability();
  const double want_e = engine.expectation_of(obs);

  std::vector<int> ok(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < ok.size(); ++t) {
    threads.emplace_back([&, t] {
      bool same = same_bits(engine.state(), want_state) &&
                  same_bits(engine.ground_state_probability(), want_p) &&
                  same_bits(engine.expectation_of(obs), want_e);
      for (index_t i = 0; i < table.size(); ++i) {
        same = same && engine.amplitude(i) == want_state[i];
      }
      ok[t] = same ? 1 : 0;
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < ok.size(); ++t) EXPECT_EQ(ok[t], 1) << t;
}

TEST(Z2Fold, BitIdenticalAcrossThreadCountsAndBatchWidths) {
  Rng rng(23);
  const int n = 15;  // work_dim 16384: the blocked WHT driver runs
  const dvec table = maxcut_table(erdos_renyi(n, 0.5, rng));
  const XMixer tf = XMixer::transverse_field(n);
  const QaoaPlan plan(tf, table, 3);
  ASSERT_TRUE(plan.folded());
  constexpr int kLanes = 5;
  std::vector<double> betas;
  std::vector<double> gammas;
  for (int l = 0; l < kLanes; ++l) {
    for (int k = 0; k < 3; ++k) {
      betas.push_back(rng.uniform(-1.0, 1.0));
      gammas.push_back(rng.uniform(-1.0, 1.0));
    }
  }
  const std::span<const double> b0(betas.data(), 3);
  const std::span<const double> g0(gammas.data(), 3);
  const int restore = num_threads();

  set_num_threads(1);
  EvalWorkspace ref_ws;
  const double ref = evaluate(plan, ref_ws, b0, g0);
  std::vector<double> ref_grad(6);
  adjoint_value_and_gradient(plan, ref_ws, b0, g0,
                             std::span(ref_grad).subspan(0, 3),
                             std::span(ref_grad).subspan(3, 3));
  for (const int threads : {2, 4}) {
    set_num_threads(threads);
    EvalWorkspace ws;
    EXPECT_TRUE(same_bits(evaluate(plan, ws, b0, g0), ref)) << threads;
    EXPECT_TRUE(same_bits(ws.psi, ref_ws.psi)) << threads;
    std::vector<double> grad(6);
    adjoint_value_and_gradient(plan, ws, b0, g0,
                               std::span(grad).subspan(0, 3),
                               std::span(grad).subspan(3, 3));
    for (std::size_t i = 0; i < grad.size(); ++i) {
      EXPECT_TRUE(same_bits(grad[i], ref_grad[i])) << threads << " " << i;
    }
  }
  set_num_threads(restore);

  // Every lane of a batch is a lone evaluate(), at any width.
  for (int width = 1; width <= kLanes; width += 2) {
    const auto w = static_cast<std::size_t>(width);
    std::vector<double> out(w);
    EvalWorkspace ws;
    evaluate_batch(plan, ws, std::span(betas).subspan(0, 3 * w),
                   std::span(gammas).subspan(0, 3 * w), out);
    for (std::size_t l = 0; l < w; ++l) {
      EvalWorkspace lone;
      const double e = evaluate(plan, lone, std::span(betas).subspan(3 * l, 3),
                                std::span(gammas).subspan(3 * l, 3));
      EXPECT_TRUE(same_bits(out[l], e)) << "width " << width << " lane " << l;
    }
  }
}

TEST(Z2Fold, SamplingAFoldedPlanMatchesTheExactDistribution) {
  // Sampling unfolds first and then runs the ordinary sampler, so shots of
  // a folded plan follow the full-space distribution. Fixed-seed chi^2
  // over all 2^10 outcomes (bins expected to hold fewer than 5 shots are
  // pooled) against |psi|^2 from the full route.
  Rng rng(29);
  const int n = 10;
  const dvec table = maxcut_table(erdos_renyi(n, 0.5, rng));
  const XMixer tf = XMixer::transverse_field(n);
  const QaoaPlan plan(tf, table, 2);
  const QaoaPlan full = full_route(repeat(tf, 2), table);
  ASSERT_TRUE(plan.folded());
  const std::vector<double> angles{0.4, -0.3, 0.9, 0.6};
  EvalWorkspace ws;
  EvalWorkspace wu;
  evaluate_packed(plan, ws, angles);
  evaluate_packed(full, wu, angles);

  cvec psi;
  unfold_state(plan, ws.psi, psi);
  const MeasurementSampler sampler(psi);
  constexpr std::uint64_t kShots = 200000;
  Rng shot_rng(31);
  const std::vector<std::uint64_t> counts =
      sampler.sample_counts(kShots, shot_rng);
  ASSERT_EQ(counts.size(), table.size());
  double chi2 = 0.0;
  double pooled_expected = 0.0;
  double pooled_observed = 0.0;
  int bins = 0;
  for (index_t i = 0; i < table.size(); ++i) {
    const double expected = std::norm(wu.psi[i]) * static_cast<double>(kShots);
    const auto observed = static_cast<double>(counts[i]);
    if (expected < 5.0) {
      pooled_expected += expected;
      pooled_observed += observed;
      continue;
    }
    chi2 += (observed - expected) * (observed - expected) / expected;
    ++bins;
  }
  if (pooled_expected > 0.0) {
    chi2 += (pooled_observed - pooled_expected) *
            (pooled_observed - pooled_expected) / pooled_expected;
    ++bins;
  }
  const double dof = bins - 1;
  EXPECT_LT(chi2, dof + 5.0 * std::sqrt(2.0 * dof))
      << "chi2 " << chi2 << " over " << bins << " bins";
}

TEST(Z2Fold, ServiceSampleJobOfAFoldedPlanEstimatesTheExpectation) {
  service::JobSpec spec;
  spec.kind = service::JobKind::Sample;
  spec.problem.n = 10;
  spec.p = 2;
  spec.betas = {0.4, -0.3};
  spec.gammas = {0.9, 0.6};
  spec.shots = 20000;
  service::Service svc;
  service::Service::SubmitOutcome outcome = svc.submit(spec);
  ASSERT_TRUE(outcome.accepted());
  service::Service::wait(*outcome.job);
  ASSERT_EQ(outcome.job->snapshot_state(), service::JobState::Done)
      << outcome.job->error;
  const service::JobResultData& r = outcome.job->result;

  // Reference: the same instance on the full route.
  const StateSpace space = service::problem_space(spec.problem);
  const dvec table = service::build_objective(spec.problem, space);
  const XMixer tf = XMixer::transverse_field(spec.problem.n);
  ASSERT_TRUE(QaoaPlan(tf, table, spec.p).folded());
  const QaoaPlan full = full_route(repeat(tf, spec.p), table);
  EvalWorkspace wu;
  const double exact = evaluate(full, wu, spec.betas, spec.gammas);
  EXPECT_LE(rel(r.expectation, exact), 1e-12);
  ASSERT_GT(r.shot_stderr, 0.0);
  EXPECT_LT(std::abs(r.shot_estimate - exact), 5.0 * r.shot_stderr);
}

}  // namespace
}  // namespace fastqaoa
