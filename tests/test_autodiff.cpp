// Unit tests for gradients: the adjoint reverse-mode path must match
// central finite differences across every mixer family, round count and
// phase-separator configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>

#include "autodiff/adjoint.hpp"
#include "autodiff/finite_diff.hpp"
#include "common/rng.hpp"
#include "core/qaoa.hpp"
#include "linalg/vector_ops.hpp"
#include "mixers/eigen_mixer.hpp"
#include "mixers/grover_mixer.hpp"
#include "mixers/x_mixer.hpp"
#include "obs/metrics.hpp"
#include "problems/cost_functions.hpp"
#include "sat/cnf.hpp"

namespace fastqaoa {
namespace {

/// Compare adjoint and central-FD gradients at random angles.
void expect_gradients_match(Qaoa& engine, Rng& rng, double tol = 1e-5) {
  const std::size_t nb = static_cast<std::size_t>(engine.num_betas());
  const std::size_t ng = static_cast<std::size_t>(engine.num_gammas());
  std::vector<double> betas(nb);
  std::vector<double> gammas(ng);
  for (auto& a : betas) a = rng.uniform(0.0, 2.0 * kPi);
  for (auto& a : gammas) a = rng.uniform(0.0, 2.0 * kPi);

  std::vector<double> gb_adj(nb), gg_adj(ng), gb_fd(nb), gg_fd(ng);
  AdjointDifferentiator adjoint(engine);
  const double value_adj =
      adjoint.value_and_gradient(betas, gammas, gb_adj, gg_adj);
  FiniteDiffDifferentiator fd(engine, FdScheme::Central, 1e-6);
  const double value_fd = fd.value_and_gradient(betas, gammas, gb_fd, gg_fd);

  EXPECT_NEAR(value_adj, value_fd, 1e-10);
  for (std::size_t i = 0; i < nb; ++i) {
    EXPECT_NEAR(gb_adj[i], gb_fd[i], tol) << "beta[" << i << "]";
  }
  for (std::size_t i = 0; i < ng; ++i) {
    EXPECT_NEAR(gg_adj[i], gg_fd[i], tol) << "gamma[" << i << "]";
  }
}

TEST(Adjoint, MatchesFdTransverseFieldMaxCut) {
  Rng rng(1);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = tabulate(StateSpace::full(6),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(6);
  for (const int p : {1, 2, 4}) {
    Qaoa engine(mixer, table, p);
    expect_gradients_match(engine, rng);
  }
}

TEST(Adjoint, MatchesFdGroverMixer) {
  Rng rng(2);
  Graph g = erdos_renyi(5, 0.6, rng);
  dvec table = tabulate(StateSpace::full(5),
                        [&g](state_t x) { return maxcut(g, x); });
  GroverMixer mixer(32);
  Qaoa engine(mixer, table, 3);
  expect_gradients_match(engine, rng);
}

TEST(Adjoint, MatchesFdCliqueMixerConstrained) {
  Rng rng(3);
  Graph g = erdos_renyi(6, 0.5, rng);
  StateSpace space = StateSpace::dicke(6, 3);
  dvec table =
      tabulate(space, [&g](state_t x) { return densest_subgraph(g, x); });
  EigenMixer mixer = EigenMixer::clique(space);
  Qaoa engine(mixer, table, 2);
  expect_gradients_match(engine, rng);
}

TEST(Adjoint, MatchesFdRingMixer) {
  Rng rng(4);
  Graph g = erdos_renyi(6, 0.5, rng);
  StateSpace space = StateSpace::dicke(6, 2);
  dvec table = tabulate(space, [&g](state_t x) { return vertex_cover(g, x); });
  EigenMixer mixer = EigenMixer::ring(space);
  Qaoa engine(mixer, table, 3);
  expect_gradients_match(engine, rng);
}

TEST(Adjoint, MatchesFdWithThresholdPhase) {
  Rng rng(5);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = tabulate(StateSpace::full(5),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(5);
  Qaoa engine(mixer, table, 2);
  engine.set_phase_values(threshold_indicator(table, 2.5));
  expect_gradients_match(engine, rng);
}

TEST(Adjoint, MatchesFdMultiAngleLayers) {
  Rng rng(6);
  Graph g = erdos_renyi(4, 0.6, rng);
  dvec table = tabulate(StateSpace::full(4),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer x1(4, {{0b0011, 1.0}});
  XMixer x2(4, {{0b1100, 1.0}});
  std::vector<MixerLayer> layers = {MixerLayer{{&x1, &x2}},
                                    MixerLayer{{&x2, &x1}}};
  Qaoa engine(layers, table);
  expect_gradients_match(engine, rng);
}

TEST(Adjoint, MatchesFdWithWarmStart) {
  Rng rng(7);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = tabulate(StateSpace::full(5),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(5);
  Qaoa engine(mixer, table, 2);
  cvec warm(32);
  double ns = 0.0;
  for (auto& a : warm) {
    a = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    ns += std::norm(a);
  }
  for (auto& a : warm) a /= std::sqrt(ns);
  engine.set_initial_state(warm);
  expect_gradients_match(engine, rng);
}

TEST(Adjoint, GradientVanishesAtCriticalPoint) {
  // Single edge: the optimum (pi/8, pi/2) is a stationary point.
  Graph g(2, {{0, 1}});
  dvec table = tabulate(StateSpace::full(2),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(2);
  Qaoa engine(mixer, table, 1);
  AdjointDifferentiator adjoint(engine);
  std::vector<double> betas = {kPi / 8.0};
  std::vector<double> gammas = {kPi / 2.0};
  std::vector<double> gb(1), gg(1);
  const double e = adjoint.value_and_gradient(betas, gammas, gb, gg);
  EXPECT_NEAR(e, 1.0, 1e-12);
  EXPECT_NEAR(gb[0], 0.0, 1e-10);
  EXPECT_NEAR(gg[0], 0.0, 1e-10);
}

TEST(Adjoint, PackedLayoutAgreesWithSplit) {
  Rng rng(8);
  Graph g = erdos_renyi(4, 0.5, rng);
  dvec table = tabulate(StateSpace::full(4),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(4);
  Qaoa engine(mixer, table, 2);
  AdjointDifferentiator adjoint(engine);

  std::vector<double> packed = {0.2, 0.5, 0.9, 1.4};
  std::vector<double> grad_packed(4);
  const double v1 = adjoint.value_and_gradient_packed(packed, grad_packed);

  std::vector<double> gb(2), gg(2);
  std::vector<double> betas = {0.2, 0.5};
  std::vector<double> gammas = {0.9, 1.4};
  const double v2 = adjoint.value_and_gradient(betas, gammas, gb, gg);
  EXPECT_NEAR(v1, v2, 1e-13);
  EXPECT_NEAR(grad_packed[0], gb[0], 1e-13);
  EXPECT_NEAR(grad_packed[1], gb[1], 1e-13);
  EXPECT_NEAR(grad_packed[2], gg[0], 1e-13);
  EXPECT_NEAR(grad_packed[3], gg[1], 1e-13);
}

/// adjoint_value_and_gradient's sweep with every step forced through the
/// base-class composition Mixer::adjoint_step (apply_ham + apply_exp),
/// whatever the mixer overrides.
double generic_value_and_gradient(const QaoaPlan& plan, EvalWorkspace& ws,
                                  std::span<const double> betas,
                                  std::span<const double> gammas,
                                  std::span<double> grad_betas,
                                  std::span<double> grad_gammas) {
  obs::SinkScope metrics_scope(ws.metrics);
  const double value = evaluate(plan, ws, betas, gammas);
  cvec psi = ws.psi;
  cvec lambda = ws.psi;
  linalg::diag_mul(lambda, plan.work_objective(), 1.0);
  cvec hpsi;
  const dvec& phase = plan.work_phase_values();
  const auto& layers = plan.work_layers();
  std::size_t beta_index = betas.size();
  const dvec* pending = nullptr;
  double pending_gamma = 0.0;
  for (std::size_t k = layers.size(); k-- > 0;) {
    for (std::size_t j = layers[k].mixers.size(); j-- > 0;) {
      --beta_index;
      grad_betas[beta_index] = layers[k].mixers[j]->Mixer::adjoint_step(
          psi, lambda, pending, &plan.phase_dict(), pending_gamma,
          betas[beta_index], ws.scratch, hpsi);
      pending = nullptr;
    }
    grad_gammas[k] = 2.0 * linalg::diag_bracket_imag(lambda, phase, psi);
    pending = &phase;
    pending_gamma = gammas[k];
  }
  return value;
}

std::uint64_t wht_count(const EvalWorkspace& ws) {
  const obs::MetricsSnapshot snap = ws.metrics.snapshot();
  const auto it = snap.histograms.find("linalg.wht.seconds");
  return it == snap.histograms.end() ? 0 : it->second.count;
}

TEST(Adjoint, XMixerFrameStepMatchesGenericStep) {
  // XMixer::adjoint_step does the reverse sweep in the Hadamard frame. It
  // must reproduce the generic composition to rounding, on folded and
  // unfolded plans, with threshold phases, warm starts and multi-mixer
  // layers, while paying 4 WHT passes per mixer step instead of 6.
  ASSERT_TRUE(obs::metrics_enabled());
  Rng rng(12);
  const int n = 8;
  const Graph g = erdos_renyi(n, 0.5, rng);
  const dvec cut = tabulate(StateSpace::full(n),
                            [&g](state_t x) { return maxcut(g, x); });
  const CnfFormula formula = random_ksat(n, 3, 20, rng);
  const dvec sat = tabulate(StateSpace::full(n), [&formula](state_t x) {
    return ksat(formula, x);
  });
  const XMixer tf = XMixer::transverse_field(n);
  const XMixer xx = XMixer::from_orders(n, {2});
  const XMixer pair(n, {{0b00000011, 0.7}, {0b11000000, -1.3}});
  const GroverMixer grover(cut.size());
  cvec warm(cut.size());
  double norm_sq = 0.0;
  for (auto& a : warm) {
    a = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    norm_sq += std::norm(a);
  }
  for (auto& a : warm) a /= std::sqrt(norm_sq);

  struct Case {
    std::string name;
    QaoaPlan plan;
    bool all_x;  // every mixer an XMixer: the WHT count is exact
  };
  auto repeat = [](const Mixer& m, int p) {
    return std::vector<MixerLayer>(static_cast<std::size_t>(p),
                                   MixerLayer{{&m}});
  };
  for (int p = 1; p <= 5; ++p) {
    std::vector<Case> cases;
    cases.push_back({"maxcut-folded", QaoaPlan(tf, cut, p), true});
    cases.push_back({"ksat-unfolded", QaoaPlan(tf, sat, p), true});
    QaoaPlanOptions threshold;
    threshold.phase_values = threshold_indicator(sat, 15.5);
    cases.push_back(
        {"ksat-threshold", QaoaPlan(tf, sat, p, std::move(threshold)), true});
    QaoaPlanOptions warm_start;
    warm_start.initial_state = warm;
    cases.push_back(
        {"maxcut-warm", QaoaPlan(xx, cut, p, std::move(warm_start)), true});
    std::vector<MixerLayer> multi = repeat(tf, p);
    multi.front().mixers.push_back(&pair);
    multi.back().mixers.insert(multi.back().mixers.begin(), &xx);
    cases.push_back({"multi-mixer-folded", QaoaPlan(multi, cut), true});
    cases.push_back({"multi-mixer-ksat", QaoaPlan(multi, sat), true});
    std::vector<MixerLayer> mixed = repeat(tf, p);
    mixed.back().mixers.push_back(&grover);
    cases.push_back({"x-and-grover", QaoaPlan(mixed, sat), false});
    EXPECT_TRUE(cases[0].plan.folded());
    EXPECT_FALSE(cases[1].plan.folded());
    EXPECT_TRUE(cases[4].plan.folded());

    for (const Case& c : cases) {
      SCOPED_TRACE(c.name + " p=" + std::to_string(p));
      const std::size_t nb = static_cast<std::size_t>(c.plan.num_betas());
      const std::size_t ng = static_cast<std::size_t>(c.plan.num_gammas());
      std::vector<double> betas(nb);
      std::vector<double> gammas(ng);
      for (auto& a : betas) a = rng.uniform(-kPi, kPi);
      for (auto& a : gammas) a = rng.uniform(-kPi, kPi);

      std::vector<double> gb(nb), gg(ng), gb_ref(nb), gg_ref(ng);
      EvalWorkspace ws;
      const double value =
          adjoint_value_and_gradient(c.plan, ws, betas, gammas, gb, gg);
      EvalWorkspace ref_ws;
      const double ref_value = generic_value_and_gradient(
          c.plan, ref_ws, betas, gammas, gb_ref, gg_ref);
      EvalWorkspace eval_ws;
      const double evaluated = evaluate(c.plan, eval_ws, betas, gammas);
      EXPECT_EQ(std::memcmp(&value, &evaluated, sizeof(double)), 0)
          << value << " vs " << evaluated;
      EXPECT_EQ(std::memcmp(&ref_value, &evaluated, sizeof(double)), 0);

      double scale = 0.0;
      for (const double v : gb_ref) scale = std::max(scale, std::abs(v));
      for (const double v : gg_ref) scale = std::max(scale, std::abs(v));
      ASSERT_GT(scale, 1e-6);
      for (std::size_t i = 0; i < nb; ++i) {
        EXPECT_LE(std::abs(gb[i] - gb_ref[i]), 1e-12 * scale)
            << "beta[" << i << "] " << gb[i] << " vs " << gb_ref[i];
      }
      for (std::size_t i = 0; i < ng; ++i) {
        EXPECT_LE(std::abs(gg[i] - gg_ref[i]), 1e-12 * scale)
            << "gamma[" << i << "] " << gg[i] << " vs " << gg_ref[i];
      }
      if (c.all_x) {
        // Forward: 2 passes per mixer. Reverse: 4 in the frame, 6 through
        // apply_ham + 2 apply_exp.
        EXPECT_EQ(wht_count(ws), 6 * nb);
        EXPECT_EQ(wht_count(ref_ws), 8 * nb);
      }
    }
  }
}

TEST(FiniteDiff, ForwardSchemeRoughlyMatchesCentral) {
  Rng rng(9);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = tabulate(StateSpace::full(5),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(5);
  Qaoa engine(mixer, table, 2);
  std::vector<double> betas = {0.3, 0.8};
  std::vector<double> gammas = {0.6, 1.1};
  std::vector<double> gb_c(2), gg_c(2), gb_f(2), gg_f(2);
  FiniteDiffDifferentiator central(engine, FdScheme::Central, 1e-6);
  FiniteDiffDifferentiator forward(engine, FdScheme::Forward, 1e-7);
  central.value_and_gradient(betas, gammas, gb_c, gg_c);
  forward.value_and_gradient(betas, gammas, gb_f, gg_f);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(gb_c[static_cast<std::size_t>(i)],
                gb_f[static_cast<std::size_t>(i)], 1e-4);
    EXPECT_NEAR(gg_c[static_cast<std::size_t>(i)],
                gg_f[static_cast<std::size_t>(i)], 1e-4);
  }
}

TEST(FiniteDiff, EvaluationCountScalesWithP) {
  // The Fig. 5 bookkeeping: central FD costs 1 + 2*(2p) evaluations per
  // gradient; the adjoint path is O(1).
  Rng rng(10);
  Graph g = erdos_renyi(4, 0.5, rng);
  dvec table = tabulate(StateSpace::full(4),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(4);
  for (const int p : {1, 3, 6}) {
    Qaoa engine(mixer, table, p);
    FiniteDiffDifferentiator fd(engine, FdScheme::Central);
    std::vector<double> betas(static_cast<std::size_t>(p), 0.3);
    std::vector<double> gammas(static_cast<std::size_t>(p), 0.7);
    std::vector<double> gb(betas.size()), gg(gammas.size());
    fd.value_and_gradient(betas, gammas, gb, gg);
    EXPECT_EQ(fd.evaluations(), static_cast<std::size_t>(1 + 4 * p));
  }
}

TEST(FiniteDiff, GradSpanValidation) {
  dvec table(4, 0.0);
  table[1] = 1.0;
  XMixer mixer = XMixer::transverse_field(2);
  Qaoa engine(mixer, table, 1);
  FiniteDiffDifferentiator fd(engine);
  std::vector<double> b(1, 0.1), g(1, 0.1), wrong(2);
  EXPECT_THROW(fd.value_and_gradient(b, g, wrong, g), Error);
  EXPECT_THROW(FiniteDiffDifferentiator(engine, FdScheme::Central, -1.0),
               Error);
}

}  // namespace
}  // namespace fastqaoa
