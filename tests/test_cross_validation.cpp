// Cross-validation fuzz tests: independent implementations of the same
// mathematical object must agree on random inputs. Three XY-mixer paths
// (dense eigendecomposition, matrix-free Chebyshev, fine-step Trotter),
// two X-mixer construction paths, two sampling determinism guarantees, and
// the closed-form p = 1 MaxCut expectation against both exact-engine
// routes (folded and full).

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "baselines/trotter_mixer.hpp"
#include "bits/combinatorics.hpp"
#include "common/rng.hpp"
#include "core/plan.hpp"
#include "graphs/graph.hpp"
#include "linalg/vector_ops.hpp"
#include "mixers/chebyshev_mixer.hpp"
#include "mixers/eigen_mixer.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"
#include "sampling/sampler.hpp"
#include "test_util.hpp"

namespace fastqaoa {
namespace {

class XyMixerTriangle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XyMixerTriangle, ThreePathsAgreeOnRandomPairGraphs) {
  Rng rng(GetParam());
  const int n = 5 + static_cast<int>(rng.bounded(3));  // 5..7
  const int k = 2 + static_cast<int>(rng.bounded(
                        static_cast<std::uint64_t>(n - 3)));  // 2..n-2
  StateSpace space = StateSpace::dicke(n, k);
  // Random connected-ish pair graph with random weights.
  Graph pairs = erdos_renyi(n, 0.6, rng);
  if (pairs.num_edges() == 0) pairs.add_edge(0, 1);

  const double beta = rng.uniform(-1.5, 1.5);
  cvec reference = testutil::random_state(space.dim(), rng);
  cvec scratch;

  // Path 1: dense eigendecomposition (exact).
  EigenMixer dense = EigenMixer::xy_graph(space, pairs);
  cvec a = reference;
  dense.apply_exp(a, beta, scratch);

  // Path 2: matrix-free Chebyshev (exact to tolerance).
  ChebyshevMixer cheb(std::make_shared<SparseXYOperator>(space, pairs),
                      1e-12);
  cvec b = reference;
  cheb.apply_exp(b, beta, scratch);
  EXPECT_LT(testutil::max_diff(a, b), 1e-9) << "n=" << n << " k=" << k;

  // Path 3: Trotter with many steps (converges ~1/steps).
  baselines::TrotterXYMixer trotter(space, pairs, 256);
  cvec c = reference;
  trotter.apply_exp(c, beta, scratch);
  EXPECT_LT(testutil::max_diff(a, c), 2e-2) << "n=" << n << " k=" << k;

  // All three preserve the norm exactly.
  EXPECT_NEAR(linalg::norm(a), 1.0, 1e-9);
  EXPECT_NEAR(linalg::norm(b), 1.0, 1e-9);
  EXPECT_NEAR(linalg::norm(c), 1.0, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, XyMixerTriangle,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

class XMixerConstruction : public ::testing::TestWithParam<int> {};

TEST_P(XMixerConstruction, OrderMixersMatchExplicitTermEnumeration) {
  // from_orders (Krawtchouk analytic diagonal) vs the direct term-list
  // constructor, applied — not just the diagonals but the action.
  const int order = GetParam();
  const int n = 6;
  XMixer fast = XMixer::from_orders(n, {order});
  std::vector<PauliXTerm> terms;
  for_each_weight_k(n, order,
                    [&terms](state_t m) { terms.push_back({m, 1.0}); });
  XMixer direct(n, terms);
  Rng rng(static_cast<std::uint64_t>(order) * 17);
  cvec a = testutil::random_state(64, rng);
  cvec b = a;
  cvec scratch;
  fast.apply_exp(a, 0.45, scratch);
  direct.apply_exp(b, 0.45, scratch);
  EXPECT_LT(testutil::max_diff(a, b), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Orders, XMixerConstruction,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SamplerDeterminism, SameSeedSameDraws) {
  Rng state_rng(1);
  cvec psi = testutil::random_state(64, state_rng);
  MeasurementSampler sampler(psi);
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sampler.sample(a), sampler.sample(b));
  }
}

TEST(SamplerDeterminism, CountsMatchSingleDrawsUnderSameStream) {
  Rng state_rng(2);
  cvec psi = testutil::random_state(16, state_rng);
  MeasurementSampler sampler(psi);
  Rng a(7), b(7);
  auto counts = sampler.sample_counts(500, a);
  std::vector<std::uint64_t> manual(16, 0);
  for (int i = 0; i < 500; ++i) ++manual[sampler.sample(b)];
  EXPECT_EQ(counts, manual);
}

/// <C> of unweighted MaxCut at p = 1, in closed form from the graph alone
/// (Wang, Hadfield, Jiang & Rieffel, PRA 97, 022304, 2018). Edge (u, v)
/// with d = deg(u) - 1, e = deg(v) - 1 and f triangles on it contributes
///   1/2 + 1/4 sin(4β) sin(γ) (cos^d γ + cos^e γ)
///       - 1/4 sin²(2β) cos^(d+e-2f) γ (1 - cos^f 2γ).
/// Its d = e = f = 0 case is the single-edge 1/2 (1 + sin(4β) sin(γ)) of
/// tests/test_qaoa.cpp, which fixes the sign convention.
double maxcut_p1_closed_form(const Graph& g, double beta, double gamma) {
  double total = 0.0;
  for (const Edge& edge : g.edges()) {
    const int d = g.degree(edge.u) - 1;
    const int e = g.degree(edge.v) - 1;
    int f = 0;
    for (const int w : g.neighbors(edge.u)) f += g.has_edge(w, edge.v) ? 1 : 0;
    const double c = std::cos(gamma);
    const double s2b = std::sin(2.0 * beta);
    total += 0.5 +
             0.25 * std::sin(4.0 * beta) * std::sin(gamma) *
                 (std::pow(c, d) + std::pow(c, e)) -
             0.25 * s2b * s2b * std::pow(c, d + e - 2 * f) *
                 (1.0 - std::pow(std::cos(2.0 * gamma), f));
  }
  return total;
}

TEST(MaxCutP1ClosedForm, BothExactRoutesMatchOnErAndRegularGraphs) {
  const std::pair<double, double> angles[] = {
      {0.31, 0.72}, {-0.9, 2.1}, {1.3, -0.45}};
  for (const int n : {8, 12, 16, 20}) {
    Rng rng(static_cast<std::uint64_t>(1000 + n));
    for (const Graph& g :
         {erdos_renyi(n, 0.5, rng), random_regular(n, 3, rng)}) {
      const dvec table = tabulate(StateSpace::full(n),
                                  [&g](state_t x) { return maxcut(g, x); });
      const XMixer tf = XMixer::transverse_field(n);
      const QaoaPlan folded(tf, table, 1);
      QaoaPlanOptions uniform;
      uniform.initial_state = testutil::uniform_state(table.size());
      const QaoaPlan full(tf, table, 1, std::move(uniform));
      ASSERT_TRUE(folded.folded());
      ASSERT_FALSE(full.folded());
      EvalWorkspace ws;
      for (const auto& [beta, gamma] : angles) {
        const double want = maxcut_p1_closed_form(g, beta, gamma);
        for (const QaoaPlan* plan : {&folded, &full}) {
          const double got = evaluate(*plan, ws, {&beta, 1}, {&gamma, 1});
          EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
              << "n=" << n << " edges=" << g.num_edges()
              << " folded=" << plan->folded() << " beta=" << beta
              << " gamma=" << gamma << ": " << got << " vs " << want;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fastqaoa
