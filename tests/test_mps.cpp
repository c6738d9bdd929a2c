// Tests for the approximate MPS engine (src/mps/): parity with the exact
// statevector engine at small n when the bond cap is unsaturated, graceful
// degradation (monotone discarded weight) when saturated, and bit-identical
// determinism across repeated evaluations and concurrent threads — the same
// invariance contract the exact engine's QaoaPlan/EvalWorkspace split is
// tested for in test_parallel.cpp.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "anglefind/strategies.hpp"
#include "bits/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "core/plan.hpp"
#include "linalg/dense.hpp"
#include "linalg/svd.hpp"
#include "mixers/x_mixer.hpp"
#include "mps/hamiltonian.hpp"
#include "mps/mps_objective.hpp"
#include "mps/mps_plan.hpp"
#include "mps/mps_state.hpp"
#include "problems/cost_functions.hpp"
#include "problems/state_space.hpp"
#include "problems/weighted_maxcut.hpp"
#include "runtime/budget.hpp"
#include "service/workload.hpp"
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

/// Qubit bitstring -> the plan's site bitstring (MpsState::amplitude order).
state_t to_site_bits(const MpsPlan& plan, state_t x) {
  state_t out = 0;
  for (index_t q = 0; q < plan.n(); ++q) {
    if (bit(x, static_cast<int>(q))) out |= state_t{1} << plan.site_of()[q];
  }
  return out;
}

/// Two-site ops per round of route-and-return routing in the Hamiltonian's
/// own labelling: each ZZ term (u, v) on its own, 2(v - u - 1) swaps there
/// and back plus its phase gate.
std::size_t route_and_return_ops(const DiagonalHamiltonian& h) {
  std::size_t ops = 0;
  for (const ZZTerm& t : canonicalize(h).zz_terms) ops += 2 * (t.v - t.u - 1) + 1;
  return ops;
}

/// Two-site ops per round of one excursion per site in the Hamiltonian's
/// own labelling, counted from the terms alone: each site v with partners
/// to its left walks to its leftmost partner's neighbour and back.
std::size_t identity_order_excursion_ops(const DiagonalHamiltonian& h) {
  std::vector<index_t> far(h.n);
  for (index_t v = 0; v < h.n; ++v) far[v] = v;
  for (const ZZTerm& t : canonicalize(h).zz_terms) {
    far[t.v] = std::min(far[t.v], t.u);
  }
  std::size_t ops = 0;
  for (index_t v = 0; v < h.n; ++v) {
    if (far[v] < v) ops += 2 * (v - far[v] - 1) + 1;
  }
  return ops;
}

/// The plan's site order is a permutation of the qubits, and its
/// site-labelled Hamiltonian scores every bitstring like the input does.
void expect_valid_relabelling(const DiagonalHamiltonian& h,
                              const MpsPlan& plan) {
  std::vector<index_t> sorted = plan.site_of();
  ASSERT_EQ(sorted.size(), h.n);
  std::sort(sorted.begin(), sorted.end());
  for (index_t i = 0; i < h.n; ++i) ASSERT_EQ(sorted[i], i);
  Rng rng(h.n);
  for (int i = 0; i < 64; ++i) {
    const state_t x = rng.bounded(state_t{1} << h.n);
    EXPECT_NEAR(eval_bits(plan.hamiltonian(), to_site_bits(plan, x)),
                eval_bits(h, x), 1e-12)
        << "x=" << x;
  }
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

TEST(MpsHamiltonian, PlanRefusesLinearZTerms) {
  // A linear Z term breaks the bit-flip parity every bond carries.
  DiagonalHamiltonian h = maxcut_hamiltonian(ring_graph(6));
  h.z_terms = {{2, 0.5}};
  try {
    const MpsPlan plan(h);
    ADD_FAILURE() << "a Z term must be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("parity"), std::string::npos)
        << e.what();
  }
  // Terms that cancel in canonical form leave a ZZ-only cost.
  h.z_terms = {{2, 0.5}, {2, -0.5}};
  EXPECT_NO_THROW(MpsPlan{h});
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
  // The gate set keeps the parity of prod_i X_i, so the cost phase is a
  // ZZ gate: e^{-i a Z_0 Z_1} on |++> multiplies the amplitude by e^{-ia}
  // where bit0 == bit1 and by e^{+ia} where they differ.
  const TruncationPolicy exact{.max_bond = 64, .trunc_tol = 0.0,
                               .fidelity_budget = 0.0};
  MpsState s = MpsState::plus_state(2);
  TruncationStats stats;
  const double a = 0.7;
  s.apply_two_site(0, a, false, 1, exact, stats);
  for (state_t x = 0; x < 4; ++x) {
    const double sign = ((x ^ (x >> 1)) & 1) ? 1.0 : -1.0;
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
  // On the entangled state, e^{-i b X_0} mixes x with x ^ 1:
  // psi'(x) = cos(b) psi(x) - i sin(b) psi(x ^ 1).
  std::vector<cplx> before(4);
  for (state_t x = 0; x < 4; ++x) before[x] = s.amplitude(x);
  s.apply_rx(0, b);
  for (state_t x = 0; x < 4; ++x) {
    const cplx want =
        std::cos(b) * before[x] - cplx(0, std::sin(b)) * before[x ^ 1];
    EXPECT_NEAR(std::abs(s.amplitude(x) - want), 0.0, 1e-12) << "x=" << x;
  }
}

TEST(MpsState, CenterMovesPreserveState) {
  const TruncationPolicy exact{.max_bond = 64, .trunc_tol = 0.0,
                               .fidelity_budget = 0.0};
  MpsState s = MpsState::plus_state(5);
  TruncationStats stats;
  s.move_center(2);
  s.apply_two_site(2, 0.3, false, 3, exact, stats);
  s.apply_rx(3, 0.9);
  s.apply_two_site(3, 0.5, true, 3, exact, stats);
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

// A chi = 1 swap projects the only entangled qubit out of a three-site
// state, leaving the untouched bond past it wider than its rank. Moving the
// center across that bond must shrink it to the rank — keeping orthonormal
// columns only — without changing the state. Both directions.
TEST(MpsState, RankDeficientCenterMoveKeepsOnlyRank) {
  constexpr double kSwap = 0.0;  // a pure swap applies no ZZ phase
  constexpr double zz = 0.3;
  const TruncationPolicy exact{.max_bond = 64, .trunc_tol = 0.0,
                               .fidelity_budget = 0.0};
  const TruncationPolicy chi1{.max_bond = 1, .trunc_tol = 0.0,
                              .fidelity_budget = 1.0};
  // Gram matrix of the kept columns (rows = false) or rows (rows = true)
  // of a tensor matricized as `outer` x `k` or `k` x `outer`.
  auto expect_orthonormal = [](const cvec& t, index_t k, index_t outer,
                               bool rows) {
    for (index_t a = 0; a < k; ++a) {
      for (index_t b = 0; b < k; ++b) {
        cplx dot{};
        for (index_t i = 0; i < outer; ++i) {
          dot += rows ? std::conj(t[a * outer + i]) * t[b * outer + i]
                      : std::conj(t[i * k + a]) * t[i * k + b];
        }
        EXPECT_NEAR(std::abs(dot - cplx(a == b ? 1.0 : 0.0)), 0.0, 1e-12)
            << "columns " << a << ", " << b;
      }
    }
  };
  auto amplitudes = [](const MpsState& st) {
    std::vector<cplx> amps(8);
    for (state_t x = 0; x < 8; ++x) amps[x] = st.amplitude(x);
    return amps;
  };

  {  // rightward: entangle sites 1-2, project site 0 after swapping 0-1
    MpsState s = MpsState::plus_state(3);
    TruncationStats stats;
    s.move_center(1);
    s.apply_two_site(1, zz, false, 1, exact, stats);
    ASSERT_EQ(s.bond(2), index_t{2});
    s.apply_two_site(0, kSwap, true, 0, chi1, stats);
    ASSERT_EQ(s.bond(1), index_t{1});
    ASSERT_EQ(s.bond(2), index_t{2});
    const std::vector<cplx> before = amplitudes(s);
    s.move_center(2);
    EXPECT_EQ(s.bond(2), index_t{1});
    expect_orthonormal(s.tensor(1), s.bond(2), s.bond(1) * 2, false);
    const std::vector<cplx> after = amplitudes(s);
    for (state_t x = 0; x < 8; ++x) {
      EXPECT_NEAR(std::abs(after[x] - before[x]), 0.0, 1e-12) << "x=" << x;
    }
  }
  {  // leftward mirror: entangle sites 0-1, project site 2 after swapping 1-2
    MpsState s = MpsState::plus_state(3);
    TruncationStats stats;
    s.apply_two_site(0, zz, false, 1, exact, stats);
    ASSERT_EQ(s.bond(1), index_t{2});
    s.apply_two_site(1, kSwap, true, 2, chi1, stats);
    ASSERT_EQ(s.bond(2), index_t{1});
    ASSERT_EQ(s.bond(1), index_t{2});
    const std::vector<cplx> before = amplitudes(s);
    s.move_center(0);
    EXPECT_EQ(s.bond(1), index_t{1});
    expect_orthonormal(s.tensor(1), s.bond(1), 2 * s.bond(2), true);
    const std::vector<cplx> after = amplitudes(s);
    for (state_t x = 0; x < 8; ++x) {
      EXPECT_NEAR(std::abs(after[x] - before[x]), 0.0, 1e-12) << "x=" << x;
    }
  }
}

// ---------------------------------------------------------------------------
// Z2 blocks, checked against the stored tensors and a dense SVD of the same
// two-site matrices rather than against the block code itself

/// The n = 10 state after a p = 2 evaluate at bond cap `chi`.
MpsState evaluated_state(index_t chi) {
  Rng rng(71);
  const Graph g = erdos_renyi(10, 0.5, rng);
  const MpsPlan plan(maxcut_hamiltonian(g), {.max_bond = chi,
                                             .fidelity_budget = 1.0,
                                             .trunc_tol = 1e-12});
  MpsWorkspace ws;
  evaluate_packed(plan, ws, random_angles(4, rng));
  return ws.state;
}

TEST(MpsBlocks, ChargeViolatingEntriesAreExactlyZero) {
  for (const index_t chi : {index_t{4}, index_t{256}}) {
    SCOPED_TRACE("chi=" + std::to_string(chi));
    const MpsState st = evaluated_state(chi);
    ASSERT_EQ(st.charges(0), Charges{0});
    ASSERT_EQ(st.charges(st.n()), Charges{0});
    EXPECT_GT(st.max_bond(), index_t{2});
    for (index_t site = 0; site < st.n(); ++site) {
      const index_t dl = st.bond(site);
      const index_t dr = st.bond(site + 1);
      const Charges& ql = st.charges(site);
      const Charges& qr = st.charges(site + 1);
      ASSERT_EQ(ql.size(), dl);
      ASSERT_EQ(qr.size(), dr);
      const cvec& t = st.tensor(site);
      ASSERT_EQ(t.size(), dl * 2 * dr);
      std::size_t allowed_nonzero = 0;
      for (index_t l = 0; l < dl; ++l) {
        for (index_t s = 0; s < 2; ++s) {
          for (index_t r = 0; r < dr; ++r) {
            const cplx x = t[(l * 2 + s) * dr + r];
            if ((ql[l] + s + qr[r]) % 2 != 0) {
              EXPECT_EQ(x, cplx{}) << "site " << site << " (" << l << ", "
                                   << s << ", " << r << ")";
            } else if (x != cplx{}) {
              ++allowed_nonzero;
            }
          }
        }
      }
      EXPECT_GT(allowed_nonzero, 0u) << "site " << site;
    }
  }
}

TEST(MpsBlocks, MergedSpectrumMatchesDenseSvdAtEveryCut) {
  const TruncationPolicy exact{.max_bond = 1024, .trunc_tol = 0.0,
                               .fidelity_budget = 0.0};
  for (const index_t chi : {index_t{4}, index_t{256}}) {
    SCOPED_TRACE("chi=" + std::to_string(chi));
    MpsState st = evaluated_state(chi);
    st.move_center(0);
    TruncationStats stats;
    for (index_t i = 0; i + 1 < st.n(); ++i) {
      // The dense two-site matrix rows (l, s0) x cols (s1, r).
      const index_t dl = st.bond(i);
      const index_t dm = st.bond(i + 1);
      const index_t dr = st.bond(i + 2);
      const cvec& a = st.tensor(i);
      const cvec& b = st.tensor(i + 1);
      linalg::cmat theta(dl * 2, 2 * dr);
      for (index_t l = 0; l < dl; ++l) {
        for (index_t s0 = 0; s0 < 2; ++s0) {
          for (index_t s1 = 0; s1 < 2; ++s1) {
            for (index_t r = 0; r < dr; ++r) {
              cplx acc{};
              for (index_t m = 0; m < dm; ++m) {
                acc += a[(l * 2 + s0) * dm + m] * b[(m * 2 + s1) * dr + r];
              }
              theta(l * 2 + s0, s1 * dr + r) = acc;
            }
          }
        }
      }
      const dvec dense = linalg::svd(theta).singular_values;
      // An identity split leaving the center right stores S V^H there: its
      // row norms are the merged block spectrum, in merged order.
      st.apply_two_site(i, 0.0, false, i + 1, exact, stats);
      const index_t k = st.bond(i + 1);
      ASSERT_LE(k, dense.size());
      const cvec& center = st.tensor(i + 1);
      for (index_t t = 0; t < dense.size(); ++t) {
        double merged = 0.0;
        if (t < k) {
          for (index_t j = 0; j < 2 * dr; ++j) {
            merged += std::norm(center[t * 2 * dr + j]);
          }
          merged = std::sqrt(merged);
        }
        EXPECT_NEAR(merged, dense[t], 1e-12) << "cut " << i << " value " << t;
      }
    }
    EXPECT_EQ(stats.truncations, 0u);
  }
}

// ---------------------------------------------------------------------------
// Site order: the plan relabels qubits so routed ZZ terms span fewer sites

TEST(MpsOrder, SiteOrderIsADeterministicBijection) {
  Rng rng(61);
  for (const Graph& g : {weighted_regular(30, 3, rng), erdos_renyi(20, 0.2, rng)}) {
    const DiagonalHamiltonian h = maxcut_hamiltonian(g);
    const MpsPlan plan(h, {.max_bond = 8});
    expect_valid_relabelling(h, plan);
    EXPECT_EQ(MpsPlan(h, {.max_bond = 8}).site_of(), plan.site_of());
  }
}

/// The graphs the order and schedule tests share: sparse and dense random
/// graphs, regular graphs (one weighted, so coefficients differ), a ring
/// and a star.
std::vector<Graph> order_test_graphs() {
  Rng rng(62);
  return {erdos_renyi(12, 0.3, rng),    erdos_renyi(16, 0.5, rng),
          erdos_renyi(24, 0.15, rng),   random_regular(12, 3, rng),
          random_regular(20, 3, rng),   random_regular(30, 4, rng),
          weighted_regular(30, 3, rng), ring_graph(10),
          star_graph(9)};
}

TEST(MpsOrder, NeverMoreOpsThanIdentityOrder) {
  for (const Graph& g : order_test_graphs()) {
    const DiagonalHamiltonian h = maxcut_hamiltonian(g);
    const MpsPlan plan(h);
    // The order is scored by the schedule's own op count, so relabelling
    // never costs ops; and one excursion per site never costs more than
    // routing each term there and back on the same order.
    EXPECT_LE(plan.ops_per_round(), identity_order_excursion_ops(h))
        << "n=" << g.num_vertices() << " edges=" << g.num_edges();
    EXPECT_EQ(plan.ops_per_round(),
              identity_order_excursion_ops(plan.hamiltonian()));
    EXPECT_LE(plan.ops_per_round(), route_and_return_ops(plan.hamiltonian()));
  }
}

TEST(MpsOrder, ShuffledPathRoutesWithoutSwaps) {
  constexpr int kN = 12;
  std::vector<int> label(kN);
  for (int i = 0; i < kN; ++i) label[i] = i;
  Rng rng(63);
  for (int i = kN - 1; i > 0; --i) {
    std::swap(label[i], label[rng.bounded(static_cast<std::uint64_t>(i) + 1)]);
  }
  Graph g(kN);
  for (int i = 0; i + 1 < kN; ++i) g.add_edge(label[i], label[i + 1]);
  const DiagonalHamiltonian h = maxcut_hamiltonian(g);
  ASSERT_GT(identity_order_excursion_ops(h), std::size_t{kN - 1});
  const MpsPlan plan(h);
  EXPECT_EQ(plan.swaps_per_round(), 0u);
  EXPECT_EQ(plan.ops_per_round(), std::size_t{kN - 1});
  expect_valid_relabelling(h, plan);
}

/// A ring on the even labels, a path on three odd ones, and three isolated
/// vertices, interleaved.
Graph disconnected_graph() {
  Graph g(11);
  for (int i = 0; i < 5; ++i) g.add_edge(2 * i, (2 * i + 2) % 10);
  g.add_edge(1, 5);
  g.add_edge(5, 9);
  return g;
}

TEST(MpsOrder, DisconnectedGraphGetsAValidOrder) {
  const Graph g = disconnected_graph();
  const DiagonalHamiltonian h = maxcut_hamiltonian(g);
  const MpsPlan plan(h, {.max_bond = 256, .fidelity_budget = 0.0,
                         .trunc_tol = 1e-14});
  expect_valid_relabelling(h, plan);
  EXPECT_LE(plan.ops_per_round(), identity_order_excursion_ops(h));
  Rng rng(64);
  const auto packed = random_angles(4, rng);
  MpsWorkspace ws;
  EXPECT_NEAR(evaluate_packed(plan, ws, packed), exact_expectation(g, 2, packed),
              1e-8);
}

// ---------------------------------------------------------------------------
// Schedule: one excursion per site, replayed on a qubit tracker

/// Replays a plan's cost_ops() on a site -> qubit tracker (qubits in the
/// plan's site labels). Every op must swap or phase, on a bond in range,
/// leaving the center on one of its two sites; every ZZ term must be applied
/// exactly once, to the pair it names, with its coefficient; and the chain
/// must be back in site order when the round ends.
void expect_schedule_applies_each_term_once(const MpsPlan& plan) {
  const index_t n = plan.n();
  std::vector<index_t> qubit_at(n);
  for (index_t s = 0; s < n; ++s) qubit_at[s] = s;
  std::map<std::pair<index_t, index_t>, std::vector<double>> applied;
  std::size_t swaps = 0;
  for (const MpsOp& op : plan.cost_ops()) {
    ASSERT_LT(op.bond + 1, n);
    ASSERT_TRUE(op.leave == op.bond || op.leave == op.bond + 1);
    ASSERT_TRUE(op.swap || op.coeff != 0.0) << "idle op at bond " << op.bond;
    if (op.swap) {
      std::swap(qubit_at[op.bond], qubit_at[op.bond + 1]);
      ++swaps;
    }
    if (op.coeff != 0.0) {
      const index_t a = qubit_at[op.bond];
      const index_t b = qubit_at[op.bond + 1];
      applied[{std::min(a, b), std::max(a, b)}].push_back(op.coeff);
    }
  }
  for (index_t s = 0; s < n; ++s) EXPECT_EQ(qubit_at[s], s) << "site " << s;
  const std::vector<ZZTerm>& terms = plan.hamiltonian().zz_terms;
  EXPECT_EQ(applied.size(), terms.size());
  for (const ZZTerm& t : terms) {
    const auto it = applied.find({t.u, t.v});
    ASSERT_NE(it, applied.end()) << "ZZ(" << t.u << "," << t.v << ") never applied";
    EXPECT_EQ(it->second, std::vector<double>{t.coeff})
        << "ZZ(" << t.u << "," << t.v << ")";
  }
  EXPECT_EQ(plan.ops_per_round(), plan.cost_ops().size());
  EXPECT_EQ(plan.swaps_per_round(), swaps);
}

TEST(MpsSchedule, AppliesEveryTermOnceAndRestoresSiteOrder) {
  std::vector<Graph> graphs = order_test_graphs();
  graphs.push_back(disconnected_graph());
  graphs.push_back(star_graph(16));
  for (const Graph& g : graphs) {
    SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) +
                 " edges=" + std::to_string(g.num_edges()));
    expect_schedule_applies_each_term_once(MpsPlan(maxcut_hamiltonian(g)));
  }
}

TEST(MpsSchedule, DistinctCoefficientsLandOnTheirPairs) {
  // Every term carries its own coefficient, so a phase fused into the wrong
  // swap shows as a mismatch.
  Rng rng(65);
  const Graph g = erdos_renyi(18, 0.4, rng);
  DiagonalHamiltonian h;
  h.n = g.num_vertices();
  double coeff = 0.0;
  for (const Edge& e : g.edges()) {
    coeff += 0.125;
    h.zz_terms.push_back({static_cast<index_t>(e.u), static_cast<index_t>(e.v),
                          coeff});
  }
  const MpsPlan plan(h);
  expect_schedule_applies_each_term_once(plan);
  EXPECT_GT(plan.swaps_per_round(), 0u) << "graph must need routing";
}

TEST(MpsSchedule, DenseGraphPlansTenfoldFewerOpsThanRouteAndReturn) {
  Rng rng(66);
  const MpsPlan plan(maxcut_hamiltonian(erdos_renyi(64, 0.5, rng)));
  const std::size_t route_and_return = route_and_return_ops(plan.hamiltonian());
  EXPECT_LE(10 * plan.ops_per_round(), route_and_return)
      << plan.ops_per_round() << " ops vs " << route_and_return;
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
  cvec exact;  // full-space state (the MaxCut plan evaluates folded)
  unfold_state(eplan, ews.psi, exact);

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
  // The MPS holds qubit q on site site_of()[q].
  for (state_t x = 0; x < 256; ++x) {
    EXPECT_NEAR(std::abs(global * ws.state.amplitude(to_site_bits(plan, x)) -
                         exact[x]),
                0.0, 1e-9)
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

// A single ZZ term between distant sites, driven through MpsState the way
// the plan routes it: the route-in swaps act on a product state (exact rank
// 1), the gate makes one rank-2 pair, and the route-out swaps carry it back.
// The rounding-level tail of those splits, and of the final center sweep, is
// structural rank, not truncation, under any policy — even one that drops
// nothing.
TEST(MpsTruncation, RoundingTailIsNotCountedAsTruncation) {
  constexpr index_t kN = 8;
  constexpr index_t kU = 1;
  constexpr index_t kV = 6;
  constexpr double kSwap = 0.0;  // a pure swap applies no ZZ phase
  constexpr double zz = -0.405;
  for (const TruncationPolicy& policy :
       {TruncationPolicy{.max_bond = 64, .trunc_tol = 0.0,
                         .fidelity_budget = 0.0},
        TruncationPolicy{}}) {
    MpsState state = MpsState::plus_state(kN);
    TruncationStats stats;
    state.move_center(kV - 1);
    for (index_t b = kV - 1; b > kU; --b) {
      state.apply_two_site(b, kSwap, /*swap_sites=*/true, b, policy, stats);
    }
    state.apply_two_site(kU, zz, /*swap_sites=*/false, kU + 1, policy, stats);
    for (index_t b = kU + 1; b < kV; ++b) {
      state.apply_two_site(b, kSwap, /*swap_sites=*/true, b + 1, policy,
                           stats);
    }
    for (index_t site = 0; site < kN; ++site) state.apply_rx(site, 0.37);
    state.move_center(kN - 1);
    EXPECT_EQ(stats.truncations, 0u) << "trunc_tol=" << policy.trunc_tol;
    EXPECT_EQ(stats.discarded_weight, 0.0);
    EXPECT_EQ(stats.max_bond_reached, index_t{2});
    // Only the cuts between the entangled pair carry a rank-2 bond.
    for (index_t i = 0; i <= kN; ++i) {
      EXPECT_EQ(state.bond(i),
                (i > kU && i <= kV) ? index_t{2} : index_t{1})
          << "bond " << i << ", trunc_tol=" << policy.trunc_tol;
    }
  }
}

// Drift pin on the service's mps_eval request shape (weighted 3-regular
// MaxCut, n = 30, chi = 8, p = 2): expectation and discarded weight at fixed
// angles, recorded from the engine once its plan routed one excursion per
// site (each ZZ fused into the swap that passes it) on the reverse
// Cuthill-McKee site order, with center moves dropping the rounding tail
// past the SVD rank. A change to the site order, the gate schedule or the
// bond splits that moves either past rounding level shows here.
TEST(MpsDeterminism, ServiceShapeValuesPinned) {
  struct Pin {
    std::uint64_t seed;
    std::vector<double> packed;
    double expectation;
    double discarded_weight;
  };
  const std::vector<Pin> pins = {
      {1, {0.42, 1.31, 2.17, 0.64}, 13.900140469507914, 6.694961936835969},
      {2, {2.05, 0.77, 0.93, 2.61}, 13.056742703445696, 4.6176044756256349},
      {3, {1.18, 2.49, 0.35, 1.72}, 10.045619947510218, 3.090172442273329},
  };
  for (const Pin& pin : pins) {
    service::ProblemSpec spec;
    spec.problem = "wmaxcut";
    spec.degree = 3;
    spec.n = 30;
    spec.engine = "mps";
    spec.max_bond = 8;
    spec.instance_seed = pin.seed;
    MpsPlan plan(service::build_mps_hamiltonian(spec),
                 service::mps_options(spec));
    MpsWorkspace ws;
    const double e = evaluate_packed(plan, ws, pin.packed);
    EXPECT_NEAR(e, pin.expectation, 1e-9 * std::abs(pin.expectation))
        << "seed " << pin.seed;
    EXPECT_NEAR(ws.stats.discarded_weight, pin.discarded_weight,
                1e-9 * pin.discarded_weight)
        << "seed " << pin.seed;
  }
}

// Independent accuracy oracle: the exact statevector engine (QaoaPlan,
// which shares no code with src/mps) on the service's weighted 3-regular
// MaxCut at n = 16, chi = 8, p = 2 and the service truncation defaults.
// Each bound is the |MPS - exact| error of the engine before the plan
// relabelled its sites (route-and-return in the graph's own labelling,
// measured on that code); the relabelled schedule must be no less accurate
// on any instance.
TEST(MpsAccuracy, ServiceShapeNoWorseThanGraphOrderAgainstExactEngine) {
  struct Case {
    std::uint64_t seed;
    double graph_order_error;
  };
  const std::vector<double> packed{0.35, 0.2, 0.4, 0.7};
  // Graph-order errors, rounded up at the 4th digit; exact <C> is 10.596,
  // 8.000 and 10.453.
  const std::vector<Case> cases = {{1, 1.106}, {2, 0.4486}, {3, 0.5868}};
  for (const Case& c : cases) {
    service::ProblemSpec spec;
    spec.problem = "wmaxcut";
    spec.degree = 3;
    spec.n = 16;
    spec.engine = "mps";
    spec.max_bond = 8;
    spec.instance_seed = c.seed;
    const double exact = exact_expectation(service::build_graph(spec), 2, packed);
    MpsPlan plan(service::build_mps_hamiltonian(spec),
                 service::mps_options(spec));
    MpsWorkspace ws;
    const double mps = evaluate_packed(plan, ws, packed);
    ASSERT_GT(ws.stats.truncations, 0u) << "chi=8 must truncate here";
    EXPECT_LE(std::abs(mps - exact), c.graph_order_error)
        << "seed " << c.seed << ": mps " << mps << " exact " << exact;
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
  EXPECT_NE(base.find(" order=rcm"), std::string::npos)
      << "tag must name the site order, so checkpoints written on the "
         "graph-order schedule never resume into this one";
  EXPECT_NE(base.find(" route=excursion"), std::string::npos)
      << "tag must name the routing, so checkpoints written on the "
         "route-and-return schedule never resume into this one";
  EXPECT_NE(base.find(" blocks=z2"), std::string::npos)
      << "tag must name the parity-block splits, so checkpoints written on "
         "the dense-split engine never resume into this one";
}

// A p = 1 evaluate of a dense n = 256 graph at chi = 64 is one round of
// ~64k bond splits, minutes of work. A cancel from another thread must
// land at the next excursion, not at the end of the round.
TEST(MpsRuntime, CrossThreadCancelInterruptsOneRoundEvaluation) {
  using Clock = std::chrono::steady_clock;
  Rng rng(54);
  const MpsPlan plan(maxcut_hamiltonian(erdos_renyi(256, 0.5, rng)),
                     {.max_bond = 64});
  runtime::CancelToken cancel;
  runtime::RunBudget budget;
  budget.cancel = &cancel;
  const runtime::BudgetTracker tracker(budget);
  MpsWorkspace ws;
  ws.tracker = &tracker;
  Clock::time_point cancelled_at;
  std::jthread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    cancelled_at = Clock::now();
    cancel.request_stop();
  });
  const double value = evaluate_packed(plan, ws, std::vector<double>{0.4, 0.3});
  const Clock::time_point returned_at = Clock::now();
  canceller.join();
  EXPECT_TRUE(ws.interrupted);
  EXPECT_GT(ws.stats.max_bond_reached, index_t{1})
      << "the cancel must land mid-round";
  EXPECT_EQ(value, plan.hamiltonian().constant);
  EXPECT_LT(std::chrono::duration<double>(returned_at - cancelled_at).count(),
            5.0);
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
