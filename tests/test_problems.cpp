// Unit tests for cost functions, objective tables, threshold transforms and
// degeneracy histograms.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "common/rng.hpp"
#include "common/threading.hpp"
#include "problems/cost_functions.hpp"
#include "problems/objective.hpp"
#include "problems/weighted_maxcut.hpp"

namespace fastqaoa {
namespace {

TEST(CostFunctions, MaxCutTriangle) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_DOUBLE_EQ(maxcut(g, 0b000), 0.0);
  EXPECT_DOUBLE_EQ(maxcut(g, 0b001), 2.0);
  EXPECT_DOUBLE_EQ(maxcut(g, 0b011), 2.0);
  EXPECT_DOUBLE_EQ(maxcut(g, 0b111), 0.0);
}

TEST(CostFunctions, MaxCutWeights) {
  Graph g(2);
  g.add_edge(0, 1, 3.5);
  EXPECT_DOUBLE_EQ(maxcut(g, 0b01), 3.5);
  EXPECT_DOUBLE_EQ(maxcut(g, 0b11), 0.0);
}

TEST(CostFunctions, MaxCutComplementSymmetry) {
  Rng rng(1);
  Graph g = erdos_renyi(8, 0.5, rng);
  const state_t mask = (state_t{1} << 8) - 1;
  for (state_t x = 0; x < 256; ++x) {
    EXPECT_DOUBLE_EQ(maxcut(g, x), maxcut(g, x ^ mask));
  }
}

TEST(CostFunctions, KsatMatchesFormula) {
  CnfFormula f(3);
  f.add_clause({{0, false}, {1, false}});
  f.add_clause({{2, true}});
  EXPECT_DOUBLE_EQ(ksat(f, 0b000), 1.0);
  EXPECT_DOUBLE_EQ(ksat(f, 0b001), 2.0);
  EXPECT_DOUBLE_EQ(ksat(f, 0b100), 0.0);
}

TEST(CostFunctions, DensestSubgraphCountsInternalEdges) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  EXPECT_DOUBLE_EQ(densest_subgraph(g, 0b0011), 1.0);  // {0,1}: edge 0-1
  EXPECT_DOUBLE_EQ(densest_subgraph(g, 0b0101), 0.0);  // {0,2}: none
  EXPECT_DOUBLE_EQ(densest_subgraph(g, 0b1111), 4.0);  // all
}

TEST(CostFunctions, VertexCoverCountsIncidentEdges) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_DOUBLE_EQ(vertex_cover(g, 0b0010), 2.0);  // {1} covers 0-1, 1-2
  EXPECT_DOUBLE_EQ(vertex_cover(g, 0b1001), 2.0);  // {0,3}
  EXPECT_DOUBLE_EQ(vertex_cover(g, 0b0110), 3.0);  // {1,2} covers all
  EXPECT_DOUBLE_EQ(vertex_cover(g, 0b0000), 0.0);
}

TEST(CostFunctions, DensestPlusComplementCoverIdentity) {
  // edges inside S + edges covered by complement(S) = all edges;
  // equivalently vertex_cover(S) + densest(complement S) = |E|.
  Rng rng(2);
  Graph g = erdos_renyi(7, 0.6, rng);
  const state_t mask = (state_t{1} << 7) - 1;
  for (state_t x = 0; x < (state_t{1} << 7); ++x) {
    EXPECT_DOUBLE_EQ(vertex_cover(g, x) + densest_subgraph(g, x ^ mask),
                     static_cast<double>(g.num_edges()));
  }
}

TEST(CostFunctions, IsingEnergy) {
  Graph j(2);
  j.add_edge(0, 1, 1.0);
  std::vector<double> h = {0.5, -0.5};
  // x=00 -> s=(+1,+1): E = 0.5 - 0.5 + 1 = 1
  EXPECT_DOUBLE_EQ(ising_energy(j, h, 0b00), 1.0);
  // x=01 -> s=(-1,+1): E = -0.5 - 0.5 - 1 = -2
  EXPECT_DOUBLE_EQ(ising_energy(j, h, 0b01), -2.0);
  std::vector<double> bad = {1.0};
  EXPECT_THROW(ising_energy(j, bad, 0), Error);
}

TEST(CostFunctions, PortfolioValueKnownCases) {
  const std::vector<double> mu = {1.0, 2.0, 0.5};
  linalg::dmat sigma = {{0.1, 0.05, 0.0},
                        {0.05, 0.2, 0.01},
                        {0.0, 0.01, 0.3}};
  // Select asset 1 only: mu_1 - lambda * Sigma_11.
  EXPECT_DOUBLE_EQ(portfolio_value(mu, sigma, 2.0, 0b010), 2.0 - 2.0 * 0.2);
  // Assets 0 and 1: mu_0 + mu_1 - lambda (S00 + S11 + 2 S01).
  EXPECT_DOUBLE_EQ(portfolio_value(mu, sigma, 1.0, 0b011),
                   3.0 - (0.1 + 0.2 + 2.0 * 0.05));
  EXPECT_DOUBLE_EQ(portfolio_value(mu, sigma, 1.0, 0b000), 0.0);
  linalg::dmat bad(2, 3);
  EXPECT_THROW(portfolio_value(mu, bad, 1.0, 0b1), Error);
}

TEST(CostFunctions, PortfolioRiskAversionMonotonicity) {
  // Higher risk aversion never increases the value of a fixed selection
  // with a PSD covariance.
  Rng rng(9);
  const linalg::dmat f = linalg::random_matrix(5, 5, rng);
  linalg::dmat sigma = linalg::matmul(f, linalg::transpose(f));  // PSD
  std::vector<double> mu(5);
  for (auto& m : mu) m = rng.uniform(0.0, 2.0);
  for (state_t x = 1; x < 32; ++x) {
    EXPECT_LE(portfolio_value(mu, sigma, 2.0, x),
              portfolio_value(mu, sigma, 0.5, x) + 1e-12);
  }
}

TEST(Tabulate, FullSpaceMatchesDirectEvaluation) {
  Rng rng(3);
  Graph g = erdos_renyi(6, 0.5, rng);
  StateSpace space = StateSpace::full(6);
  dvec table = tabulate(space, [&g](state_t x) { return maxcut(g, x); });
  ASSERT_EQ(table.size(), 64u);
  for (state_t x = 0; x < 64; ++x) {
    EXPECT_DOUBLE_EQ(table[x], maxcut(g, x));
  }
}

TEST(Tabulate, DickeSubspaceIndexing) {
  Rng rng(4);
  Graph g = erdos_renyi(6, 0.5, rng);
  StateSpace space = StateSpace::dicke(6, 3);
  dvec table =
      tabulate(space, [&g](state_t x) { return densest_subgraph(g, x); });
  ASSERT_EQ(table.size(), 20u);
  space.for_each([&](index_t i, state_t s) {
    EXPECT_DOUBLE_EQ(table[i], densest_subgraph(g, s));
  });
}

// The blocked builders against the generic tabulate() oracle, byte for
// byte. The spaces put the dimension below one block, at exactly one, at a
// multiple of it, and past a multiple, on full and Dicke spaces.
std::vector<StateSpace> table_spaces() {
  return {StateSpace::full(5),      StateSpace::full(12),
          StateSpace::full(14),     StateSpace::dicke(14, 5),
          StateSpace::dicke(16, 7), StateSpace::dicke(9, 0)};
}

/// tables(space) returns {builder table, tabulate table} for an instance
/// on space.n() qubits; both are built at 1 and at 4 OpenMP threads.
void expect_tables_match(
    const std::function<std::pair<dvec, dvec>(const StateSpace&)>& tables) {
  const int restore = num_threads();
  for (const StateSpace& space : table_spaces()) {
    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      const auto [got, want] = tables(space);
      ASSERT_EQ(got.size(), space.dim());
      ASSERT_EQ(want.size(), space.dim());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            space.dim() * sizeof(double)),
                0)
          << "n=" << space.n() << " k=" << space.k()
          << " threads=" << threads;
    }
  }
  set_num_threads(restore);
}

TEST(CostTables, SpacesCoverTheBlockEdges) {
  std::vector<index_t> dims;
  for (const StateSpace& space : table_spaces()) dims.push_back(space.dim());
  EXPECT_EQ(dims[0], 32u);                   // below one block
  EXPECT_EQ(dims[1], kCostTableBlock);       // exactly one block
  EXPECT_EQ(dims[2] % kCostTableBlock, 0u);  // a multiple
  EXPECT_EQ(dims[3], 2002u);                 // Dicke, below one block
  EXPECT_GT(dims[4], kCostTableBlock);       // Dicke, past a multiple
  EXPECT_NE(dims[4] % kCostTableBlock, 0u);
  EXPECT_EQ(dims[5], 1u);                    // the single weight-0 state
}

/// Graph tables at integer and at with_random_weights real weights.
void expect_graph_tables_match(dvec (*build)(const StateSpace&, const Graph&),
                               double (*cost)(const Graph&, state_t)) {
  for (const bool weighted : {false, true}) {
    expect_tables_match([&](const StateSpace& space) {
      Rng rng(static_cast<std::uint64_t>(space.n()) + 100);
      Graph g = erdos_renyi(space.n(), 0.5, rng);
      if (weighted) g = with_random_weights(g, rng);
      return std::pair{build(space, g), tabulate(space, [&g, cost](state_t x) {
                         return cost(g, x);
                       })};
    });
  }
}

TEST(CostTables, MaxCutMatchesTabulate) {
  expect_graph_tables_match(maxcut_table, maxcut);
}

TEST(CostTables, DensestSubgraphMatchesTabulate) {
  expect_graph_tables_match(densest_subgraph_table, densest_subgraph);
}

TEST(CostTables, VertexCoverMatchesTabulate) {
  expect_graph_tables_match(vertex_cover_table, vertex_cover);
}

TEST(CostTables, KsatWithNegatedLiteralsMatchesTabulate) {
  expect_tables_match([](const StateSpace& space) {
    Rng rng(static_cast<std::uint64_t>(space.n()) + 200);
    CnfFormula f = random_ksat_density(space.n(), 3, 6.0, rng);
    // A clause of negated literals only, and one of mixed polarity.
    f.add_clause({{0, true}, {space.n() - 1, true}});
    f.add_clause({{space.n() / 2, false}, {1, true}});
    int negated = 0;
    for (const Clause& clause : f.clauses()) {
      for (const Literal& lit : clause) negated += lit.negated ? 1 : 0;
    }
    EXPECT_GT(negated, 0);
    return std::pair{ksat_table(space, f), tabulate(space, [&f](state_t x) {
                       return ksat(f, x);
                     })};
  });
}

TEST(CostTables, NumberPartitionMatchesTabulate) {
  for (const bool integer : {true, false}) {
    expect_tables_match([&](const StateSpace& space) {
      Rng rng(static_cast<std::uint64_t>(space.n()) + 300);
      std::vector<double> weights(static_cast<std::size_t>(space.n()));
      for (auto& w : weights) {
        w = rng.uniform(1.0, 30.0);
        if (integer) w = std::floor(w);
      }
      return std::pair{number_partition_table(space, weights),
                       tabulate(space, [&weights](state_t x) {
                         return number_partition(weights, x);
                       })};
    });
  }
  const std::vector<double> too_many(63, 1.0);
  EXPECT_THROW(number_partition_table(StateSpace::full(4), too_many), Error);
}

TEST(ObjectiveStats, ExtremaAndDegeneracy) {
  dvec values = {1.0, 3.0, 3.0, 0.0, 2.0};
  ObjectiveStats s = objective_stats(values);
  EXPECT_DOUBLE_EQ(s.min_value, 0.0);
  EXPECT_DOUBLE_EQ(s.max_value, 3.0);
  EXPECT_EQ(s.argmin, 3u);
  EXPECT_EQ(s.argmax, 1u);
  EXPECT_EQ(s.count_max, 2u);
  EXPECT_EQ(s.count_min, 1u);
  EXPECT_NEAR(s.mean, 1.8, 1e-14);
}

TEST(ObjectiveTransforms, NegatedAndShifted) {
  dvec values = {1.0, -2.0};
  dvec neg = negated(values);
  EXPECT_DOUBLE_EQ(neg[0], -1.0);
  EXPECT_DOUBLE_EQ(neg[1], 2.0);
  dvec sh = shifted(values, 10.0);
  EXPECT_DOUBLE_EQ(sh[0], 11.0);
  EXPECT_DOUBLE_EQ(sh[1], 8.0);
}

TEST(ObjectiveTransforms, ThresholdIndicator) {
  dvec values = {0.0, 1.0, 2.0, 3.0};
  dvec ind = threshold_indicator(values, 1.5);
  EXPECT_DOUBLE_EQ(ind[0], 0.0);
  EXPECT_DOUBLE_EQ(ind[1], 0.0);
  EXPECT_DOUBLE_EQ(ind[2], 1.0);
  EXPECT_DOUBLE_EQ(ind[3], 1.0);
}

TEST(ApproximationRatio, MaximizeAndMinimize) {
  dvec values = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(approximation_ratio(10.0, values), 1.0);
  EXPECT_DOUBLE_EQ(approximation_ratio(5.0, values), 0.5);
  EXPECT_DOUBLE_EQ(
      approximation_ratio(0.0, values, Direction::Minimize), 1.0);
  dvec constant = {2.0, 2.0};
  EXPECT_THROW(approximation_ratio(2.0, constant), Error);
}

TEST(DegeneracyTable, HistogramsValues) {
  dvec values = {1.0, 2.0, 1.0, 3.0, 2.0, 1.0};
  DegeneracyTable t = degeneracy_table(values);
  ASSERT_EQ(t.num_distinct(), 3u);
  EXPECT_DOUBLE_EQ(t.values[0], 1.0);
  EXPECT_EQ(t.counts[0], 3u);
  EXPECT_DOUBLE_EQ(t.values[1], 2.0);
  EXPECT_EQ(t.counts[1], 2u);
  EXPECT_EQ(t.total, 6u);
}

TEST(DegeneracyTable, StreamingMatchesMaterialized) {
  Rng rng(5);
  Graph g = erdos_renyi(10, 0.5, rng);
  auto cost = [&g](state_t x) { return maxcut(g, x); };
  dvec table = tabulate(StateSpace::full(10), cost);
  DegeneracyTable direct = degeneracy_table(table);
  DegeneracyTable streamed = degeneracy_table_streaming(10, cost);
  ASSERT_EQ(direct.num_distinct(), streamed.num_distinct());
  for (std::size_t i = 0; i < direct.num_distinct(); ++i) {
    EXPECT_DOUBLE_EQ(direct.values[i], streamed.values[i]);
    EXPECT_EQ(direct.counts[i], streamed.counts[i]);
  }
  EXPECT_EQ(streamed.total, 1024u);
}

TEST(DegeneracyTable, StreamingDickeMatchesMaterialized) {
  Rng rng(6);
  Graph g = erdos_renyi(10, 0.5, rng);
  auto cost = [&g](state_t x) { return densest_subgraph(g, x); };
  dvec table = tabulate(StateSpace::dicke(10, 5), cost);
  DegeneracyTable direct = degeneracy_table(table);
  DegeneracyTable streamed = degeneracy_table_streaming_dicke(10, 5, cost);
  ASSERT_EQ(direct.num_distinct(), streamed.num_distinct());
  for (std::size_t i = 0; i < direct.num_distinct(); ++i) {
    EXPECT_DOUBLE_EQ(direct.values[i], streamed.values[i]);
    EXPECT_EQ(direct.counts[i], streamed.counts[i]);
  }
  EXPECT_EQ(streamed.total, 252u);
}

}  // namespace
}  // namespace fastqaoa
