#pragma once
/// \file cost_functions.hpp
/// The combinatorial cost functions C(x) studied in the paper, each a plain
/// function of (problem structure, basis state) -> scalar — exactly the
/// interface Listing 1/2 of the paper uses. Any user-defined callable with
/// the same shape plugs into tabulate() below.

#include "common/types.hpp"
#include "graphs/graph.hpp"
#include "linalg/dense.hpp"
#include "problems/state_space.hpp"
#include "sat/cnf.hpp"

namespace fastqaoa {

/// MaxCut: total weight of edges whose endpoints get different bits.
double maxcut(const Graph& g, state_t x);

/// k-SAT: number of satisfied clauses (the Fig. 2 objective for 3-SAT).
double ksat(const CnfFormula& f, state_t x);

/// Densest k-Subgraph: number (weight) of edges with both endpoints in the
/// selected set. Meant to be evaluated on Hamming-weight-k states.
double densest_subgraph(const Graph& g, state_t x);

/// Max k-Vertex Cover: number (weight) of edges covered by (incident to)
/// the selected vertex set. Meant for Hamming-weight-k states.
double vertex_cover(const Graph& g, state_t x);

/// Ising energy sum_i h_i s_i + sum_{(i,j)} J_ij s_i s_j with s = 1 - 2x
/// (spin +1 for bit 0). Fields h live on vertices, couplings J on edges.
double ising_energy(const Graph& couplings, const std::vector<double>& fields,
                    state_t x);

/// Number partitioning: |sum of selected weights - sum of the rest|.
/// A minimization objective (0 = perfect partition). Exactly invariant
/// under complementing x, for any real weights.
double number_partition(const std::vector<double>& weights, state_t x);

/// Mean-variance portfolio value of the selected asset set:
/// sum_{i in x} mu_i - risk_aversion * sum_{i,j in x} Sigma_ij.
/// A maximization objective; with a fixed asset budget k it lives on the
/// Dicke subspace (select exactly k assets), the natural constrained-QAOA
/// formulation. Sigma must be square with one row per asset.
double portfolio_value(const std::vector<double>& expected_returns,
                       const linalg::dmat& covariance, double risk_aversion,
                       state_t x);

/// Tabulate any cost function across a feasible set: result[i] =
/// cost(space.state(i)). This is the paper's pre-computation step — the
/// only problem-specific input the simulator ever sees. OpenMP-parallel
/// over the feasible set (cost must be safe to call concurrently, which
/// every pure function of (structure, state) is). It is the generic path,
/// for user-defined cost functions and as the tests' oracle; the built-in
/// problems have the blocked builders below.
template <typename CostFn>
dvec tabulate(const StateSpace& space, CostFn&& cost) {
  dvec values(space.dim(), 0.0);
  const std::ptrdiff_t dim = static_cast<std::ptrdiff_t>(space.dim());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < dim; ++i) {
    values[static_cast<index_t>(i)] = static_cast<double>(
        cost(space.state(static_cast<index_t>(i))));
  }
  return values;
}

/// Blocked cost-table builders for the built-in problems: the tables
/// qaoa_cli, the daemon (service::build_objective) and the fastqaoa
/// baseline package build. Each returns tabulate(space, f) for its cost
/// function f bit for bit, for any weights: it walks blocks of at most
/// kCostTableBlock feasible states (a Dicke space's from its state list)
/// and, inside a block, the terms in f's own order, so every entry is the
/// same sum in the same order. One call per term and block instead of one
/// per state makes them ~10x faster than tabulate on MaxCut. Blocks are
/// OpenMP-parallel, and each entry is written by one thread, so the table
/// does not depend on the thread count.
inline constexpr index_t kCostTableBlock = 4096;

/// tabulate(space, maxcut(g, ·)); also the weighted MaxCut table.
dvec maxcut_table(const StateSpace& space, const Graph& g);

/// tabulate(space, ksat(f, ·)).
dvec ksat_table(const StateSpace& space, const CnfFormula& f);

/// tabulate(space, densest_subgraph(g, ·)).
dvec densest_subgraph_table(const StateSpace& space, const Graph& g);

/// tabulate(space, vertex_cover(g, ·)).
dvec vertex_cover_table(const StateSpace& space, const Graph& g);

/// tabulate(space, number_partition(weights, ·)).
dvec number_partition_table(const StateSpace& space,
                            const std::vector<double>& weights);

}  // namespace fastqaoa
