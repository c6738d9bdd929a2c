#include "problems/cost_functions.hpp"

#include <algorithm>
#include <cmath>

#include "bits/bitops.hpp"

namespace fastqaoa {

double maxcut(const Graph& g, state_t x) {
  double cut = 0.0;
  for (const Edge& e : g.edges()) {
    if (bit(x, e.u) != bit(x, e.v)) cut += e.weight;
  }
  return cut;
}

double ksat(const CnfFormula& f, state_t x) {
  return static_cast<double>(f.count_satisfied(x));
}

double densest_subgraph(const Graph& g, state_t x) {
  double inside = 0.0;
  for (const Edge& e : g.edges()) {
    if (bit(x, e.u) == 1 && bit(x, e.v) == 1) inside += e.weight;
  }
  return inside;
}

double vertex_cover(const Graph& g, state_t x) {
  double covered = 0.0;
  for (const Edge& e : g.edges()) {
    if (bit(x, e.u) == 1 || bit(x, e.v) == 1) covered += e.weight;
  }
  return covered;
}

double number_partition(const std::vector<double>& weights, state_t x) {
  FASTQAOA_CHECK(weights.size() <= 62, "number_partition: too many items");
  // sum_i s_i w_i with s_i = +1 for selected items and -1 for the rest,
  // summed in index order. Complementing x negates every term, and rounding
  // is symmetric under negation, so the sum negates exactly: the table is
  // flip invariant bit for bit (the Z2 fold's test) for real weights too.
  double signed_sum = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    signed_sum += bit(x, static_cast<int>(i)) ? weights[i] : -weights[i];
  }
  return std::abs(signed_sum);
}

double portfolio_value(const std::vector<double>& expected_returns,
                       const linalg::dmat& covariance, double risk_aversion,
                       state_t x) {
  const std::size_t n = expected_returns.size();
  FASTQAOA_CHECK(covariance.rows() == n && covariance.cols() == n,
                 "portfolio_value: covariance must be n x n");
  FASTQAOA_CHECK(n <= 62, "portfolio_value: too many assets");
  double value = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!bit(x, static_cast<int>(i))) continue;
    value += expected_returns[i];
    for (std::size_t j = 0; j < n; ++j) {
      if (bit(x, static_cast<int>(j))) {
        value -= risk_aversion * covariance(i, j);
      }
    }
  }
  return value;
}

namespace {

/// The block loop shared by the *_table builders. fill(x, len, out) gets
/// the feasible states x[0, len) of one block, len <= kCostTableBlock, and
/// their entries out[0, len), zeroed, and accumulates its terms into them.
template <typename Fill>
dvec blocked_table(const StateSpace& space, Fill&& fill) {
  const index_t dim = space.dim();
  dvec values(dim, 0.0);
  const std::span<const state_t> listed = space.dicke_states();
  const std::ptrdiff_t blocks = static_cast<std::ptrdiff_t>(
      (dim + kCostTableBlock - 1) / kCostTableBlock);
#pragma omp parallel
  {
    std::vector<state_t> iota(listed.empty() ? kCostTableBlock : 0);
#pragma omp for schedule(static)
    for (std::ptrdiff_t b = 0; b < blocks; ++b) {
      const index_t begin = static_cast<index_t>(b) * kCostTableBlock;
      const index_t len = std::min(kCostTableBlock, dim - begin);
      const state_t* x = iota.data();
      if (listed.empty()) {
        for (index_t i = 0; i < len; ++i) iota[i] = begin + i;
      } else {
        x = listed.data() + begin;
      }
      fill(x, len, values.data() + begin);
    }
  }
  return values;
}

/// Per edge in graph order, adds the weight to every entry whose state
/// passes keep(bit u, bit v) and +0.0 to the rest. The sums start at +0.0,
/// so adding +0.0 is exact and the entries equal the scalar functions'.
template <typename Keep>
dvec edge_table(const StateSpace& space, const Graph& g, Keep keep) {
  return blocked_table(space, [&](const state_t* x, index_t len, double* out) {
    for (const Edge& e : g.edges()) {
      const int u = e.u;
      const int v = e.v;
      const double w = e.weight;
      for (index_t i = 0; i < len; ++i) {
        out[i] += keep((x[i] >> u) & 1U, (x[i] >> v) & 1U) ? w : 0.0;
      }
    }
  });
}

}  // namespace

dvec maxcut_table(const StateSpace& space, const Graph& g) {
  return edge_table(space, g,
                    [](state_t bu, state_t bv) { return bu != bv; });
}

dvec densest_subgraph_table(const StateSpace& space, const Graph& g) {
  return edge_table(space, g,
                    [](state_t bu, state_t bv) { return (bu & bv) != 0; });
}

dvec vertex_cover_table(const StateSpace& space, const Graph& g) {
  return edge_table(space, g,
                    [](state_t bu, state_t bv) { return (bu | bv) != 0; });
}

dvec ksat_table(const StateSpace& space, const CnfFormula& f) {
  // A clause's variables are distinct, so it is satisfied iff some
  // variable's bit differs from its negation flag.
  std::vector<state_t> vars;
  std::vector<state_t> negs;
  for (const Clause& clause : f.clauses()) {
    state_t var_mask = 0;
    state_t neg_mask = 0;
    for (const Literal& lit : clause) {
      FASTQAOA_CHECK(lit.variable < 64, "ksat_table: variable out of range");
      var_mask |= state_t{1} << lit.variable;
      if (lit.negated) neg_mask |= state_t{1} << lit.variable;
    }
    vars.push_back(var_mask);
    negs.push_back(neg_mask);
  }
  return blocked_table(space, [&](const state_t* x, index_t len, double* out) {
    int count[kCostTableBlock] = {};
    for (std::size_t c = 0; c < vars.size(); ++c) {
      const state_t var_mask = vars[c];
      const state_t neg_mask = negs[c];
      for (index_t i = 0; i < len; ++i) {
        count[i] += ((x[i] ^ neg_mask) & var_mask) != 0 ? 1 : 0;
      }
    }
    for (index_t i = 0; i < len; ++i) out[i] = static_cast<double>(count[i]);
  });
}

dvec number_partition_table(const StateSpace& space,
                            const std::vector<double>& weights) {
  FASTQAOA_CHECK(weights.size() <= 62, "number_partition: too many items");
  return blocked_table(space, [&](const state_t* x, index_t len, double* out) {
    for (std::size_t j = 0; j < weights.size(); ++j) {
      const double w = weights[j];
      for (index_t i = 0; i < len; ++i) {
        out[i] += ((x[i] >> j) & 1U) != 0 ? w : -w;
      }
    }
    for (index_t i = 0; i < len; ++i) out[i] = std::abs(out[i]);
  });
}

double ising_energy(const Graph& couplings, const std::vector<double>& fields,
                    state_t x) {
  FASTQAOA_CHECK(static_cast<int>(fields.size()) == couplings.num_vertices(),
                 "ising_energy: one field per vertex required");
  double energy = 0.0;
  for (int v = 0; v < couplings.num_vertices(); ++v) {
    const double s = bit(x, v) ? -1.0 : 1.0;
    energy += fields[static_cast<std::size_t>(v)] * s;
  }
  for (const Edge& e : couplings.edges()) {
    const double su = bit(x, e.u) ? -1.0 : 1.0;
    const double sv = bit(x, e.v) ? -1.0 : 1.0;
    energy += e.weight * su * sv;
  }
  return energy;
}

}  // namespace fastqaoa
