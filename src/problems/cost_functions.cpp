#include "problems/cost_functions.hpp"

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
