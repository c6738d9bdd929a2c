#pragma once
/// Shared test helpers: *independent* reference implementations used to
/// cross-check the production fast paths. Reference code here favours
/// obviousness over speed (dense matrices, Taylor-series exponentials) so a
/// bug in a production kernel cannot hide in its own reference.

#include <cmath>
#include <algorithm>
#include <complex>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "linalg/dense.hpp"

namespace fastqaoa::testutil {

/// Dense complex matrix exponential exp(A) by scaling-and-squaring with a
/// Taylor series. Independent of the library's eigensolvers.
inline linalg::cmat expm(const linalg::cmat& a) {
  const index_t n = a.rows();
  // Scale so the norm is small enough for fast Taylor convergence.
  double max_abs = 0.0;
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c < n; ++c)
      max_abs = std::max(max_abs, std::abs(a(r, c)));
  int squarings = 0;
  double scale = max_abs * static_cast<double>(n);
  while (scale > 0.5) {
    scale *= 0.5;
    ++squarings;
  }
  const double factor = std::ldexp(1.0, -squarings);
  linalg::cmat scaled(n, n);
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c < n; ++c) scaled(r, c) = a(r, c) * factor;

  linalg::cmat result = linalg::cmat::identity(n);
  linalg::cmat term = linalg::cmat::identity(n);
  for (int k = 1; k <= 24; ++k) {
    term = linalg::matmul(term, scaled);
    for (index_t r = 0; r < n; ++r)
      for (index_t c = 0; c < n; ++c) {
        term(r, c) /= static_cast<double>(k);
        result(r, c) += term(r, c);
      }
  }
  for (int s = 0; s < squarings; ++s) result = linalg::matmul(result, result);
  return result;
}

/// exp(-i beta H) for a real-symmetric H, via the Taylor expm above.
inline linalg::cmat exp_minus_i_beta(const linalg::dmat& h, double beta) {
  const index_t n = h.rows();
  linalg::cmat a(n, n);
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c < n; ++c) a(r, c) = cplx{0.0, -beta} * h(r, c);
  return expm(a);
}

/// exp(-i beta H) for complex Hermitian H.
inline linalg::cmat exp_minus_i_beta(const linalg::cmat& h, double beta) {
  const index_t n = h.rows();
  linalg::cmat a(n, n);
  for (index_t r = 0; r < n; ++r)
    for (index_t c = 0; c < n; ++c) a(r, c) = cplx{0.0, -beta} * h(r, c);
  return expm(a);
}

/// y = M x (dense, no tricks).
inline cvec matvec(const linalg::cmat& m, const cvec& x) {
  cvec y(m.rows(), cplx{0.0, 0.0});
  for (index_t r = 0; r < m.rows(); ++r) {
    cplx acc{0.0, 0.0};
    for (index_t c = 0; c < m.cols(); ++c) acc += m(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

/// Max elementwise |v - w|. Views of different sizes differ by +infinity,
/// so every max_diff(...) < tol check fails on a size mismatch.
inline double max_diff(linalg::ConstStateRef v, linalg::ConstStateRef w) {
  if (v.size() != w.size()) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (index_t i = 0; i < v.size(); ++i) m = std::max(m, std::abs(v[i] - w[i]));
  return m;
}

/// Uniform superposition of the given dimension.
inline cvec uniform_state(index_t dim) {
  return cvec(dim, cplx{1.0 / std::sqrt(static_cast<double>(dim)), 0.0});
}

/// Random unit-norm complex state.
inline cvec random_state(index_t dim, Rng& rng) {
  cvec psi(dim);
  double norm_sq = 0.0;
  for (auto& amp : psi) {
    amp = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    norm_sq += std::norm(amp);
  }
  const double inv = 1.0 / std::sqrt(norm_sq);
  for (auto& amp : psi) amp *= inv;
  return psi;
}

}  // namespace fastqaoa::testutil
