#pragma once
/// \file svd.hpp
/// Thin singular value decomposition via one-sided Jacobi — the last piece
/// of dense linear algebra the MPS engine needs on top of the Householder/QL
/// machinery in eigen_sym.
///
/// One-sided Jacobi orthogonalizes the *columns* of a working copy W of A by
/// plane rotations: each sweep visits every column pair (p, q), p < q, in a
/// fixed cyclic order and rotates the pair so the columns become orthogonal.
/// At convergence the column norms are the singular values, the normalized
/// columns are U, and the accumulated rotations are V (A = U S V^H). The
/// method is slower than bidiagonalization-based SVD but is simple, robust,
/// and — crucially for the MPS truncation contract — *deterministic*: the
/// sweep order is fixed, ties in the final descending sort break on the
/// original column index, and no parallelism or pivoting makes the result
/// depend on thread count. Identical input bits give identical output bits
/// on every run, which is what makes MPS truncation reproducible across
/// thread and worker counts.
///
/// Shapes: for an m x n input with k = min(m, n), `u` is m x k, `v` is
/// n x k, and `singular_values` holds k non-negative values sorted
/// descending. Inputs with m < n are handled by decomposing the (conjugate)
/// transpose and swapping the factors.
///
/// Negligible columns: with k' = max(m, n), a working column whose squared
/// norm is at most (8 sqrt(k') eps)^2 ||A||_F^2 is treated as converged
/// against every other column and is not rotated further. Singular values at
/// that level are below what any backward-stable SVD resolves; rotating them
/// only rotates rounding noise, which on rank-deficient input never
/// converges. The test reads nothing but the input bits, so it keeps the
/// determinism contract. `rank` counts the leading singular values above the
/// threshold. Past `rank`, the singular values are rounding-level (or exact
/// zeros) and their U columns are NOT an orthonormal completion: a
/// rounding-level value's U column is its normalized noise column, which
/// need not be orthogonal to the kept ones, and an exact zero's U column is
/// the zero vector. They multiply against S at that level, so A = U S V^H
/// still reconstructs to rounding; callers that need an orthonormal basis
/// keep the leading `rank` columns (or complete the rest themselves).

#include "linalg/dense.hpp"

namespace fastqaoa::linalg {

/// Real thin SVD: A = U S V^T.
struct SvdResult {
  dvec singular_values;  ///< k = min(m, n) values, descending
  dmat u;                ///< m x k
  dmat v;                ///< n x k
  int sweeps = 0;        ///< Jacobi sweeps run, the converged one included
  index_t rank = 0;      ///< leading singular values above the negligible level
};

/// Complex thin SVD: A = U S V^H. Singular values are real non-negative.
struct CSvdResult {
  dvec singular_values;
  cmat u;
  cmat v;
  int sweeps = 0;
  index_t rank = 0;
};

/// Deterministic one-sided Jacobi SVD. Throws fastqaoa::Error on an empty
/// matrix or non-finite entries.
SvdResult svd(const dmat& a);
CSvdResult svd(const cmat& a);

/// Largest reconstruction residual ||A - U S V^H||_F (test helper).
double svd_residual(const dmat& a, const SvdResult& r);
double svd_residual(const cmat& a, const CSvdResult& r);

}  // namespace fastqaoa::linalg
