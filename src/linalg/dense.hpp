#pragma once
/// \file dense.hpp
/// Row-major dense matrices and the matrix-vector kernels that dominate
/// constrained-mixer simulation (psi <- V e^{-i beta D} V^H psi).
///
/// Two element types matter in practice:
///  * Matrix<double>  — Clique/Ring/Grover mixers are real-symmetric on the
///    feasible basis, so their eigenvector matrices are real. A real V times
///    a complex vector is two independent real GEMVs; we exploit that.
///  * Matrix<cplx>    — general Hermitian/unitary custom mixers.

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/alloc.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "linalg/state_ref.hpp"

namespace fastqaoa::linalg {

/// Row-major dense matrix with tracked aligned storage.
template <typename T>
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  /// Construct from a row-major nested initializer list (tests, examples).
  Matrix(std::initializer_list<std::initializer_list<T>> init) {
    rows_ = init.size();
    cols_ = rows_ == 0 ? 0 : init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
      FASTQAOA_CHECK(row.size() == cols_, "Matrix: ragged initializer list");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  T& operator()(index_t r, index_t c) {
    FASTQAOA_ASSERT(r < rows_ && c < cols_, "Matrix: index out of range");
    return data_[r * cols_ + c];
  }
  const T& operator()(index_t r, index_t c) const {
    FASTQAOA_ASSERT(r < rows_ && c < cols_, "Matrix: index out of range");
    return data_[r * cols_ + c];
  }

  [[nodiscard]] T* row(index_t r) { return data_.data() + r * cols_; }
  [[nodiscard]] const T* row(index_t r) const { return data_.data() + r * cols_; }

  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  /// n x n identity.
  static Matrix identity(index_t n) {
    Matrix m(n, n);
    for (index_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  bool operator==(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

 private:
  index_t rows_;
  index_t cols_;
  std::vector<T, TrackedAlignedAllocator<T>> data_;
};

using dmat = Matrix<double>;
using cmat = Matrix<cplx>;

/// y <- A x for real A, complex x (two fused real GEMVs). y must not alias x
/// and must already be sized to a.rows().
void gemv(const dmat& a, ConstStateRef x, StateRef y);

/// y <- A^T x for real A (column traversal, cache-blocked). No aliasing.
void gemv_transpose(const dmat& a, ConstStateRef x, StateRef y);

/// y <- A x for complex A. No aliasing.
void gemv(const cmat& a, ConstStateRef x, StateRef y);

/// y <- A^H x for complex A (conjugate transpose). No aliasing.
void gemv_adjoint(const cmat& a, ConstStateRef x, StateRef y);

/// C <- A B (naive blocked product; used for tests and one-off setup work,
/// never in the simulation hot loop).
dmat matmul(const dmat& a, const dmat& b);
cmat matmul(const cmat& a, const cmat& b);

/// Transpose / conjugate transpose.
dmat transpose(const dmat& a);
cmat adjoint(const cmat& a);

/// Frobenius norm of A - B (test helper).
double frobenius_diff(const dmat& a, const dmat& b);
double frobenius_diff(const cmat& a, const cmat& b);

/// Random matrices for tests: entries uniform in [-1, 1] (real and imaginary
/// parts for the complex case).
dmat random_matrix(index_t rows, index_t cols, Rng& rng);
cmat random_cmatrix(index_t rows, index_t cols, Rng& rng);

/// Symmetrize / hermitize: (A + A^T)/2 or (A + A^H)/2.
dmat symmetrize(const dmat& a);
cmat hermitize(const cmat& a);

}  // namespace fastqaoa::linalg
