// Unit tests for dense matrices and the GEMV kernels used by
// eigendecomposition mixers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "linalg/dense.hpp"
#include "linalg/eigen_herm.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/svd.hpp"
#include "test_util.hpp"

namespace fastqaoa {
namespace {

using linalg::adjoint;
using linalg::cmat;
using linalg::dmat;
using linalg::frobenius_diff;
using linalg::gemv;
using linalg::gemv_adjoint;
using linalg::gemv_transpose;
using linalg::hermitize;
using linalg::matmul;
using linalg::random_cmatrix;
using linalg::random_matrix;
using linalg::symmetrize;
using linalg::transpose;

TEST(DenseMatrix, ConstructionAndIndexing) {
  dmat m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(DenseMatrix, InitializerList) {
  dmat m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(DenseMatrix, IdentityActsTrivially) {
  Rng rng(1);
  const dmat eye = dmat::identity(8);
  cvec x = testutil::random_state(8, rng);
  cvec y(8);
  gemv(eye, x, y);
  EXPECT_LT(testutil::max_diff(x, y), 1e-15);
}

TEST(Gemv, RealMatrixMatchesNaive) {
  Rng rng(2);
  const dmat a = random_matrix(7, 5, rng);
  cvec x = testutil::random_state(5, rng);
  cvec y(7);
  gemv(a, x, y);
  for (index_t r = 0; r < 7; ++r) {
    cplx acc{0.0, 0.0};
    for (index_t c = 0; c < 5; ++c) acc += a(r, c) * x[c];
    EXPECT_NEAR(std::abs(y[r] - acc), 0.0, 1e-13);
  }
}

TEST(Gemv, TransposeMatchesExplicitTranspose) {
  Rng rng(3);
  const dmat a = random_matrix(9, 6, rng);
  const dmat at = transpose(a);
  cvec x = testutil::random_state(9, rng);
  cvec y1(6), y2(6);
  gemv_transpose(a, x, y1);
  gemv(at, x, y2);
  EXPECT_LT(testutil::max_diff(y1, y2), 1e-13);
}

TEST(Gemv, ComplexMatchesNaive) {
  Rng rng(4);
  const cmat a = random_cmatrix(6, 6, rng);
  cvec x = testutil::random_state(6, rng);
  cvec y(6);
  gemv(a, x, y);
  cvec expected = testutil::matvec(a, x);
  EXPECT_LT(testutil::max_diff(y, expected), 1e-13);
}

TEST(Gemv, AdjointMatchesExplicitAdjoint) {
  Rng rng(5);
  const cmat a = random_cmatrix(8, 8, rng);
  const cmat ah = adjoint(a);
  cvec x = testutil::random_state(8, rng);
  cvec y1(8);
  gemv_adjoint(a, x, y1);
  cvec y2 = testutil::matvec(ah, x);
  EXPECT_LT(testutil::max_diff(y1, y2), 1e-13);
}

TEST(Gemv, LargeBlockedTransposeCrossesBlockBoundary) {
  // The transpose kernel processes 256-column blocks; exercise > 1 block.
  Rng rng(6);
  const dmat a = random_matrix(300, 600, rng);
  const dmat at = transpose(a);
  cvec x = testutil::random_state(300, rng);
  cvec y1(600), y2(600);
  gemv_transpose(a, x, y1);
  gemv(at, x, y2);
  EXPECT_LT(testutil::max_diff(y1, y2), 1e-11);
}

TEST(Gemv, DimensionMismatchThrows) {
  const dmat a(3, 4);
  cvec x(3), y(3);
  EXPECT_THROW(gemv(a, x, y), Error);
  cvec x2(4), y2(4);
  EXPECT_THROW(gemv(a, x2, y2), Error);
}

TEST(Matmul, AssociatesWithIdentity) {
  Rng rng(7);
  const dmat a = random_matrix(5, 5, rng);
  EXPECT_LT(frobenius_diff(matmul(a, dmat::identity(5)), a), 1e-13);
  EXPECT_LT(frobenius_diff(matmul(dmat::identity(5), a), a), 1e-13);
}

TEST(Matmul, KnownProduct) {
  dmat a = {{1.0, 2.0}, {3.0, 4.0}};
  dmat b = {{5.0, 6.0}, {7.0, 8.0}};
  dmat c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matmul, ComplexAdjointProductIsHermitian) {
  Rng rng(8);
  const cmat a = random_cmatrix(6, 6, rng);
  const cmat aha = matmul(adjoint(a), a);
  EXPECT_LT(frobenius_diff(aha, hermitize(aha)), 1e-12);
}

TEST(Symmetrize, ProducesSymmetricMatrix) {
  Rng rng(9);
  const dmat s = symmetrize(random_matrix(10, 10, rng));
  EXPECT_LT(frobenius_diff(s, transpose(s)), 1e-14);
}

TEST(Hermitize, ProducesHermitianMatrix) {
  Rng rng(10);
  const cmat h = hermitize(random_cmatrix(10, 10, rng));
  EXPECT_LT(frobenius_diff(h, adjoint(h)), 1e-14);
  for (index_t i = 0; i < 10; ++i) EXPECT_NEAR(h(i, i).imag(), 0.0, 1e-15);
}

TEST(DenseMatrix, RaggedInitializerThrows) {
  auto make_ragged = [] { return dmat{{1.0, 2.0}, {3.0}}; };
  EXPECT_THROW(make_ragged(), Error);
}

// ---------------------------------------------------------------------------
// SVD golden tests: reconstruction, orthonormality, agreement with eigh on
// the Gram matrix, rank-deficient and ill-conditioned inputs, determinism.
// ---------------------------------------------------------------------------

namespace {

double orthonormality_error(const dmat& u) {
  return frobenius_diff(matmul(transpose(u), u), dmat::identity(u.cols()));
}

double orthonormality_error(const cmat& u) {
  const cmat g = matmul(adjoint(u), u);
  cmat eye(u.cols(), u.cols());
  for (index_t i = 0; i < u.cols(); ++i) eye(i, i) = cplx{1.0, 0.0};
  return frobenius_diff(g, eye);
}

}  // namespace

TEST(Svd, RandomTallReconstructs) {
  Rng rng(11);
  const dmat a = random_matrix(9, 5, rng);
  const linalg::SvdResult r = linalg::svd(a);
  ASSERT_EQ(r.singular_values.size(), 5u);
  EXPECT_EQ(r.u.rows(), 9u);
  EXPECT_EQ(r.u.cols(), 5u);
  EXPECT_EQ(r.v.rows(), 5u);
  EXPECT_EQ(r.v.cols(), 5u);
  EXPECT_LT(linalg::svd_residual(a, r), 1e-12);
  EXPECT_LT(orthonormality_error(r.u), 1e-12);
  EXPECT_LT(orthonormality_error(r.v), 1e-12);
  EXPECT_TRUE(std::is_sorted(r.singular_values.begin(),
                             r.singular_values.end(),
                             [](double x, double y) { return x > y; }));
}

TEST(Svd, RandomWideReconstructs) {
  Rng rng(12);
  const dmat a = random_matrix(4, 8, rng);
  const linalg::SvdResult r = linalg::svd(a);
  ASSERT_EQ(r.singular_values.size(), 4u);
  EXPECT_EQ(r.u.rows(), 4u);
  EXPECT_EQ(r.u.cols(), 4u);
  EXPECT_EQ(r.v.rows(), 8u);
  EXPECT_EQ(r.v.cols(), 4u);
  EXPECT_LT(linalg::svd_residual(a, r), 1e-12);
  EXPECT_LT(orthonormality_error(r.u), 1e-12);
  EXPECT_LT(orthonormality_error(r.v), 1e-12);
}

TEST(Svd, ComplexReconstructsBothOrientations) {
  Rng rng(13);
  const cmat tall = random_cmatrix(7, 4, rng);
  const linalg::CSvdResult rt = linalg::svd(tall);
  EXPECT_LT(linalg::svd_residual(tall, rt), 1e-12);
  EXPECT_LT(orthonormality_error(rt.u), 1e-12);
  EXPECT_LT(orthonormality_error(rt.v), 1e-12);
  const cmat wide = random_cmatrix(3, 6, rng);
  const linalg::CSvdResult rw = linalg::svd(wide);
  EXPECT_LT(linalg::svd_residual(wide, rw), 1e-12);
  EXPECT_LT(orthonormality_error(rw.u), 1e-12);
  EXPECT_LT(orthonormality_error(rw.v), 1e-12);
}

TEST(Svd, SingularValuesMatchEighOfGram) {
  // Golden cross-check: sigma_j^2 are the eigenvalues of A^T A, which the
  // independent Householder/QL path computes. eigh sorts ascending.
  Rng rng(14);
  const dmat a = random_matrix(8, 6, rng);
  const linalg::SvdResult r = linalg::svd(a);
  const dvec evals = linalg::eigvalsh(matmul(transpose(a), a));
  ASSERT_EQ(evals.size(), 6u);
  for (index_t j = 0; j < 6; ++j) {
    const double expected = std::sqrt(std::max(0.0, evals[5 - j]));
    EXPECT_NEAR(r.singular_values[j], expected, 1e-10);
  }
}

TEST(Svd, RankDeficientDuplicateColumns) {
  Rng rng(15);
  dmat a = random_matrix(7, 4, rng);
  for (index_t i = 0; i < 7; ++i) {
    a(i, 2) = a(i, 0);              // exact duplicate -> rank <= 3
    a(i, 3) = 2.0 * a(i, 1);        // exact multiple  -> rank <= 2
  }
  const linalg::SvdResult r = linalg::svd(a);
  EXPECT_LT(r.singular_values[2], 1e-12 * r.singular_values[0]);
  EXPECT_LT(r.singular_values[3], 1e-12 * r.singular_values[0]);
  EXPECT_LT(linalg::svd_residual(a, r), 1e-12);
}

TEST(Svd, IllConditionedRecoversSpectrum) {
  // Build A = U S V^T from known orthonormal frames (eigenvectors of random
  // symmetric matrices) and a geometric spectrum spanning 10 decades.
  Rng rng(16);
  const index_t n = 6;
  const dmat u = linalg::eigh(symmetrize(random_matrix(n, n, rng))).vectors;
  const dmat v = linalg::eigh(symmetrize(random_matrix(n, n, rng))).vectors;
  dvec sigma(n);
  for (index_t j = 0; j < n; ++j) sigma[j] = std::pow(10.0, -2.0 * double(j));
  dmat us(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) us(i, j) = u(i, j) * sigma[j];
  const dmat a = matmul(us, transpose(v));
  const linalg::SvdResult r = linalg::svd(a);
  // One-sided Jacobi has high *relative* accuracy on graded matrices, but
  // forming A = U S V^T in floating point already perturbs A by ~1e-16
  // absolute, i.e. up to ~1e-6 relative to the smallest value — that, not
  // the solver, bounds the achievable tolerance here.
  for (index_t j = 0; j < n; ++j) {
    EXPECT_NEAR(r.singular_values[j] / sigma[j], 1.0, 1e-6)
        << "sigma index " << j;
  }
  EXPECT_LT(linalg::svd_residual(a, r), 1e-12);
}

// Rank-deficient complex input, the shape of an MPS bond split: the columns
// past the numerical rank are rounding noise. The solver must stop rotating
// them, and what it keeps must still be an exact SVD of the rank-r part.
// Exactly repeated rows and columns (what a qubit still in |+> leaves in a
// split) are the hard case: a pair-relative orthogonality test alone never
// passes for their noise columns, so those calls ran to the sweep cap.
void expect_rank_deficient_split(const cmat& a, index_t rank) {
  const linalg::CSvdResult r = linalg::svd(a);
  EXPECT_LE(r.sweeps, 20);
  EXPECT_EQ(r.rank, rank);
  double frob2 = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) frob2 += std::norm(a(i, j));
  }
  EXPECT_LE(linalg::svd_residual(a, r), 1e-12 * std::sqrt(frob2));

  // Oracle sharing no code with the solver: eigenvalues of A^H A from the
  // Hermitian eigensolver (ascending).
  const dvec evals = linalg::eigh(matmul(adjoint(a), a)).eigenvalues;
  const index_t n = evals.size();
  for (index_t j = 0; j < rank; ++j) {
    const double sigma2 = r.singular_values[j] * r.singular_values[j];
    EXPECT_NEAR(sigma2 / evals[n - 1 - j], 1.0, 1e-12) << "sigma index " << j;
  }

  cmat kept(a.rows(), rank);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < rank; ++j) kept(i, j) = r.u(i, j);
  }
  EXPECT_LT(orthonormality_error(kept), 1e-12);
}

TEST(Svd, RankDeficientComplexProductsConvergeFast) {
  Rng rng(18);
  for (index_t rank : {index_t{2}, index_t{4}, index_t{8}}) {
    SCOPED_TRACE(rank);
    // Generic 16 x r times r x 16.
    expect_rank_deficient_split(
        matmul(random_cmatrix(16, rank, rng), random_cmatrix(rank, 16, rng)),
        rank);
    // The same with every row and column repeated 16 / r times.
    const cmat x = random_cmatrix(rank, rank, rng);
    const cmat y = random_cmatrix(rank, rank, rng);
    cmat left(16, rank);
    cmat right(rank, 16);
    for (index_t i = 0; i < 16; ++i) {
      for (index_t k = 0; k < rank; ++k) {
        left(i, k) = x(i % rank, k);
        right(k, i) = y(k, i % rank);
      }
    }
    expect_rank_deficient_split(matmul(left, right), rank);
  }
}

TEST(Svd, SwapGateThetaConvergesFast) {
  // theta(l, s0, s1, r) = sum_b A(l, s1, b) B(b, s0, r) — two site tensors
  // with their physical legs exchanged, matricized rows (l, s0) x cols
  // (s1, r) as in an MPS swap. Site B is still in |+> (its two physical
  // slices are equal), so theta's rows repeat in pairs and a middle bond of
  // 2 leaves rank 2 * 2.
  Rng rng(19);
  const index_t dl = 8;
  const index_t dm = 2;
  const index_t dr = 8;
  const cmat site_a = random_cmatrix(dl * 2, dm, rng);  // rows (l, s)
  cmat site_b = random_cmatrix(dm * 2, dr, rng);        // rows (b, s)
  for (index_t b = 0; b < dm; ++b) {
    for (index_t rr = 0; rr < dr; ++rr) {
      site_b(b * 2 + 1, rr) = site_b(b * 2, rr);
    }
  }
  cmat theta(dl * 2, 2 * dr);
  for (index_t l = 0; l < dl; ++l) {
    for (index_t s0 = 0; s0 < 2; ++s0) {
      for (index_t s1 = 0; s1 < 2; ++s1) {
        for (index_t rr = 0; rr < dr; ++rr) {
          cplx acc{};
          for (index_t b = 0; b < dm; ++b) {
            acc += site_a(l * 2 + s1, b) * site_b(b * 2 + s0, rr);
          }
          theta(l * 2 + s0, s1 * dr + rr) = acc;
        }
      }
    }
  }
  expect_rank_deficient_split(theta, 2 * dm);
}

TEST(Svd, DeterministicAcrossCalls) {
  Rng rng(17);
  const dmat a = random_matrix(10, 7, rng);
  const linalg::SvdResult r1 = linalg::svd(a);
  const linalg::SvdResult r2 = linalg::svd(a);
  EXPECT_TRUE(r1.u == r2.u);
  EXPECT_TRUE(r1.v == r2.v);
  EXPECT_EQ(r1.singular_values, r2.singular_values);
  EXPECT_EQ(r1.sweeps, r2.sweeps);
  EXPECT_EQ(r1.rank, r2.rank);
}

TEST(Svd, RejectsEmptyAndNonFinite) {
  EXPECT_THROW(linalg::svd(dmat()), Error);
  dmat bad = {{1.0, 2.0}, {3.0, std::nan("")}};
  EXPECT_THROW(linalg::svd(bad), Error);
}

}  // namespace
}  // namespace fastqaoa
