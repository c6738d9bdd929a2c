#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace fastqaoa::linalg {

namespace {

/// Sweep cap: cyclic Jacobi on well-scaled input converges in O(log n)
/// sweeps; the cap only guards pathological (e.g. heavily graded) inputs.
constexpr int kMaxSweeps = 60;

/// Relative off-diagonal threshold below which a column pair counts as
/// orthogonal. The inner product of two numerically orthogonal unit columns
/// of length m carries rounding noise of order sqrt(m) * eps, so the
/// threshold must sit above that floor — a fixed near-eps constant makes
/// every pair fail forever and every call burn the full sweep cap rotating
/// by noise-level angles.
double orth_tol(index_t m) {
  constexpr double kEps = 2.220446049250313e-16;
  return 8.0 * std::sqrt(static_cast<double>(m)) * kEps;
}

double abs2(double x) { return x * x; }
double abs2(const cplx& x) { return std::norm(x); }
double conj_mul_real(double a, double b) { return a * b; }

/// Phase-aligned Jacobi rotation over a contiguous row pair:
///   x' = c*x - s*(conj(phase)*y),  y' = s*(phase*x) + c*y.
/// The complex overload works on unrolled real/imag pairs so the loop
/// vectorizes (std::complex arithmetic does not).
void rotate_pair(double* x, double* y, index_t m, double c, double s,
                 double phase) {
  const double k = s * phase;
  for (index_t i = 0; i < m; ++i) {
    const double a = x[i];
    const double b = y[i];
    x[i] = c * a - k * b;
    y[i] = k * a + c * b;
  }
}

void rotate_pair(cplx* x, cplx* y, index_t m, double c, double s, cplx phase) {
  const double kr = s * phase.real();
  const double ki = s * phase.imag();
  double* xd = reinterpret_cast<double*>(x);
  double* yd = reinterpret_cast<double*>(y);
  for (index_t i = 0; i < m; ++i) {
    const double ar = xd[2 * i];
    const double ai = xd[2 * i + 1];
    const double br = yd[2 * i];
    const double bi = yd[2 * i + 1];
    xd[2 * i] = c * ar - (kr * br + ki * bi);
    xd[2 * i + 1] = c * ai - (kr * bi - ki * br);
    yd[2 * i] = (kr * ar - ki * ai) + c * br;
    yd[2 * i + 1] = (kr * ai + ki * ar) + c * bi;
  }
}

/// One-sided Jacobi core on transposed storage: row j of `wt` holds column
/// j of the original m x n matrix (so each "column" is a contiguous length-m
/// array), and row j of `vt` holds column j of the accumulated V. Contiguous
/// rows + raw pointers keep the O(n^2 m) inner loops out of the per-element
/// bounds checks Matrix::operator() carries (they are always on in this
/// codebase) and let them vectorize. Fixed cyclic pair order (p, q), p < q —
/// the determinism contract.
///
/// A pair counts as converged when the columns are orthogonal relative to
/// their own norms, or when either column's squared norm is at most
/// `negligible` (the caller's orth_tol(m)^2 * ||A||_F^2). The relative test
/// alone never passes for a column of pure rounding noise — its inner
/// product with an O(1) column is noise of the same relative size — so
/// without the second test a rank-deficient input rotates noise until the
/// sweep cap. Returns the number of sweeps run, counting the final one that
/// found every pair converged.
template <typename T>
int jacobi_orthogonalize(Matrix<T>& wt, Matrix<T>& vt, double negligible) {
  const index_t n = wt.rows();
  const index_t m = wt.cols();
  const double tol = orth_tol(m);
  int sweeps = 0;
  while (sweeps < kMaxSweeps) {
    ++sweeps;
    bool rotated = false;
    for (index_t p = 0; p + 1 < n; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        T* wp = wt.row(p);
        T* wq = wt.row(q);
        double app = 0.0;
        double aqq = 0.0;
        T apq{};
        if constexpr (std::is_same_v<T, cplx>) {
          // Unrolled real/imag arithmetic: std::complex operations defeat
          // vectorization in this O(n^2 m)-per-sweep loop, and the Jacobi
          // sweeps are the entire cost of an MPS bond split.
          const double* pd = reinterpret_cast<const double*>(wp);
          const double* qd = reinterpret_cast<const double*>(wq);
          double re = 0.0;
          double im = 0.0;
          for (index_t i = 0; i < m; ++i) {
            const double ar = pd[2 * i];
            const double ai = pd[2 * i + 1];
            const double br = qd[2 * i];
            const double bi = qd[2 * i + 1];
            app += ar * ar + ai * ai;
            aqq += br * br + bi * bi;
            re += ar * br + ai * bi;
            im += ar * bi - ai * br;
          }
          apq = cplx{re, im};
        } else {
          for (index_t i = 0; i < m; ++i) {
            app += abs2(wp[i]);
            aqq += abs2(wq[i]);
            apq += conj_mul_real(wp[i], wq[i]);
          }
        }
        if (app <= negligible || aqq <= negligible) continue;
        const double r = std::abs(apq);
        if (r <= tol * std::sqrt(app * aqq)) continue;
        rotated = true;
        // Align the pair's inner product onto the real axis, then apply the
        // classic real Jacobi rotation that zeroes the 2x2 Gram
        // off-diagonal [[app, r], [r, aqq]].
        T phase;
        if constexpr (std::is_same_v<T, cplx>) {
          phase = apq / r;
        } else {
          phase = apq >= 0.0 ? 1.0 : -1.0;
        }
        const double tau = (aqq - app) / (2.0 * r);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        rotate_pair(wp, wq, m, c, s, phase);
        rotate_pair(vt.row(p), vt.row(q), n, c, s, phase);
      }
    }
    if (!rotated) break;
  }
  return sweeps;
}

template <typename T>
void check_input(const Matrix<T>& a) {
  FASTQAOA_CHECK(a.rows() > 0 && a.cols() > 0, "svd: empty matrix");
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      if constexpr (std::is_same_v<T, cplx>) {
        FASTQAOA_CHECK(std::isfinite(a(i, j).real()) &&
                           std::isfinite(a(i, j).imag()),
                       "svd: non-finite entry");
      } else {
        FASTQAOA_CHECK(std::isfinite(a(i, j)), "svd: non-finite entry");
      }
    }
  }
}

/// Tall-or-square decomposition (m >= n): Jacobi on a working copy, then
/// sort singular values descending with original-index tie-break (a stable
/// sort on indices — the second leg of the determinism contract).
/// Plain (non-conjugating) transpose; linalg::transpose only exists for
/// dmat and adjoint() would conjugate.
template <typename T>
Matrix<T> plain_transpose(const Matrix<T>& a) {
  Matrix<T> t(a.cols(), a.rows());
  for (index_t i = 0; i < a.rows(); ++i) {
    const T* src = a.row(i);
    for (index_t j = 0; j < a.cols(); ++j) t(j, i) = src[j];
  }
  return t;
}

template <typename T, typename Result>
Result svd_tall(const Matrix<T>& a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  Matrix<T> wt = plain_transpose(a);      // row j = column j of A
  Matrix<T> vt = Matrix<T>::identity(n);  // row j = column j of V
  // ||A||_F^2 summed in a fixed order: the negligible-column threshold is a
  // pure function of the input bits.
  double frob2 = 0.0;
  for (index_t j = 0; j < n; ++j) {
    const T* col = wt.row(j);
    for (index_t i = 0; i < m; ++i) frob2 += abs2(col[i]);
  }
  const double negligible = abs2(orth_tol(m)) * frob2;
  Result out;
  out.sweeps = jacobi_orthogonalize(wt, vt, negligible);

  std::vector<double> norm2(n);
  for (index_t j = 0; j < n; ++j) {
    const T* col = wt.row(j);
    double sum = 0.0;
    for (index_t i = 0; i < m; ++i) sum += abs2(col[i]);
    norm2[j] = sum;
  }
  std::vector<index_t> order(n);
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(), [&norm2](index_t x, index_t y) {
    return norm2[x] > norm2[y];
  });

  out.singular_values.resize(n);
  out.u = Matrix<T>(m, n);
  out.v = Matrix<T>(n, n);
  for (index_t j = 0; j < n; ++j) {
    const index_t src = order[j];
    const double sv = std::sqrt(norm2[src]);
    out.singular_values[j] = sv;
    if (norm2[src] > negligible) out.rank = j + 1;
    const double inv = sv > 0.0 ? 1.0 / sv : 0.0;
    const T* ucol = wt.row(src);
    const T* vcol = vt.row(src);
    for (index_t i = 0; i < m; ++i) out.u(i, j) = ucol[i] * inv;
    for (index_t i = 0; i < n; ++i) out.v(i, j) = vcol[i];
  }
  return out;
}

}  // namespace

SvdResult svd(const dmat& a) {
  check_input(a);
  if (a.rows() >= a.cols()) return svd_tall<double, SvdResult>(a);
  // Wide input: A^T = U' S V'^T  =>  A = V' S U'^T.
  SvdResult t = svd_tall<double, SvdResult>(transpose(a));
  SvdResult out;
  out.singular_values = std::move(t.singular_values);
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.sweeps = t.sweeps;
  out.rank = t.rank;
  return out;
}

CSvdResult svd(const cmat& a) {
  check_input(a);
  if (a.rows() >= a.cols()) return svd_tall<cplx, CSvdResult>(a);
  // Wide input: A^H = U' S V'^H  =>  A = V' S U'^H.
  CSvdResult t = svd_tall<cplx, CSvdResult>(adjoint(a));
  CSvdResult out;
  out.singular_values = std::move(t.singular_values);
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.sweeps = t.sweeps;
  out.rank = t.rank;
  return out;
}

namespace {

template <typename T, typename Result>
double residual(const Matrix<T>& a, const Result& r) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t k = r.singular_values.size();
  double sum = 0.0;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      T acc{};
      for (index_t l = 0; l < k; ++l) {
        if constexpr (std::is_same_v<T, cplx>) {
          acc += r.u(i, l) * r.singular_values[l] * std::conj(r.v(j, l));
        } else {
          acc += r.u(i, l) * r.singular_values[l] * r.v(j, l);
        }
      }
      sum += abs2(a(i, j) - acc);
    }
  }
  return std::sqrt(sum);
}

}  // namespace

double svd_residual(const dmat& a, const SvdResult& r) {
  return residual(a, r);
}

double svd_residual(const cmat& a, const CSvdResult& r) {
  return residual(a, r);
}

}  // namespace fastqaoa::linalg
