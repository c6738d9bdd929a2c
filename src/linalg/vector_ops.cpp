#include "linalg/vector_ops.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/diag_dict.hpp"
#include "linalg/kernels/kernels.hpp"

namespace fastqaoa::linalg {

namespace {
using std::ptrdiff_t;

/// Elementwise loops below this many complex elements run serially: for
/// Dicke-subspace states and small service jobs the OpenMP region launch
/// costs more than the loop. Kernel-backed ops get the same cutoff inside
/// the backend; this guard covers the loops that stay local to this TU.
constexpr ptrdiff_t kSerialElems = 8192;
}  // namespace

void fill(StateRef v, cplx value) {
  kernels::active().fill(v.data(), value.real(), value.imag(), v.size());
}

void copy_state(ConstStateRef src, StateRef dst) {
  FASTQAOA_CHECK(src.size() == dst.size(), "copy_state: size mismatch");
  // copy_scale by 1.0 is exact and reuses the kernels' parallel sweep.
  kernels::active().copy_scale(dst.data(), src.data(), 1.0, src.size());
}

void scale(StateRef v, cplx s) {
  kernels::active().scale(v.data(), s.real(), s.imag(), v.size());
}

void axpy(cplx a, ConstStateRef x, StateRef y) {
  FASTQAOA_CHECK(x.size() == y.size(), "axpy: size mismatch");
  kernels::active().axpy(a.real(), a.imag(), x.data(), y.data(), x.size());
}

cplx dot(ConstStateRef x, ConstStateRef y) {
  FASTQAOA_CHECK(x.size() == y.size(), "dot: size mismatch");
  const kernels::CplxSum s = kernels::active().dot(x.data(), y.data(),
                                                   x.size());
  return {s.re, s.im};
}

double norm_sq(ConstStateRef v) {
  return kernels::active().norm_sq(v.data(), v.size());
}

double norm(ConstStateRef v) { return std::sqrt(norm_sq(v)); }

double normalize(StateRef v) {
  const double nrm = norm(v);
  FASTQAOA_CHECK(nrm > 0.0, "normalize: zero vector");
  scale(v, cplx{1.0 / nrm, 0.0});
  return nrm;
}

void apply_diag_phase(StateRef psi, const dvec& d, double angle,
                      const DiagDict* dict) {
  FASTQAOA_CHECK(psi.size() == d.size(), "apply_diag_phase: size mismatch");
  const kernels::QuantizedDiag dq =
      dict != nullptr ? dict->view() : kernels::QuantizedDiag{};
  kernels::active().diag_phase(psi.data(), d.data(), &dq, angle, psi.size());
}

void diag_mul(StateRef psi, const dvec& d, double s) {
  FASTQAOA_CHECK(psi.size() == d.size(), "diag_mul: size mismatch");
  kernels::active().diag_mul(psi.data(), d.data(), s, psi.size());
}

void apply_threshold_phase(StateRef psi, const dvec& d, double threshold,
                           double angle) {
  FASTQAOA_CHECK(psi.size() == d.size(),
                 "apply_threshold_phase: size mismatch");
  const ptrdiff_t n = static_cast<ptrdiff_t>(psi.size());
  const cplx phase{std::cos(angle), -std::sin(angle)};
  if (n <= kSerialElems) {
    for (ptrdiff_t i = 0; i < n; ++i) {
      if (d[i] > threshold) psi[i] *= phase;
    }
    return;
  }
#pragma omp parallel for schedule(static)
  for (ptrdiff_t i = 0; i < n; ++i) {
    if (d[i] > threshold) psi[i] *= phase;
  }
}

double diag_expectation(const dvec& d, ConstStateRef psi) {
  FASTQAOA_CHECK(psi.size() == d.size(), "diag_expectation: size mismatch");
  return kernels::active().diag_expectation(d.data(), psi.data(), psi.size());
}

double diag_bracket_imag(ConstStateRef lambda, const dvec& d,
                         ConstStateRef psi) {
  FASTQAOA_CHECK(lambda.size() == d.size() && psi.size() == d.size(),
                 "diag_bracket_imag: size mismatch");
  return kernels::active().diag_bracket_imag(lambda.data(), d.data(),
                                             psi.data(), psi.size());
}

double probability_at_value(const dvec& d, ConstStateRef psi, double value,
                            double tol) {
  FASTQAOA_CHECK(psi.size() == d.size(), "probability_at_value: size mismatch");
  const ptrdiff_t n = static_cast<ptrdiff_t>(psi.size());
  double acc = 0.0;
  if (n <= kSerialElems) {
    for (ptrdiff_t i = 0; i < n; ++i) {
      if (std::abs(d[i] - value) <= tol) acc += std::norm(psi[i]);
    }
    return acc;
  }
#pragma omp parallel for schedule(static) reduction(+ : acc)
  for (ptrdiff_t i = 0; i < n; ++i) {
    if (std::abs(d[i] - value) <= tol) acc += std::norm(psi[i]);
  }
  return acc;
}

double max_abs_diff(ConstStateRef v, ConstStateRef w) {
  FASTQAOA_CHECK(v.size() == w.size(), "max_abs_diff: size mismatch");
  return kernels::active().max_abs_diff(v.data(), w.data(), v.size());
}

}  // namespace fastqaoa::linalg
