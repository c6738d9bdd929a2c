#include "linalg/wht.hpp"

#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "linalg/diag_dict.hpp"
#include "linalg/kernels/kernels.hpp"
#include "obs/metrics.hpp"

namespace fastqaoa::linalg {

bool is_power_of_two(index_t sz) { return sz != 0 && (sz & (sz - 1)) == 0; }

int log2_exact(index_t sz) {
  FASTQAOA_CHECK(is_power_of_two(sz), "log2_exact: size must be a power of 2");
  return std::countr_zero(sz);
}

void wht_unnormalized(StateRef v) {
  const index_t n = v.size();
  FASTQAOA_CHECK(is_power_of_two(n), "wht: length must be a power of 2");
  FASTQAOA_OBS_HIST_TIMED("linalg.wht.seconds");
  kernels::active().wht(v.data(), n);
}

void wht_orthonormal(StateRef v) {
  const index_t n = v.size();
  FASTQAOA_CHECK(is_power_of_two(n), "wht: length must be a power of 2");
  FASTQAOA_OBS_HIST_TIMED("linalg.wht.seconds");
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  // Fold the normalization into the fused pre-pass (null diagonal = pure
  // scale); self-inverse either way since the scale commutes with H.
  kernels::active().phase_wht(v.data(), nullptr, 0.0, scale, n);
}

// The phase sweeps run as one-lane calls of the kernels' batched entries:
// those are the entries that carry the quantized view, and one lane of them
// is the single-state driver bit for bit — with an empty view, exactly the
// driver the phase_wht entry runs.

namespace {

kernels::QuantizedDiag dict_view(const DiagDict* dict) {
  return dict != nullptr ? dict->view() : kernels::QuantizedDiag{};
}

}  // namespace

void phase_wht(StateRef v, const dvec& d, double angle, double scale,
               const DiagDict* dict) {
  const index_t n = v.size();
  FASTQAOA_CHECK(is_power_of_two(n), "wht: length must be a power of 2");
  FASTQAOA_CHECK(d.size() == n, "phase_wht: diagonal size mismatch");
  FASTQAOA_OBS_HIST_TIMED("linalg.wht.seconds");
  const kernels::QuantizedDiag dq = dict_view(dict);
  kernels::active().phase_wht_batch(v.data(), n, 1, nullptr, d.data(), &dq,
                                    &angle, scale, n);
}

double wht_expect(StateRef v, const dvec& obj) {
  const index_t n = v.size();
  FASTQAOA_CHECK(is_power_of_two(n), "wht: length must be a power of 2");
  FASTQAOA_CHECK(obj.size() == n, "wht_expect: objective size mismatch");
  FASTQAOA_OBS_HIST_TIMED("linalg.wht.seconds");
  return kernels::active().wht_expect(v.data(), obj.data(), n);
}

double phase_wht_expect(StateRef v, const dvec& d, double angle, double scale,
                        const dvec& obj, const DiagDict* dict) {
  const index_t n = v.size();
  FASTQAOA_CHECK(is_power_of_two(n), "wht: length must be a power of 2");
  FASTQAOA_CHECK(d.size() == n, "phase_wht_expect: diagonal size mismatch");
  FASTQAOA_CHECK(obj.size() == n,
                 "phase_wht_expect: objective size mismatch");
  FASTQAOA_OBS_HIST_TIMED("linalg.wht.seconds");
  const kernels::QuantizedDiag dq = dict_view(dict);
  double out = 0.0;
  kernels::active().phase_wht_expect_batch(v.data(), n, 1, d.data(), &dq,
                                           &angle, scale, obj.data(), &out, n);
  return out;
}

}  // namespace fastqaoa::linalg
