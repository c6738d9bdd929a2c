#include "mixers/mixer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/vector_ops.hpp"

namespace fastqaoa {

void Mixer::initial_state(cvec& psi) const {
  psi.assign(dim(), cplx{0.0, 0.0});
  const double amp = 1.0 / std::sqrt(static_cast<double>(dim()));
  linalg::fill(psi, cplx{amp, 0.0});
}

void Mixer::apply_phase_exp(StateRef psi, const dvec& phase,
                            const linalg::DiagDict* phase_dict, double gamma,
                            double beta, cvec& scratch) const {
  linalg::apply_diag_phase(psi, phase, gamma, phase_dict);
  apply_exp(psi, beta, scratch);
}

double Mixer::apply_phase_exp_expect(StateRef psi, const dvec& phase,
                                     const linalg::DiagDict* phase_dict,
                                     double gamma, double beta,
                                     const dvec& obj, cvec& scratch) const {
  apply_phase_exp(psi, phase, phase_dict, gamma, beta, scratch);
  return linalg::diag_expectation(obj, psi);
}

// The batch defaults bounce every lane through the single-state virtuals via
// a temporary cvec, so any mixer is batch-correct (and bit-identical to the
// sequential path) for free; only the copies and the per-call allocation are
// fallback-grade. Mixers with a cheap diagonal frame override these.

void Mixer::apply_phase_exp_batch(const StateBatch& b, const dvec& phase,
                                  const linalg::DiagDict* phase_dict,
                                  const double* gammas, const double* betas,
                                  cvec& scratch) const {
  const index_t d = dim();
  cvec lane(static_cast<std::size_t>(d));
  for (int l = 0; l < b.lanes; ++l) {
    cplx* dst = b.states + b.stride * static_cast<index_t>(l);
    const cplx* src = b.init != nullptr ? b.init : dst;
    std::copy(src, src + d, lane.begin());
    apply_phase_exp(lane, phase, phase_dict, gammas[l], betas[l], scratch);
    std::copy(lane.begin(), lane.end(), dst);
  }
}

void Mixer::apply_phase_exp_expect_batch(const StateBatch& b, const dvec& phase,
                                         const linalg::DiagDict* phase_dict,
                                         const double* gammas,
                                         const double* betas, const dvec& obj,
                                         double* out, cvec& scratch) const {
  const index_t d = dim();
  cvec lane(static_cast<std::size_t>(d));
  for (int l = 0; l < b.lanes; ++l) {
    cplx* dst = b.states + b.stride * static_cast<index_t>(l);
    const cplx* src = b.init != nullptr ? b.init : dst;
    std::copy(src, src + d, lane.begin());
    out[l] = apply_phase_exp_expect(lane, phase, phase_dict, gammas[l],
                                    betas[l], obj, scratch);
    std::copy(lane.begin(), lane.end(), dst);
  }
}

void Mixer::apply_exp_batch(const StateBatch& b, const double* betas,
                            cvec& scratch) const {
  FASTQAOA_CHECK(b.init == nullptr,
                 "apply_exp_batch: mid-round steps are in place");
  const index_t d = dim();
  cvec lane(static_cast<std::size_t>(d));
  for (int l = 0; l < b.lanes; ++l) {
    cplx* dst = b.states + b.stride * static_cast<index_t>(l);
    std::copy(dst, dst + d, lane.begin());
    apply_exp(lane, betas[l], scratch);
    std::copy(lane.begin(), lane.end(), dst);
  }
}

}  // namespace fastqaoa
