#include "mixers/mixer.hpp"

#include <cmath>

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

double Mixer::adjoint_step(StateRef psi, StateRef lambda, const dvec* phase,
                           const linalg::DiagDict* phase_dict,
                           double pending_gamma, double beta, cvec& scratch,
                           cvec& hpsi) const {
  if (phase != nullptr) {
    linalg::apply_diag_phase(psi, *phase, -pending_gamma, phase_dict);
    linalg::apply_diag_phase(lambda, *phase, -pending_gamma, phase_dict);
  }
  hpsi.resize(dim());
  apply_ham(psi, hpsi, scratch);
  const double grad = 2.0 * linalg::dot(lambda, hpsi).imag();
  apply_exp(psi, -beta, scratch);
  apply_exp(lambda, -beta, scratch);
  return grad;
}

}  // namespace fastqaoa
