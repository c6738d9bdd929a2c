#include "mixers/eigen_mixer.hpp"

#include <cmath>
#include <utility>

#include "bits/bitops.hpp"
#include "common/error.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"

namespace fastqaoa {

EigenMixer::EigenMixer(linalg::SymEig eig, std::string name)
    : real_(std::move(eig)), name_(std::move(name)) {
  FASTQAOA_CHECK(real_->vectors.rows() == real_->eigenvalues.size() &&
                     real_->vectors.cols() == real_->eigenvalues.size(),
                 "EigenMixer: inconsistent eigendecomposition");
}

EigenMixer::EigenMixer(linalg::HermEig eig, std::string name)
    : herm_(std::move(eig)), name_(std::move(name)) {
  FASTQAOA_CHECK(herm_->vectors.rows() == herm_->eigenvalues.size() &&
                     herm_->vectors.cols() == herm_->eigenvalues.size(),
                 "EigenMixer: inconsistent eigendecomposition");
}

linalg::dmat EigenMixer::xy_hamiltonian(const StateSpace& space,
                                        const Graph& pairs) {
  FASTQAOA_CHECK(pairs.num_vertices() == space.n(),
                 "xy_hamiltonian: pair graph must have n vertices");
  const index_t dim = space.dim();
  linalg::dmat h(dim, dim);
  space.for_each([&](index_t i, state_t x) {
    for (const Edge& e : pairs.edges()) {
      if (bit(x, e.u) != bit(x, e.v)) {
        const state_t y = flip(flip(x, e.u), e.v);
        // <y| X_u X_v + Y_u Y_v |x> = 2 when the differing bits swap.
        h(space.index_of(y), i) += 2.0 * e.weight;
      }
    }
  });
  return h;
}

EigenMixer EigenMixer::xy_graph(const StateSpace& space, const Graph& pairs,
                                std::string name) {
  return EigenMixer(linalg::eigh(xy_hamiltonian(space, pairs)),
                    std::move(name));
}

EigenMixer EigenMixer::clique(const StateSpace& space) {
  return xy_graph(space, complete_graph(space.n()), "clique");
}

EigenMixer EigenMixer::ring(const StateSpace& space) {
  FASTQAOA_CHECK(space.n() >= 3, "ring mixer: need n >= 3");
  return xy_graph(space, ring_graph(space.n()), "ring");
}

EigenMixer EigenMixer::from_hamiltonian(linalg::dmat h, std::string name) {
  return EigenMixer(linalg::eigh(h), std::move(name));
}

EigenMixer EigenMixer::from_hamiltonian(linalg::cmat h, std::string name) {
  return EigenMixer(linalg::eigh(h), std::move(name));
}

const linalg::SymEig& EigenMixer::real_eig() const {
  FASTQAOA_CHECK(real_.has_value(), "EigenMixer: not a real decomposition");
  return *real_;
}

const linalg::HermEig& EigenMixer::herm_eig() const {
  FASTQAOA_CHECK(herm_.has_value(), "EigenMixer: not a complex decomposition");
  return *herm_;
}

void EigenMixer::apply_exp(StateRef psi, double beta, cvec& scratch) const {
  FASTQAOA_CHECK(psi.size() == dim(), "EigenMixer: state size mismatch");
  FASTQAOA_OBS_HIST_TIMED("mixers.eigen.exp.seconds");
  scratch.resize(dim());
  if (real_) {
    linalg::gemv_transpose(real_->vectors, psi, scratch);  // V^T psi
    linalg::apply_diag_phase(scratch, real_->eigenvalues, beta);
    linalg::gemv(real_->vectors, scratch, psi);  // V (...)
  } else {
    linalg::gemv_adjoint(herm_->vectors, psi, scratch);  // V^H psi
    linalg::apply_diag_phase(scratch, herm_->eigenvalues, beta);
    linalg::gemv(herm_->vectors, scratch, psi);
  }
}

void EigenMixer::apply_ham(ConstStateRef in, StateRef out,
                           cvec& scratch) const {
  FASTQAOA_CHECK(in.size() == dim(), "EigenMixer: state size mismatch");
  FASTQAOA_CHECK(out.size() == dim(),
                 "EigenMixer: apply_ham output must be presized");
  FASTQAOA_OBS_HIST_TIMED("mixers.eigen.ham.seconds");
  scratch.resize(dim());
  if (real_) {
    linalg::gemv_transpose(real_->vectors, in, scratch);
    linalg::diag_mul(scratch, real_->eigenvalues, 1.0);
    linalg::gemv(real_->vectors, scratch, out);
  } else {
    linalg::gemv_adjoint(herm_->vectors, in, scratch);
    linalg::diag_mul(scratch, herm_->eigenvalues, 1.0);
    linalg::gemv(herm_->vectors, scratch, out);
  }
}

}  // namespace fastqaoa
