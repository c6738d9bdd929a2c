#pragma once
/// \file mixer.hpp
/// The mixer abstraction. Every mixer the paper supports is represented in
/// a *diagonal frame*: e^{-i beta H_M} = T diag(e^{-i beta d}) T^{-1} for
/// some cheap transform T. Concrete implementations:
///   * XMixer      — T = H^{⊗n} via fast Walsh–Hadamard, O(n 2^n)
///   * GroverMixer — rank-1 projector, O(dim)
///   * EigenMixer  — dense precomputed eigenvectors, O(dim^2)
/// Two pure virtuals are all a mixer must provide: apply_exp (the
/// simulator) and apply_ham (the adjoint-mode gradient). The fused entries
/// — apply_phase_exp and apply_phase_exp_expect forward, adjoint_step in
/// reverse — default to compositions of those two plus diagonal kernels;
/// a mixer overrides them to do the same work in fewer passes.
///
/// All state arguments are StateRef / ConstStateRef views (spans), so the
/// same mixer serves a cvec or a raw buffer.

#include <string>

#include "common/types.hpp"
#include "linalg/state_ref.hpp"

namespace fastqaoa {

namespace linalg {
struct DiagDict;  // linalg/diag_dict.hpp
}

using linalg::ConstStateRef;
using linalg::StateRef;

/// A mixer Hamiltonian H_M restricted to a feasible subspace of dimension
/// dim().
///
/// Thread-compatibility contract (enforced by tests/test_parallel.cpp and
/// relied on by every parallel outer loop — see docs/architecture.md):
/// const methods MUST be safe to call concurrently on one shared instance
/// as long as each call gets its own scratch vector. Concretely, apply_exp
/// and apply_ham must not write any member state; every mutable buffer the
/// recurrence needs has to live in the caller-provided `scratch` (grow it
/// with resize, then carve sub-buffers out of it — ChebyshevMixer shows the
/// pattern). Diagnostics that must survive a const call go in relaxed
/// atomics.
class Mixer {
 public:
  virtual ~Mixer() = default;

  /// Dimension of the (feasible sub)space the mixer acts on.
  [[nodiscard]] virtual index_t dim() const = 0;

  /// Human-readable name ("transverse-field", "clique", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// psi <- e^{-i beta H_M} psi. `scratch` is caller-provided workspace
  /// (resized as needed once, then reused allocation-free).
  virtual void apply_exp(StateRef psi, double beta, cvec& scratch) const = 0;

  /// out <- H_M * in (used by the adjoint gradient). `in` must not alias
  /// `out`, and `out` must already be sized to dim() — views cannot grow.
  virtual void apply_ham(ConstStateRef in, StateRef out,
                         cvec& scratch) const = 0;

  /// Fused whole-round step: psi <- e^{-i beta H_M} diag(e^{-i gamma
  /// phase}) psi. The default composes apply_diag_phase + apply_exp;
  /// mixers whose diagonal frame lets the phase ride along for free
  /// (XMixer folds it into the first WHT pre-pass) override it.
  /// `phase_dict` (the DiagDict of phase) may be null or invalid; it only
  /// unlocks the quantized phase route, never changes results.
  virtual void apply_phase_exp(StateRef psi, const dvec& phase,
                               const linalg::DiagDict* phase_dict,
                               double gamma, double beta,
                               cvec& scratch) const;

  /// apply_phase_exp followed by <psi| diag(obj) |psi> — the final QAOA
  /// round plus the expectation epilogue, fused where the mixer can.
  virtual double apply_phase_exp_expect(StateRef psi, const dvec& phase,
                                        const linalg::DiagDict* phase_dict,
                                        double gamma, double beta,
                                        const dvec& obj, cvec& scratch) const;

  /// One mixer step of the adjoint gradient's reverse sweep, on the
  /// post-mixer states psi and lambda:
  ///   1. when `phase` is non-null, unapply the cost phase still pending
  ///      from the round after: psi, lambda <- diag(e^{+i pending_gamma
  ///      phase}) psi, lambda;
  ///   2. return dE/dbeta = 2 Im <lambda| H_M |psi>;
  ///   3. unapply e^{-i beta H_M} from both psi and lambda.
  /// The default composes apply_diag_phase, apply_ham into `hpsi`, dot
  /// and apply_exp; XMixer overrides it to do all three in its Hadamard
  /// frame. `scratch` and `hpsi` are caller-provided workspace (grown on
  /// first use; XMixer needs neither). `phase_dict` as for
  /// apply_phase_exp.
  virtual double adjoint_step(StateRef psi, StateRef lambda,
                              const dvec* phase,
                              const linalg::DiagDict* phase_dict,
                              double pending_gamma, double beta,
                              cvec& scratch, cvec& hpsi) const;

  /// The uniform superposition the paper defaults |psi0> to, expressed on
  /// this mixer's space. Overridable for mixers whose natural ground state
  /// differs; the default is 1/sqrt(dim) on every feasible state. Takes an
  /// owning vector (not a view) because it sizes the state itself.
  virtual void initial_state(cvec& psi) const;
};

}  // namespace fastqaoa
