#pragma once
/// \file x_mixer.hpp
/// Mixers that are sums of products of Pauli-X operators (paper §2.1).
/// HZH = X diagonalizes every such mixer by conjugation with H^{⊗n}:
///     e^{-i beta f(X)} = H^{⊗n} e^{-i beta f(Z)} H^{⊗n},
/// and f(Z) is diagonal with entries d[z] = sum_t w_t (-1)^{|z & S_t|}.
/// The diagonal is precomputed once; each application is two fast
/// Walsh–Hadamard transforms plus one fused elementwise phase, O(n 2^n).

#include <vector>

#include "linalg/diag_dict.hpp"
#include "mixers/mixer.hpp"

namespace fastqaoa {

/// One term w * prod_{i in mask} X_i.
struct PauliXTerm {
  state_t mask;     ///< set bits = qubits carrying an X
  double weight = 1.0;

  bool operator==(const PauliXTerm&) const = default;
};

/// Mixer H_M = sum_t w_t prod_{i in S_t} X_i on the full n-qubit space.
class XMixer final : public Mixer {
 public:
  /// Build from explicit terms. Masks must fit in n bits.
  XMixer(int n, std::vector<PauliXTerm> terms);

  /// The original transverse-field mixer sum_i X_i.
  static XMixer transverse_field(int n);

  /// The paper's mixer_X(orders, n): for each order r in `orders`, include
  /// every weight-r product of X operators (e.g. {1} -> sum X_i,
  /// {2} -> sum_{i<j} X_i X_j). The diagonal is evaluated analytically via
  /// Krawtchouk polynomials in O(n^2 + 2^n) instead of O(2^n * #terms).
  static XMixer from_orders(int n, const std::vector<int>& orders);

  /// This mixer restricted to the flip-symmetric states psi(x) = psi(~x),
  /// written on the n-1 low qubits (needs n >= 2). A term whose mask holds
  /// the top qubit becomes mask ^ (2^n - 1); the diagonal is the full one
  /// remapped, d'(y) = d(y | parity(y) << (n-1)), so no term is re-summed.
  /// QaoaPlan's Z2 fold runs on it (docs/architecture.md, "Z2 fold").
  [[nodiscard]] XMixer folded() const;

  [[nodiscard]] index_t dim() const override { return dvals_.size(); }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] const std::vector<PauliXTerm>& terms() const noexcept {
    return terms_;
  }
  /// Mixer eigenvalues in the Hadamard frame (d[z] of the header comment).
  [[nodiscard]] const dvec& diagonal() const noexcept { return dvals_; }
  /// Quantized dictionary over diagonal() — always valid for pure-order
  /// mixers (n+1 popcount eigenvalues), usually valid for weighted term
  /// sums; feeds the kernels' per-distinct-value phase route.
  [[nodiscard]] const linalg::DiagDict& diagonal_dict() const noexcept {
    return ddict_;
  }

  void apply_exp(StateRef psi, double beta, cvec& scratch) const override;
  void apply_ham(ConstStateRef in, StateRef out,
                 cvec& scratch) const override;
  /// Overridden to fold the phase-separator sweep into the first WHT's
  /// cache-blocked pre-pass (one fewer stream over the statevector).
  void apply_phase_exp(StateRef psi, const dvec& phase,
                       const linalg::DiagDict* phase_dict, double gamma,
                       double beta, cvec& scratch) const override;
  /// Overridden to additionally fuse the expectation into the last WHT's
  /// final butterfly pass.
  double apply_phase_exp_expect(StateRef psi, const dvec& phase,
                                const linalg::DiagDict* phase_dict,
                                double gamma, double beta, const dvec& obj,
                                cvec& scratch) const override;
  /// Overridden to run the whole reverse step in the Hadamard frame: the
  /// pending cost phase rides the WHT pre-passes into the frame, the
  /// gradient is a diagonal bracket there, and the mixer unapply plus the
  /// 1/2^n rides the WHT pre-passes back out. Four WHT passes per step
  /// where the default's apply_ham + 2 apply_exp pay six.
  double adjoint_step(StateRef psi, StateRef lambda, const dvec* phase,
                      const linalg::DiagDict* phase_dict,
                      double pending_gamma, double beta, cvec& scratch,
                      cvec& hpsi) const override;

 private:
  XMixer(int n, std::vector<PauliXTerm> terms, dvec dvals, std::string name);

  int n_;
  std::vector<PauliXTerm> terms_;
  dvec dvals_;  ///< d[z], length 2^n
  linalg::DiagDict ddict_;  ///< quantized view of dvals_ (may be invalid)
  std::string name_;
};

}  // namespace fastqaoa
