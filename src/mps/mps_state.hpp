#pragma once
/// \file mps_state.hpp
/// Matrix-product-state representation with canonical-form management —
/// the approximate large-n state the exact statevector cannot hold.
///
/// Layout: site tensor i has shape (Dl, 2, Dr) with Dl = bond(i) and
/// Dr = bond(i+1), stored flat as tensor[(l*2 + s)*Dr + r]. That single
/// layout doubles as both matricizations the SVD splits need with zero
/// copying: rows (l*2+s) x cols (r) groups the physical leg left, and
/// rows (l) x cols (s*Dr + r) groups it right. Edge bonds are 1.
///
/// Basis and charges: every site is stored in the X eigenbasis, physical
/// index s = 0 for |+> and s = 1 for |->. The QAOA circuit commutes with the
/// bit flip P = prod_i X_i (it commutes with every Z Z term and with the X
/// mixer), and in this basis P's eigenvalue is the parity of the physical
/// indices. So every bond index carries a Z2 charge q in {0, 1} (charges()),
/// and a site tensor's entry (l, s, r) is exactly zero unless
/// q_l + s = q_r (mod 2); the left edge has charge 0 and |+>^n keeps the
/// right edge at charge 0. In this basis the mixer e^{-i beta X} is a
/// diagonal phase per site, e^{-i theta Z Z} is cos(theta) I - i sin(theta)
/// F (x) F with F the index flip, <Z_u Z_v> flips the bra index at u and v,
/// and amplitude() rotates each site back through the Hadamard, so the
/// amplitudes it reports are still in computational-basis (Z) labels.
///
/// Block splits: every SVD split (gate splits and center moves) factors a
/// matrix whose entry vanishes unless its row charge (q_l + s0 on the left)
/// equals its column charge (s1 + q_r on the right), so it is block
/// diagonal with one block per charge. Each split runs linalg::svd on the
/// two blocks (8 x 8 each for a 16 x 16 split at chi = 8) instead of on the
/// whole matrix; the merged spectrum is the whole matrix's. The blocks'
/// singular values are merged in descending order, ties broken by
/// (block charge, index within the block), and each new bond index takes
/// the charge of the block it came from.
///
/// Canonical form: one orthogonality center; every tensor left of it is
/// left-canonical, every tensor right of it right-canonical. Gates truncate
/// optimally only at the center, so the evaluator rides the center along
/// its gate schedule. All moves and splits go through linalg::svd (one-sided
/// Jacobi): fixed sweep order, index tie-breaks, strictly serial — the same
/// input bits give the same output bits at any thread count, which is what
/// makes MPS results thread- and worker-count invariant like the exact
/// engine's.
///
/// Truncation contract (apply_two_site): singular values past a block's
/// numerical rank (linalg::svd's `rank`: rounding noise at the
/// negligible-column level, or exact zeros) are structural rank, dropped
/// for free — neither counted as a truncation nor added to the discarded
/// weight. Of the rest (the merged spectrum), the max_bond cap is always
/// enforced; additionally, trailing singular values whose relative squared
/// weight fits under trunc_tol are dropped while the cumulative discarded
/// weight stays within fidelity_budget. Once the budget is exhausted only
/// the hard cap forces discards (counted separately). Kept singular values
/// are rescaled so the state norm is preserved, and the cumulative
/// discarded weight is monotone non-decreasing — the fidelity proxy
/// reported per evaluation.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mps/hamiltonian.hpp"

namespace fastqaoa::mps {

/// Truncation knobs (plan-level; part of the plan-cache fingerprint).
struct TruncationPolicy {
  index_t max_bond = 64;        ///< hard bond-dimension cap (chi)
  double trunc_tol = 1e-12;     ///< per-split relative tail drop threshold
  double fidelity_budget = 1e-3;  ///< cumulative discarded-weight allowance
};

/// Always-on truncation accounting (independent of obs::metrics_enabled()).
struct TruncationStats {
  std::uint64_t truncations = 0;   ///< splits that discarded weight past rank
  double discarded_weight = 0.0;   ///< cumulative relative weight dropped
  index_t max_bond_reached = 1;    ///< largest bond dimension seen
  std::uint64_t budget_exhausted = 0;  ///< forced discards past the budget
  void reset() { *this = TruncationStats{}; }
};

/// Z2 charges of one bond's indices (0 or 1 each).
using Charges = std::vector<std::uint8_t>;

class MpsState {
 public:
  MpsState() = default;

  /// |+>^n — the QAOA initial state (bond dimension 1 everywhere, every
  /// physical index s = 0, every charge 0).
  static MpsState plus_state(index_t n);

  [[nodiscard]] index_t n() const noexcept { return n_; }
  /// Bond dimension between sites i-1 and i, for i in [0, n]; edges are 1.
  [[nodiscard]] index_t bond(index_t i) const { return bonds_[i]; }
  /// Charges of the bond(i) indices between sites i-1 and i.
  [[nodiscard]] const Charges& charges(index_t i) const { return charges_[i]; }
  [[nodiscard]] index_t center() const noexcept { return center_; }
  [[nodiscard]] index_t max_bond() const;
  /// Site tensor in the X basis (see the file comment).
  [[nodiscard]] const cvec& tensor(index_t site) const {
    return tensors_[site];
  }

  /// Mixer rotation e^{-i beta X_site}: the diagonal phase e^{-i beta} on
  /// |+>, e^{+i beta} on |-> (canonical-form safe).
  void apply_rx(index_t site, double beta);

  /// Move the orthogonality center to `target` via single-site block SVD
  /// splits that keep each block's numerical rank (never fewer than one
  /// column in all): the rounding-noise tail past it is dropped as in
  /// apply_two_site, so each moved bond shrinks to its rank. Nothing above
  /// rounding is discarded.
  void move_center(index_t target);

  /// Two-site gate on sites (bond, bond+1): optionally swap the physical
  /// indices, then apply e^{-i angle Z Z} (angle 0 applies none); split
  /// back with a truncated block SVD per `policy`, renormalize, and leave
  /// the center at `leave` (must be bond or bond+1). Requires the center to
  /// already be at bond or bond+1.
  void apply_two_site(index_t bond, double angle, bool swap_sites,
                      index_t leave, const TruncationPolicy& policy,
                      TruncationStats& stats);

  /// <psi|psi> by full transfer contraction.
  [[nodiscard]] double norm2() const;

  /// Amplitude of computational basis state x (site i = bit i; an
  /// MpsPlan's sites are its relabelled qubits, see MpsPlan::site_of).
  /// O(n D^2); tests and debugging only.
  [[nodiscard]] cplx amplitude(state_t x) const;

 private:
  void shift_center_right();
  void shift_center_left();
  /// env over the bond after `site` (flattened D_{r} x D_{r}) -> env over
  /// the bond before it; with_z inserts Z_site, which in the X basis flips
  /// the bra's physical index.
  [[nodiscard]] cvec transfer(index_t site, const cvec& env,
                              bool with_z) const;
  /// trace(identity-left-env x transfer(site, env, with_z)) — the terminal
  /// contraction when every site left of `site` is left-canonical.
  [[nodiscard]] double trace_term(index_t site, const cvec& env,
                                  bool with_z) const;

  friend double expectation(MpsState& state, const DiagonalHamiltonian& h);

  index_t n_ = 0;
  index_t center_ = 0;
  std::vector<index_t> bonds_;    ///< n+1 entries, bonds_[0] = bonds_[n] = 1
  std::vector<Charges> charges_;  ///< n+1 entries, charges_[i].size() = bonds_[i]
  std::vector<cvec> tensors_;
};

/// <psi|C|psi> / <psi|psi> + constant for a canonicalized diagonal
/// Hamiltonian with no linear Z terms (they break the parity symmetry the
/// charges encode). Left-canonicalizes the state (moves the center to n-1),
/// caches right environments once, and evaluates ZZ terms grouped by their
/// right endpoint — O((n + sum_terms span) * D^3) total.
double expectation(MpsState& state, const DiagonalHamiltonian& h);

}  // namespace fastqaoa::mps
