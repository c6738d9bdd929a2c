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
/// Canonical form: one orthogonality center; every tensor left of it is
/// left-canonical, every tensor right of it right-canonical. Gates truncate
/// optimally only at the center, so the evaluator rides the center along
/// its gate schedule. All moves and splits go through linalg::svd (one-sided
/// Jacobi): fixed sweep order, index tie-breaks, strictly serial — the same
/// input bits give the same output bits at any thread count, which is what
/// makes MPS results thread- and worker-count invariant like the exact
/// engine's.
///
/// Truncation contract (apply_two_site): the max_bond cap is always
/// enforced; additionally, trailing singular values whose relative squared
/// weight fits under trunc_tol are dropped while the cumulative discarded
/// weight stays within fidelity_budget. Once the budget is exhausted only
/// the hard cap forces discards (counted separately). Kept singular values
/// are rescaled so the state norm is preserved, and the cumulative
/// discarded weight is monotone non-decreasing — the fidelity proxy
/// reported per evaluation.

#include <array>
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
  std::uint64_t truncations = 0;   ///< splits that discarded nonzero weight
  double discarded_weight = 0.0;   ///< cumulative relative weight dropped
  index_t max_bond_reached = 1;    ///< largest bond dimension seen
  std::uint64_t budget_exhausted = 0;  ///< forced discards past the budget
  void reset() { *this = TruncationStats{}; }
};

class MpsState {
 public:
  MpsState() = default;

  /// |+>^n — the QAOA initial state (bond dimension 1 everywhere).
  static MpsState plus_state(index_t n);

  [[nodiscard]] index_t n() const noexcept { return n_; }
  /// Bond dimension between sites i-1 and i, for i in [0, n]; edges are 1.
  [[nodiscard]] index_t bond(index_t i) const { return bonds_[i]; }
  [[nodiscard]] index_t center() const noexcept { return center_; }
  [[nodiscard]] index_t max_bond() const;
  [[nodiscard]] const cvec& tensor(index_t site) const {
    return tensors_[site];
  }

  /// Single-site diagonal phase e^{-i angle Z_site} (canonical-form safe).
  void apply_phase(index_t site, double angle);

  /// Single-site rotation e^{-i beta X_site} (unitary: canonical-form safe).
  void apply_rx(index_t site, double beta);

  /// Move the orthogonality center to `target` via exact single-site SVD
  /// splits (no truncation beyond exact rank).
  void move_center(index_t target);

  /// Two-site gate on sites (bond, bond+1): optionally swap the physical
  /// indices, then apply the diagonal phase diag(ph[s0*2+s1]); split back
  /// with a truncated SVD per `policy`, renormalize, and leave the center
  /// at `leave` (must be bond or bond+1). Requires the center to already be
  /// at bond or bond+1.
  void apply_two_site(index_t bond, const std::array<cplx, 4>& phase,
                      bool swap_sites, index_t leave,
                      const TruncationPolicy& policy, TruncationStats& stats);

  /// <psi|psi> by full transfer contraction.
  [[nodiscard]] double norm2() const;

  /// Amplitude of computational basis state x (site i = bit i). O(n D^2);
  /// tests and debugging only.
  [[nodiscard]] cplx amplitude(state_t x) const;

 private:
  void shift_center_right();
  void shift_center_left();
  /// env over the bond after `site` (flattened D_{r} x D_{r}) -> env over
  /// the bond before it; with_z weights physical index s by its Z
  /// eigenvalue (1 - 2s).
  [[nodiscard]] cvec transfer(index_t site, const cvec& env,
                              bool with_z) const;
  /// trace(identity-left-env x transfer(site, env, with_z)) — the terminal
  /// contraction when every site left of `site` is left-canonical.
  [[nodiscard]] double trace_term(index_t site, const cvec& env,
                                  bool with_z) const;

  friend double expectation(MpsState& state, const DiagonalHamiltonian& h);

  index_t n_ = 0;
  index_t center_ = 0;
  std::vector<index_t> bonds_;  ///< n+1 entries, bonds_[0] = bonds_[n] = 1
  std::vector<cvec> tensors_;
};

/// <psi|C|psi> / <psi|psi> + constant for a canonicalized diagonal
/// Hamiltonian. Left-canonicalizes the state (moves the center to n-1),
/// caches right environments once, and evaluates ZZ terms grouped by their
/// right endpoint — O((n + sum_terms span) * D^3) total.
double expectation(MpsState& state, const DiagonalHamiltonian& h);

}  // namespace fastqaoa::mps
