#pragma once
/// \file mps_plan.hpp
/// MPS analogue of core/plan.hpp's QaoaPlan/EvalWorkspace split: an
/// immutable shared plan (canonicalized Hamiltonian + precomputed two-site
/// gate schedule + truncation knobs) and a cheap per-thread workspace, so
/// the basinhopping/grid drivers parallelize over chains exactly like the
/// exact engine — one plan, one MpsWorkspace per thread.
///
/// Site order: the plan first relabels qubits to MPS sites so that
/// interacting qubits sit close together — the reverse Cuthill–McKee order
/// (Cuthill & McKee 1969) of the ZZ graph whose schedule (below) has the
/// fewest two-site ops, tried from every start vertex, with the identity
/// order as the first candidate so relabelling never adds ops. Ties go to
/// the earlier candidate, so the order is a pure function of the canonical
/// Hamiltonian. <C> does not depend on the labelling; only the truncation
/// sequence does.
///
/// Gate schedule (on the relabelled sites): each round applies
/// e^{-i gamma H_C} then e^{-i beta H_M} (H_M = sum_i X_i, the
/// transverse-field mixer; the only mixer the MPS engine supports). The
/// engine evaluates ZZ-only costs: a linear Z term anticommutes with the bit
/// flip prod_i X_i whose parity every bond carries (mps_state.hpp), so the
/// constructor refuses one. The ZZ terms are routed as one excursion
/// per site: for v = 0..n-1 with leftmost partner far(v) < v, v's qubit
/// walks left by adjacent swaps to far(v)+1, and each swap that passes a
/// partner w applies ZZ(w, v) in the same bond split; ZZ(far(v), v) is then
/// a plain two-site op, and the qubit walks home. That is
/// 2(v - far(v) - 1) + 1 two-site ops per site, and the chain is back in
/// site order after every excursion. The schedule, including which side
/// keeps the orthogonality center after each op, is fixed at plan
/// construction — the evaluator just replays it, so the gate order (and
/// therefore the truncation sequence) is a pure function of the
/// Hamiltonian.

#include <span>
#include <vector>

#include "common/types.hpp"
#include "mps/hamiltonian.hpp"
#include "mps/mps_state.hpp"
#include "obs/metrics.hpp"
#include "runtime/budget.hpp"

namespace fastqaoa::mps {

/// Truncation/approximation knobs. Part of the service plan-cache
/// fingerprint: two jobs with different knobs never share a cache entry.
struct MpsOptions {
  index_t max_bond = 64;          ///< chi cap per bond
  double fidelity_budget = 1e-3;  ///< cumulative discarded-weight allowance
  double trunc_tol = 1e-12;       ///< per-split relative tail threshold
};

/// One two-site op on sites (bond, bond+1): an optional swap of the two
/// sites and an optional e^{-i gamma c Z Z} phase, in one bond split.
/// `leave` is the site that keeps the orthogonality center afterwards,
/// chosen so consecutive ops in an excursion need no extra center moves.
struct MpsOp {
  index_t bond = 0;
  bool swap = false;
  double coeff = 0.0;  ///< ZZ coefficient c; 0 applies no phase
  index_t leave = 0;
};

class MpsPlan {
 public:
  explicit MpsPlan(DiagonalHamiltonian h, MpsOptions options = {});

  [[nodiscard]] index_t n() const noexcept { return h_.n; }
  /// The canonical Hamiltonian in *site* labels (qubit q is site
  /// site_of()[q]); its <C> equals the input Hamiltonian's.
  [[nodiscard]] const DiagonalHamiltonian& hamiltonian() const noexcept {
    return h_;
  }
  /// Qubit -> MPS site permutation. MpsState::amplitude takes site bits,
  /// so bitstrings leaving the engine map back through this.
  [[nodiscard]] const std::vector<index_t>& site_of() const noexcept {
    return site_of_;
  }
  [[nodiscard]] const MpsOptions& options() const noexcept {
    return options_;
  }
  /// The per-round e^{-i gamma H_C} two-site schedule (ZZ + routing swaps).
  [[nodiscard]] const std::vector<MpsOp>& cost_ops() const noexcept {
    return ops_;
  }
  /// Two-site ops (bond splits) per round: the schedule's cost.
  [[nodiscard]] std::size_t ops_per_round() const noexcept {
    return ops_.size();
  }
  /// Ops per round that swap their sites (routing diagnostic).
  [[nodiscard]] std::size_t swaps_per_round() const noexcept {
    return swaps_;
  }

 private:
  DiagonalHamiltonian h_;
  std::vector<index_t> site_of_;
  MpsOptions options_;
  std::vector<MpsOp> ops_;
  std::size_t swaps_ = 0;
};

/// Per-thread evaluation state. Construction is cheap; the MPS tensors are
/// reallocated per evaluation (they are tiny next to a 2^n statevector).
struct MpsWorkspace {
  MpsState state;
  TruncationStats stats;  ///< reset at the start of every evaluation
  /// Optional live budget, polled inside evaluate() before every round and
  /// every excursion of the cost layer: a tripped deadline/cancel abandons
  /// the rest of the evaluation and sets `interrupted`. The returned value
  /// is then <C> of |+>^n (the Hamiltonian's constant), not of the
  /// requested angles, and callers must honour the tracker's StopReason
  /// instead of trusting it. Deterministic runs leave this null.
  const runtime::BudgetTracker* tracker = nullptr;
  bool interrupted = false;
  obs::MetricsSink metrics;
};

/// Evolve |+>^n through p = betas.size() rounds of
/// e^{-i beta_k H_M} e^{-i gamma_k H_C} and return <C>.
double evaluate(const MpsPlan& plan, MpsWorkspace& ws,
                std::span<const double> betas, std::span<const double> gammas);

/// Packed [betas..., gammas...] convenience wrapper.
double evaluate_packed(const MpsPlan& plan, MpsWorkspace& ws,
                       std::span<const double> packed);

}  // namespace fastqaoa::mps
