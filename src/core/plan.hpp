#pragma once
/// \file plan.hpp
/// The immutable / mutable split at the heart of the engine.
///
/// The paper's whole speed argument is "precompute once, evaluate thousands
/// of times". We make that structural: a QaoaPlan holds everything that is
/// precomputed and never changes across evaluations (mixer schedule,
/// objective and phase-separator tables, initial state — all validated once
/// at construction), while an EvalWorkspace holds everything one evaluation
/// mutates (statevector, scratch, adjoint buffers). evaluate() takes the
/// plan by const reference and the workspace by mutable reference, so one
/// shared plan can be evaluated from many threads concurrently as long as
/// each thread brings its own workspace — the property every parallel outer
/// loop (basinhopping restarts, ensemble instances) is built on.

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "linalg/diag_dict.hpp"
#include "mixers/mixer.hpp"
#include "mixers/x_mixer.hpp"
#include "obs/metrics.hpp"
#include "problems/objective.hpp"

namespace fastqaoa {

/// One QAOA round applies the phase separator once, then each mixer in the
/// layer in order, each consuming its own β angle.
struct MixerLayer {
  std::vector<const Mixer*> mixers;
};

/// Optional overrides applied at plan construction. Everything is validated
/// up front so evaluation never has to re-check.
struct QaoaPlanOptions {
  /// Phase-separator table different from the measured objective —
  /// e.g. threshold_indicator(obj_vals, t) for threshold QAOA.
  std::optional<dvec> phase_values;
  /// Custom |ψ0> (warm starts). Must be unit-norm and of matching
  /// dimension. Default: uniform superposition over the feasible set.
  std::optional<cvec> initial_state;
};

/// Immutable, shareable QAOA evaluation plan. Construction validates the
/// mixer schedule against the objective table and materializes the initial
/// state eagerly; afterwards the plan is strictly read-only, so any number
/// of threads may evaluate against it concurrently (each with its own
/// EvalWorkspace). Mixers are held by pointer — keep them alive (and do not
/// mutate them) while the plan is in use.
///
/// Z2 fold. When every mixer is an XMixer on n >= 2 qubits, |ψ0> is the
/// default uniform state and both the objective and the phase table are
/// invariant under the global bit flip x -> ~x (MaxCut, weighted MaxCut,
/// number partitioning), the state stays flip-symmetric and its first half
/// determines it. Such a plan *folds*: it evaluates and differentiates on
/// work_dim() = dim()/2 amplitudes φ(x') = √2·ψ(x', top qubit 0), through
/// folded mixers and the first halves of the tables. The public
/// full-space accessors (dim(), objective(), phase_values(), layers(),
/// initial_state()) keep their meaning; the work_* accessors are what
/// evaluation reads. A plan given an explicit initial state never folds.
class QaoaPlan {
 public:
  /// Same mixer every round, for `rounds` rounds (the common case).
  QaoaPlan(const Mixer& mixer, dvec obj_vals, int rounds,
           QaoaPlanOptions options = {});

  /// One (single-mixer) layer per round.
  QaoaPlan(std::vector<const Mixer*> round_mixers, dvec obj_vals,
           QaoaPlanOptions options = {});

  /// Fully general multi-angle schedule: layers[k] lists the mixers of
  /// round k, each taking its own β.
  QaoaPlan(std::vector<MixerLayer> layers, dvec obj_vals,
           QaoaPlanOptions options = {});

  /// Number of rounds p.
  [[nodiscard]] int rounds() const noexcept {
    return static_cast<int>(layers_.size());
  }
  /// Total number of β angles (= p for single-mixer layers).
  [[nodiscard]] int num_betas() const noexcept { return num_betas_; }
  /// Total number of γ angles (= p).
  [[nodiscard]] int num_gammas() const noexcept { return rounds(); }
  /// Hilbert-space (feasible subspace) dimension.
  [[nodiscard]] index_t dim() const noexcept { return obj_vals_.size(); }

  [[nodiscard]] const dvec& objective() const noexcept { return obj_vals_; }
  [[nodiscard]] const dvec& phase_values() const noexcept {
    return phase_vals_.empty() ? obj_vals_ : phase_vals_;
  }
  [[nodiscard]] const std::vector<MixerLayer>& layers() const noexcept {
    return layers_;
  }
  /// The full-space initial state (unfolded from the working one when the
  /// plan folds).
  [[nodiscard]] cvec initial_state() const;

  /// Whether a custom phase table / initial state was supplied.
  [[nodiscard]] bool has_custom_phase() const noexcept {
    return !phase_vals_.empty();
  }
  [[nodiscard]] bool has_custom_initial_state() const noexcept {
    return custom_psi0_;
  }

  /// Whether the plan runs on the flip-symmetric half (see the class note).
  [[nodiscard]] bool folded() const noexcept {
    return !folded_mixers_.empty();
  }
  /// Length of the state evaluation works on (ws.psi after evaluate()):
  /// dim() / 2 when the plan folds, dim() otherwise.
  [[nodiscard]] index_t work_dim() const noexcept { return psi0_.size(); }
  /// The mixer schedule evaluation runs (folded mixers when folded()).
  [[nodiscard]] const std::vector<MixerLayer>& work_layers() const noexcept {
    return folded() ? folded_layers_ : layers_;
  }
  /// objective() at work_dim() (its first half when folded()).
  [[nodiscard]] const dvec& work_objective() const noexcept {
    return folded() ? folded_obj_ : obj_vals_;
  }
  /// phase_values() at work_dim() (its first half when folded()).
  [[nodiscard]] const dvec& work_phase_values() const noexcept {
    if (!folded()) return phase_values();
    return folded_phase_.empty() ? folded_obj_ : folded_phase_;
  }
  /// The initial state at work_dim().
  [[nodiscard]] const cvec& work_initial_state() const noexcept {
    return psi0_;
  }
  /// Quantized dictionary over work_phase_values(), built eagerly at
  /// construction. Valid whenever the phase table has few distinct values
  /// (integer-weighted cost functions, indicators); lets evaluate() and
  /// the adjoint gradient collapse the phase-separator sincos sweep to one
  /// call per distinct value. Invalid dictionaries are simply not used.
  [[nodiscard]] const linalg::DiagDict& phase_dict() const noexcept {
    return phase_dict_;
  }

 private:
  void validate_and_finalize(QaoaPlanOptions options);
  void fold();

  std::vector<MixerLayer> layers_;
  dvec obj_vals_;
  dvec phase_vals_;  ///< empty = use obj_vals_ as the phase table
  cvec psi0_;        ///< at work_dim(); built at construction, never empty
  linalg::DiagDict phase_dict_;  ///< quantized view of work_phase_values()
  int num_betas_ = 0;
  bool custom_psi0_ = false;
  // Z2 fold; all empty unless folded(). One folded mixer per distinct
  // mixer, shared so that copies of the plan keep folded_layers_ valid.
  std::vector<std::shared_ptr<const XMixer>> folded_mixers_;
  std::vector<MixerLayer> folded_layers_;  ///< layers_ over folded_mixers_
  dvec folded_obj_;    ///< first half of obj_vals_
  dvec folded_phase_;  ///< first half of phase_vals_ (empty = folded_obj_)
};

/// The Z2 fold's table condition: t[x] == t[x ^ (dim - 1)] bit for bit for
/// both tables (an empty `phase` stands for `obj`), in one pass over the
/// first half.
[[nodiscard]] bool flip_invariant(const dvec& obj, const dvec& phase = {});

/// Expand a working-length state `phi` (ws.psi after evaluate()) into the
/// full-space state `psi` of dimension plan.dim(). For a folded plan, with
/// b the top qubit and h = work_dim():
///     ψ(x' + b·h) = φ(x' ^ b·(h - 1)) / √2;
/// otherwise a plain copy. This is the one place full-space views (the Qaoa
/// facade, the service's sampler) get their amplitudes from.
void unfold_state(const QaoaPlan& plan, ConstStateRef phi, cvec& psi);

/// Per-evaluation mutable state: cheap to construct, reusable across calls
/// (buffers are grown on first use, then evaluation is allocation-free).
/// One workspace per thread; never share a workspace across threads.
///
/// evaluate() writes psi and expectation. evaluate_batch() runs evaluate()
/// once per lane, so after a batch psi and expectation hold the LAST lane's
/// final state and <C>; the other lanes' states are not kept.
///
/// psi has the plan's work_dim(). When the plan folds it holds the folded
/// φ(x') = √2·ψ(x', 0) over the low n-1 qubits, not the full-space ψ; use
/// unfold_state() for the latter.
struct EvalWorkspace {
  cvec psi;      ///< working-length state of the last evaluate()
  cvec scratch;  ///< mixer workspace
  /// Adjoint-gradient buffers (see autodiff/adjoint.hpp); unused — and
  /// unallocated — by plain evaluation.
  cvec adjoint_psi;
  cvec lambda;
  cvec hpsi;
  /// <C> of the last evaluate().
  double expectation = 0.0;
  /// This workspace's metric sink. evaluate() binds it as the thread's
  /// active sink, so every instrumented kernel it reaches (WHT, GEMV,
  /// adjoint sweeps) tallies here without touching shared state. Outer
  /// loops merge it into the global aggregate at their join point
  /// (obs::merge_global). Untouched while obs::metrics_enabled() is false.
  obs::MetricsSink metrics;

  /// Pre-size the forward buffers for a plan (optional warm-up; evaluation
  /// grows them on demand anyway).
  void reserve(const QaoaPlan& plan);
};

/// Evolve |β,γ> = e^{-iβ_p H_M} e^{-iγ_p H_C} ... |ψ0> and return <C>.
/// Thread-safe for a shared `plan`: concurrent calls must each use their
/// own `ws`. betas.size() must equal plan.num_betas(), gammas.size() must
/// equal plan.num_gammas(). The final statevector is left in ws.psi.
double evaluate(const QaoaPlan& plan, EvalWorkspace& ws,
                std::span<const double> betas, std::span<const double> gammas);

/// Paper-style packed angles: angles[0..p) = betas, angles[p..2p) = gammas.
/// Only valid when plan.num_betas() == plan.rounds().
double evaluate_packed(const QaoaPlan& plan, EvalWorkspace& ws,
                       std::span<const double> angles);

/// Batched evaluation: B = out.size() independent angle sets, evaluated in
/// lane order by B calls of evaluate() on `ws`. Angles are lane-major:
/// betas.size() == B * plan.num_betas() with lane l's betas at
/// betas[l*num_betas ..), and likewise gammas. out[l] receives lane l's <C>,
/// bit-identical to a lone evaluate() of lane l's angles. Memory does not
/// grow with B: afterwards ws holds only the last lane's state (see
/// EvalWorkspace).
void evaluate_batch(const QaoaPlan& plan, EvalWorkspace& ws,
                    std::span<const double> betas,
                    std::span<const double> gammas, std::span<double> out);

/// Packed-angle batch: lane l occupies angles[l*2p .. (l+1)*2p), each lane
/// packed as betas then gammas. Only valid when num_betas() == rounds().
void evaluate_batch_packed(const QaoaPlan& plan, EvalWorkspace& ws,
                           std::span<const double> angles,
                           std::span<double> out);

}  // namespace fastqaoa
