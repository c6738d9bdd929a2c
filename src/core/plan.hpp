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

#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "linalg/diag_dict.hpp"
#include "mixers/mixer.hpp"
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
  /// Quantized dictionary over phase_values(), built eagerly at
  /// construction. Valid whenever the phase table has few distinct values
  /// (integer-weighted cost functions, indicators); lets evaluate() and
  /// the adjoint gradient collapse the phase-separator sincos sweep to one
  /// call per distinct value. Invalid dictionaries are simply not used.
  [[nodiscard]] const linalg::DiagDict& phase_dict() const noexcept {
    return phase_dict_;
  }
  [[nodiscard]] const std::vector<MixerLayer>& layers() const noexcept {
    return layers_;
  }
  /// The (eagerly built, always non-empty) initial state.
  [[nodiscard]] const cvec& initial_state() const noexcept { return psi0_; }

  /// Whether a custom phase table / initial state was supplied.
  [[nodiscard]] bool has_custom_phase() const noexcept {
    return !phase_vals_.empty();
  }
  [[nodiscard]] bool has_custom_initial_state() const noexcept {
    return custom_psi0_;
  }

 private:
  void validate_and_finalize(QaoaPlanOptions options);

  std::vector<MixerLayer> layers_;
  dvec obj_vals_;
  dvec phase_vals_;  ///< empty = use obj_vals_ as the phase table
  linalg::DiagDict phase_dict_;  ///< quantized view of phase_values()
  cvec psi0_;        ///< built eagerly at construction, never empty
  int num_betas_ = 0;
  bool custom_psi0_ = false;
};

/// Per-evaluation mutable state: cheap to construct, reusable across calls
/// (buffers are grown on first use, then evaluation is allocation-free).
/// One workspace per thread; never share a workspace across threads.
///
/// evaluate() writes psi and expectation. evaluate_batch() runs evaluate()
/// once per lane, so after a batch psi and expectation hold the LAST lane's
/// final state and <C>; the other lanes' states are not kept.
struct EvalWorkspace {
  cvec psi;      ///< statevector of the last evaluate()
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
  /// (obs::merge_global). Untouched when FASTQAOA_PROFILING=OFF.
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
