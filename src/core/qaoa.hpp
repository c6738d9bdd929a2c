#pragma once
/// \file qaoa.hpp
/// The QAOA statevector engine (paper §2.2), now a thin compatibility
/// facade over the QaoaPlan / EvalWorkspace split (see core/plan.hpp). A
/// Qaoa object owns one immutable plan plus one workspace and evaluates
///   |β,γ> = e^{-iβ_p H_M} e^{-iγ_p H_C} ... e^{-iβ_1 H_M} e^{-iγ_1 H_C} |ψ0>
/// with functionally zero per-call overhead — the property the angle-finding
/// outer loop leans on. Code that wants to share one precomputation across
/// threads should use QaoaPlan + per-thread EvalWorkspace directly; this
/// class exists so single-threaded callers keep the familiar API.
///
/// Flexibility knobs (paper §3):
///  * per-round mixer schedules (array of p mixers),
///  * multi-angle QAOA (several mixers, each with its own β, inside a round),
///  * custom initial states (warm starts),
///  * a phase-separator table decoupled from the measured objective
///    (threshold-QAOA uses an indicator phase but measures the true cost).

#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/plan.hpp"
#include "mixers/mixer.hpp"
#include "problems/objective.hpp"

namespace fastqaoa {

/// Reusable QAOA evaluation engine: an owned QaoaPlan plus one
/// EvalWorkspace. Not thread-safe as a whole (the workspace is mutable
/// state); share plan() across threads instead.
class Qaoa {
 public:
  /// Same mixer every round, for `rounds` rounds (the common case).
  Qaoa(const Mixer& mixer, dvec obj_vals, int rounds);

  /// One (single-mixer) layer per round.
  Qaoa(std::vector<const Mixer*> round_mixers, dvec obj_vals);

  /// Fully general multi-angle schedule: layers[k] lists the mixers of
  /// round k, each taking its own β.
  Qaoa(std::vector<MixerLayer> layers, dvec obj_vals);

  /// Wrap an existing plan (copied; plans are cheap relative to evaluation).
  explicit Qaoa(QaoaPlan plan);

  /// Number of rounds p.
  [[nodiscard]] int rounds() const noexcept { return plan_.rounds(); }
  /// Total number of β angles (= p for single-mixer layers).
  [[nodiscard]] int num_betas() const noexcept { return plan_.num_betas(); }
  /// Total number of γ angles (= p).
  [[nodiscard]] int num_gammas() const noexcept { return plan_.num_gammas(); }
  /// Hilbert-space (feasible subspace) dimension.
  [[nodiscard]] index_t dim() const noexcept { return plan_.dim(); }

  [[nodiscard]] const dvec& objective() const noexcept {
    return plan_.objective();
  }
  [[nodiscard]] const dvec& phase_values() const noexcept {
    return plan_.phase_values();
  }
  [[nodiscard]] const std::vector<MixerLayer>& layers() const noexcept {
    return plan_.layers();
  }

  /// The immutable plan backing this engine. Safe to evaluate from other
  /// threads (with their own workspaces) while this engine exists — but
  /// note set_initial_state()/set_phase_values() rebuild the plan in place,
  /// so do not mutate the engine while the plan is shared.
  [[nodiscard]] const QaoaPlan& plan() const noexcept { return plan_; }

  /// This engine's own workspace (adjoint/finite-diff helpers bind to it).
  [[nodiscard]] EvalWorkspace& workspace() noexcept { return ws_; }
  [[nodiscard]] const EvalWorkspace& workspace() const noexcept { return ws_; }

  /// Override the |ψ0> = uniform-superposition default (warm starts).
  /// The vector must be unit-norm and of dimension dim(). Rebuilds the plan.
  void set_initial_state(cvec psi0);

  /// Use a phase-separator table different from the measured objective —
  /// e.g. threshold_indicator(obj_vals, t) for threshold QAOA. Rebuilds the
  /// plan.
  void set_phase_values(dvec phase_vals);

  /// The full-space initial state this engine starts from.
  [[nodiscard]] cvec initial_state() const { return plan_.initial_state(); }

  /// Evolve the ansatz and return <C>. betas.size() must equal num_betas(),
  /// gammas.size() must equal num_gammas(). The statevector stays in the
  /// workspace buffer — read it via state().
  double run(std::span<const double> betas, std::span<const double> gammas);

  /// Paper-style packed angles: angles[0..p) = betas, angles[p..2p) = gammas
  /// (Listing 1). Only valid when num_betas() == rounds().
  double run_packed(std::span<const double> angles);

  /// Full-space statevector after the last run(), returned as a copy. When
  /// the plan folds (QaoaPlan's Z2 fold) the workspace holds the
  /// half-length folded state and the copy is its unfolding.
  [[nodiscard]] cvec state() const;

  /// <C> of the last run().
  [[nodiscard]] double expectation() const noexcept { return ws_.expectation; }

  /// Probability mass on optimal states after the last run(): maximizers by
  /// default, minimizers for Direction::Minimize.
  [[nodiscard]] double ground_state_probability(
      Direction direction = Direction::Maximize) const;

  /// Probability mass on states whose objective equals `value`.
  [[nodiscard]] double probability_of_value(double value) const;

  /// Expectation of an arbitrary diagonal observable on the last run()'s
  /// state (secondary objectives, feasibility masses, constraint checks —
  /// anything tabulated over the same feasible set).
  [[nodiscard]] double expectation_of(const dvec& observable) const;

  /// Amplitude of feasible state index i after the last run().
  [[nodiscard]] cplx amplitude(index_t i) const;

 private:
  QaoaPlan plan_;
  EvalWorkspace ws_;
};

/// Result of a one-shot simulate() call (the paper's Listing 1 object):
/// owns its statevector and summary scalars.
struct SimResult {
  cvec statevector;
  double exp_value = 0.0;           ///< <C>
  double ground_state_prob = 0.0;   ///< probability of the best (max) states
  double best_value = 0.0;          ///< max of the objective table
};

/// One-shot evaluation with packed angles (betas then gammas), mirroring the
/// paper's `simulate(angles, mixer, obj_vals)`. For repeated evaluation
/// (angle finding) construct a Qaoa engine instead — it reuses its buffers.
SimResult simulate(std::span<const double> angles, const Mixer& mixer,
                   const dvec& obj_vals);

/// One-shot evaluation with a custom initial state.
SimResult simulate(std::span<const double> angles, const Mixer& mixer,
                   const dvec& obj_vals, const cvec& initial_state);

}  // namespace fastqaoa
