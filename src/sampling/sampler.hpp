#pragma once
/// \file sampler.hpp
/// Measurement sampling from simulated statevectors.
///
/// Exact simulation gives amplitudes; real experiments give shots. This
/// module bridges the two: draw computational-basis measurement outcomes
/// from |psi_i|^2 (Walker's alias method — O(dim) setup, O(1) per draw),
/// estimate expectation values from finite shot budgets, and verify
/// fair-sampling properties empirically. Useful for studying how many
/// shots an angle-finding loop would need on hardware.

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "linalg/state_ref.hpp"

namespace fastqaoa {

/// O(1)-per-draw discrete sampler over measurement outcomes of a state.
class MeasurementSampler {
 public:
  /// Build from a statevector (probabilities |psi_i|^2, renormalized
  /// against accumulated float error). Throws on a zero vector. Takes a
  /// view; the probabilities are copied out, nothing references the state
  /// afterwards.
  explicit MeasurementSampler(linalg::ConstStateRef psi);

  /// Build directly from (non-negative, not all zero) weights.
  explicit MeasurementSampler(const dvec& weights);

  /// Number of outcomes.
  [[nodiscard]] index_t dim() const noexcept {
    return probability_.size();
  }

  /// Probability of outcome i.
  [[nodiscard]] double probability(index_t i) const {
    return probability_[i];
  }

  /// Draw one outcome index.
  [[nodiscard]] index_t sample(Rng& rng) const;

  /// Draw `shots` outcomes and return per-outcome counts.
  [[nodiscard]] std::vector<std::uint64_t> sample_counts(std::uint64_t shots,
                                                         Rng& rng) const;

  /// Shot-based estimate of a diagonal observable: mean of values[outcome]
  /// over `shots` draws.
  [[nodiscard]] double estimate_expectation(const dvec& values,
                                            std::uint64_t shots,
                                            Rng& rng) const;

  /// Exact expectation under this distribution (for comparing against the
  /// shot estimate).
  [[nodiscard]] double exact_expectation(const dvec& values) const;

  /// Standard error of the `shots`-shot estimator of `values`:
  /// sqrt(Var[values(X)] / shots).
  [[nodiscard]] double standard_error(const dvec& values,
                                      std::uint64_t shots) const;

 private:
  void build_alias_table();

  dvec probability_;
  // Walker alias table: each column i holds a threshold and an alias.
  std::vector<double> threshold_;
  std::vector<index_t> alias_;
};

}  // namespace fastqaoa
