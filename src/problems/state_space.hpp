#pragma once
/// \file state_space.hpp
/// The feasible set S a QAOA operates on (paper §2.1): either the full
/// n-qubit computational basis (unconstrained problems) or the
/// Hamming-weight-k Dicke subspace of size C(n,k) (constrained problems).
/// Everything downstream — cost tabulation, mixers, the statevector itself —
/// is indexed against a StateSpace, which is how the simulator "simply
/// ignores all non-feasible states".

#include <memory>
#include <span>

#include "bits/combinatorics.hpp"
#include "common/types.hpp"

namespace fastqaoa {

/// Feasible state set: full basis or Dicke (fixed Hamming weight) subspace.
class StateSpace {
 public:
  /// All 2^n computational basis states.
  static StateSpace full(int n);

  /// All C(n,k) basis states of Hamming weight k.
  static StateSpace dicke(int n, int k);

  [[nodiscard]] int n() const noexcept { return n_; }
  /// Hamming weight for Dicke spaces; -1 for the full space.
  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] bool constrained() const noexcept { return k_ >= 0; }
  /// Dimension of the feasible subspace.
  [[nodiscard]] index_t dim() const noexcept { return dim_; }

  /// The i-th feasible state (increasing numeric order).
  [[nodiscard]] state_t state(index_t i) const {
    return constrained() ? dicke_->state(i) : static_cast<state_t>(i);
  }

  /// The feasible states in order for a Dicke space; empty for the full
  /// space, whose i-th state is i.
  [[nodiscard]] std::span<const state_t> dicke_states() const noexcept {
    return constrained() ? std::span<const state_t>(dicke_->states())
                         : std::span<const state_t>();
  }

  /// Index of a feasible state; throws if x is infeasible.
  [[nodiscard]] index_t index_of(state_t x) const;

  /// True iff x belongs to the feasible set.
  [[nodiscard]] bool contains(state_t x) const;

  /// Visit every feasible state in order: fn(index, state).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (constrained()) {
      const auto& states = dicke_->states();
      for (index_t i = 0; i < states.size(); ++i) fn(i, states[i]);
    } else {
      for (index_t i = 0; i < dim_; ++i) fn(i, static_cast<state_t>(i));
    }
  }

  bool operator==(const StateSpace& o) const noexcept {
    return n_ == o.n_ && k_ == o.k_;
  }

 private:
  StateSpace(int n, int k);

  int n_;
  int k_;
  index_t dim_;
  std::shared_ptr<const DickeBasis> dicke_;  // null for the full space
};

}  // namespace fastqaoa
