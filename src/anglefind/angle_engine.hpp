#pragma once
/// \file angle_engine.hpp
/// The one seam between the angle-finding drivers (strategies.hpp) and an
/// evaluation engine. find_angles, find_angles_at, find_angles_random,
/// find_angles_grid and evaluate_angles run against AngleEngine, so chains,
/// quarantine, INTERP rounds, checkpoints, restarts and sweeps exist once.
/// The exact statevector engine implements it here (ExactAngleEngine), the
/// MPS engine in mps/mps_objective.hpp; a further engine plugs in the same
/// way instead of copying a driver.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "anglefind/optimizer.hpp"
#include "common/types.hpp"
#include "mixers/mixer.hpp"
#include "obs/metrics.hpp"

namespace fastqaoa {

struct FindAnglesOptions;

/// One optimization thread's objective. It owns its engine workspace; the
/// drivers bind metrics() while it runs and merge it at the join point.
class AngleObjective {
 public:
  AngleObjective() = default;
  AngleObjective(const AngleObjective&) = delete;  // callables hold `this`
  AngleObjective& operator=(const AngleObjective&) = delete;
  virtual ~AngleObjective() = default;

  /// The GradObjective contract: minimized f (= -<C> when maximizing), and
  /// df/dx when `grad` is non-empty.
  virtual double operator()(std::span<const double> packed,
                            std::span<double> grad) = 0;

  /// Batched values (the BatchObjective contract) for scoring hop
  /// proposals, or nullptr for an engine without a batch hook: hops then
  /// score one proposal.
  virtual const BatchObjective* batch() { return nullptr; }

  /// Underlying engine evaluations so far.
  [[nodiscard]] virtual std::size_t evaluations() const = 0;

  virtual obs::MetricsSink& metrics() = 0;

  /// *this as the callable the optimizers take (references *this).
  [[nodiscard]] GradObjective as_grad_objective() {
    return [this](std::span<const double> x, std::span<double> g) {
      return (*this)(x, g);
    };
  }
};

/// Makes one AngleObjective per optimization thread; called concurrently.
using ObjectiveFactory = std::function<std::unique_ptr<AngleObjective>()>;

class AngleEngine {
 public:
  AngleEngine() = default;
  AngleEngine(const AngleEngine&) = delete;
  AngleEngine& operator=(const AngleEngine&) = delete;
  virtual ~AngleEngine() = default;

  /// The depth-p setup that every chain of a round shares read-only.
  /// `options` supplies the direction, gradient provider and the live
  /// budget (options.hopping.local.budget).
  [[nodiscard]] virtual ObjectiveFactory at_depth(
      int p, const FindAnglesOptions& options) const = 0;

  /// Checkpoint identity (CheckpointFingerprint): the problem dimension and
  /// a tag encoding every engine knob that changes results.
  [[nodiscard]] virtual std::uint64_t dim() const = 0;
  [[nodiscard]] virtual std::string tag() const = 0;
};

/// The exact statevector engine: a QaoaPlan per depth over the objective
/// table; checkpoints carry dim = obj_vals.size() and mixer.name(). Holds
/// references; both must outlive the engine.
class ExactAngleEngine final : public AngleEngine {
 public:
  ExactAngleEngine(const Mixer& mixer, const dvec& obj_vals)
      : mixer_(mixer), obj_vals_(obj_vals) {}

  [[nodiscard]] ObjectiveFactory at_depth(
      int p, const FindAnglesOptions& options) const override;
  [[nodiscard]] std::uint64_t dim() const override { return obj_vals_.size(); }
  [[nodiscard]] std::string tag() const override { return mixer_.name(); }

 private:
  const Mixer& mixer_;
  const dvec& obj_vals_;
};

}  // namespace fastqaoa
