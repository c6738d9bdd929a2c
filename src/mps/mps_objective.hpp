#pragma once
/// \file mps_objective.hpp
/// The MPS side of the angle-finding seam (anglefind/angle_engine.hpp).
/// Its per-thread objectives use central finite-difference gradients (the
/// adjoint sweep is statevector-specific), have no batch hook (no batched
/// MPS kernels), and poll the run's live budget inside every evaluation
/// (per round and per excursion, see MpsWorkspace::tracker).

#include <cstdint>
#include <string>

#include "anglefind/angle_engine.hpp"
#include "mps/mps_plan.hpp"

namespace fastqaoa::mps {

/// Engine-tagged checkpoint mixer string: "mps:tf chi=<max_bond>
/// tol=<trunc_tol> budget=<fidelity_budget> order=rcm route=excursion
/// blocks=z2". Encodes every knob that changes results, and the site order,
/// routing and bond splits the schedule runs on, so resuming with different
/// truncation settings — or from a checkpoint written on an unrelabelled,
/// route-and-return or dense-split engine — is refused loudly.
std::string fingerprint_tag(const MpsPlan& plan);

/// The MPS engine for every driver in anglefind/strategies.hpp, e.g.
/// find_angles(MpsAngleEngine(plan), ...). options.gradient is ignored
/// (always central differences), and hops score one proposal (no batch
/// hook). One MpsPlan serves every depth; checkpoints are tagged with
/// dim = n and fingerprint_tag(plan). Holds a reference; the plan must
/// outlive it.
class MpsAngleEngine final : public AngleEngine {
 public:
  explicit MpsAngleEngine(const MpsPlan& plan) : plan_(plan) {}

  [[nodiscard]] ObjectiveFactory at_depth(
      int p, const FindAnglesOptions& options) const override;
  [[nodiscard]] std::uint64_t dim() const override { return plan_.n(); }
  [[nodiscard]] std::string tag() const override;

 private:
  const MpsPlan& plan_;
};

}  // namespace fastqaoa::mps
