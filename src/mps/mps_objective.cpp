#include "mps/mps_objective.hpp"

#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "anglefind/strategies.hpp"
#include "common/error.hpp"

namespace fastqaoa::mps {

namespace {

constexpr double kFdStep = 1e-6;

class MpsObjective final : public AngleObjective {
 public:
  MpsObjective(const MpsPlan& plan, Direction direction,
               const runtime::BudgetTracker* budget)
      : plan_(&plan), direction_(direction) {
    ws_.tracker = budget;
  }

  /// f (and central-difference gradient when `grad` is non-empty).
  double operator()(std::span<const double> packed,
                    std::span<double> grad) override {
    const double f = value(packed);
    if (grad.empty()) return f;
    FASTQAOA_CHECK(grad.size() == packed.size(),
                   "MpsObjective: gradient span size mismatch");
    scratch_.assign(packed.begin(), packed.end());
    for (std::size_t d = 0; d < packed.size(); ++d) {
      const double x = scratch_[d];
      scratch_[d] = x + kFdStep;
      const double fp = value(scratch_);
      scratch_[d] = x - kFdStep;
      const double fm = value(scratch_);
      scratch_[d] = x;
      grad[d] = (fp - fm) / (2.0 * kFdStep);
    }
    return f;
  }

  /// MPS evaluations so far (a gradient tallies 4p + the value).
  [[nodiscard]] std::size_t evaluations() const override { return evals_; }

  obs::MetricsSink& metrics() override { return ws_.metrics; }

 private:
  double value(std::span<const double> packed) {
    ++evals_;
    const double e = evaluate_packed(*plan_, ws_, packed);
    return direction_ == Direction::Maximize ? -e : e;
  }

  const MpsPlan* plan_;
  MpsWorkspace ws_;
  Direction direction_;
  std::size_t evals_ = 0;
  std::vector<double> scratch_;
};

}  // namespace

std::string fingerprint_tag(const MpsPlan& plan) {
  std::ostringstream out;
  out.precision(17);
  out << "mps:tf chi=" << plan.options().max_bond
      << " tol=" << plan.options().trunc_tol
      << " budget=" << plan.options().fidelity_budget << " order=rcm"
      << " route=excursion blocks=z2";
  return out.str();
}

ObjectiveFactory MpsAngleEngine::at_depth(
    int /*p*/, const FindAnglesOptions& options) const {
  return [plan = &plan_, direction = options.direction,
          budget = options.hopping.local.budget] {
    return std::make_unique<MpsObjective>(*plan, direction, budget);
  };
}

std::string MpsAngleEngine::tag() const { return fingerprint_tag(plan_); }

}  // namespace fastqaoa::mps
