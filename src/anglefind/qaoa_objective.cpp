#include "anglefind/qaoa_objective.hpp"

#include "common/error.hpp"

namespace fastqaoa {

QaoaObjective::QaoaObjective(const QaoaPlan& plan, EvalWorkspace& ws,
                             Direction direction, GradientProvider provider)
    : plan_(&plan),
      ws_(&ws),
      direction_(direction),
      provider_(provider),
      central_(plan, ws, FdScheme::Central),
      forward_(plan, ws, FdScheme::Forward) {}

QaoaObjective::QaoaObjective(Qaoa& engine, Direction direction,
                             GradientProvider provider)
    : QaoaObjective(engine.plan(), engine.workspace(), direction, provider) {}

double QaoaObjective::operator()(std::span<const double> packed,
                                 std::span<double> grad) {
  const double sign = direction_ == Direction::Maximize ? -1.0 : 1.0;
  if (grad.empty()) {
    ++evals_;
    return sign * evaluate_packed(*plan_, *ws_, packed);
  }
  FASTQAOA_CHECK(grad.size() == packed.size(),
                 "QaoaObjective: gradient span size mismatch");
  double value = 0.0;
  switch (provider_) {
    case GradientProvider::Adjoint:
      value = adjoint_value_and_gradient_packed(*plan_, *ws_, packed, grad);
      evals_ += 2;  // forward pass + reverse sweep (see evaluations())
      break;
    case GradientProvider::CentralDiff: {
      central_.reset_evaluations();
      value = central_.value_and_gradient_packed(packed, grad);
      evals_ += central_.evaluations();
      break;
    }
    case GradientProvider::ForwardDiff: {
      forward_.reset_evaluations();
      value = forward_.value_and_gradient_packed(packed, grad);
      evals_ += forward_.evaluations();
      break;
    }
  }
  for (double& g : grad) g *= sign;
  return sign * value;
}

void QaoaObjective::value_batch(std::span<const double> packed_lanes,
                                std::span<double> out) {
  FASTQAOA_CHECK(!out.empty(), "value_batch: empty output span");
  evaluate_batch_packed(*plan_, *ws_, packed_lanes, out);
  evals_ += out.size();
  if (direction_ == Direction::Maximize) {
    for (double& v : out) v = -v;
  }
}

GradObjective QaoaObjective::as_grad_objective() {
  return [this](std::span<const double> x, std::span<double> g) {
    return (*this)(x, g);
  };
}

}  // namespace fastqaoa
