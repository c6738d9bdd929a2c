#include "autodiff/finite_diff.hpp"

#include "common/error.hpp"

namespace fastqaoa {

FiniteDiffDifferentiator::FiniteDiffDifferentiator(Qaoa& qaoa, FdScheme scheme,
                                                   double step)
    : FiniteDiffDifferentiator(qaoa.plan(), qaoa.workspace(), scheme, step) {}

FiniteDiffDifferentiator::FiniteDiffDifferentiator(const QaoaPlan& plan,
                                                   EvalWorkspace& ws,
                                                   FdScheme scheme,
                                                   double step)
    : plan_(&plan), ws_(&ws), scheme_(scheme), step_(step) {
  FASTQAOA_CHECK(step > 0.0, "FiniteDiffDifferentiator: step must be > 0");
}

double FiniteDiffDifferentiator::do_evaluate(std::span<const double> betas,
                                             std::span<const double> gammas) {
  ++evals_;
  return evaluate(*plan_, *ws_, betas, gammas);
}

double FiniteDiffDifferentiator::value_and_gradient(
    std::span<const double> betas, std::span<const double> gammas,
    std::span<double> grad_betas, std::span<double> grad_gammas) {
  FASTQAOA_CHECK(grad_betas.size() == betas.size(),
                 "value_and_gradient: grad_betas size mismatch");
  FASTQAOA_CHECK(grad_gammas.size() == gammas.size(),
                 "value_and_gradient: grad_gammas size mismatch");
  work_betas_.assign(betas.begin(), betas.end());
  work_gammas_.assign(gammas.begin(), gammas.end());

  const double value = do_evaluate(work_betas_, work_gammas_);

  auto differentiate = [&](std::vector<double>& angles, std::size_t i) {
    const double saved = angles[i];
    double derivative = 0.0;
    if (scheme_ == FdScheme::Central) {
      angles[i] = saved + step_;
      const double plus = do_evaluate(work_betas_, work_gammas_);
      angles[i] = saved - step_;
      const double minus = do_evaluate(work_betas_, work_gammas_);
      derivative = (plus - minus) / (2.0 * step_);
    } else {
      angles[i] = saved + step_;
      const double plus = do_evaluate(work_betas_, work_gammas_);
      derivative = (plus - value) / step_;
    }
    angles[i] = saved;
    return derivative;
  };

  for (std::size_t i = 0; i < work_betas_.size(); ++i) {
    grad_betas[i] = differentiate(work_betas_, i);
  }
  for (std::size_t i = 0; i < work_gammas_.size(); ++i) {
    grad_gammas[i] = differentiate(work_gammas_, i);
  }
  return value;
}

double FiniteDiffDifferentiator::value_and_gradient_packed(
    std::span<const double> angles, std::span<double> grad) {
  const int p = plan_->rounds();
  FASTQAOA_CHECK(plan_->num_betas() == p,
                 "value_and_gradient_packed: only for single-mixer rounds");
  FASTQAOA_CHECK(static_cast<int>(angles.size()) == 2 * p &&
                     grad.size() == angles.size(),
                 "value_and_gradient_packed: need 2p angles and gradients");
  const std::size_t sp = static_cast<std::size_t>(p);
  return value_and_gradient(angles.subspan(0, sp), angles.subspan(sp, sp),
                            grad.subspan(0, sp), grad.subspan(sp, sp));
}

}  // namespace fastqaoa
