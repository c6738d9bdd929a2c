#include "autodiff/adjoint.hpp"

#include "common/error.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"

namespace fastqaoa {

double adjoint_value_and_gradient(const QaoaPlan& plan, EvalWorkspace& ws,
                                  std::span<const double> betas,
                                  std::span<const double> gammas,
                                  std::span<double> grad_betas,
                                  std::span<double> grad_gammas) {
  FASTQAOA_CHECK(grad_betas.size() == betas.size(),
                 "value_and_gradient: grad_betas size mismatch");
  FASTQAOA_CHECK(grad_gammas.size() == gammas.size(),
                 "value_and_gradient: grad_gammas size mismatch");
  obs::SinkScope metrics_scope(ws.metrics);
  FASTQAOA_OBS_HIST_TIMED("autodiff.adjoint.seconds");
  FASTQAOA_TRACE_SPAN("adjoint_gradient");

  // Forward pass (ws.psi keeps the final state; the reverse sweep unwinds a
  // copy so callers can still read the optimized state afterwards).
  const double value = evaluate(plan, ws, betas, gammas);
  cvec& psi = ws.adjoint_psi;
  psi.resize(ws.psi.size());
  linalg::copy_state(ws.psi, psi);

  // lambda = C |psi>, with C the *measured* objective.
  const dvec& obj = plan.work_objective();
  ws.lambda.resize(psi.size());
  linalg::copy_state(psi, ws.lambda);
  linalg::diag_mul(ws.lambda, obj, 1.0);

  const dvec& phase = plan.work_phase_values();
  const linalg::DiagDict* pdict = &plan.phase_dict();
  const auto& layers = plan.work_layers();

  // Reverse sweep: unapply each layer from both psi and lambda, harvesting
  // angle gradients along the way. A round's cost phase is unapplied by the
  // next mixer step (fused into its transform where the mixer can); round
  // 1's never is, since nothing reads the states after it.
  FASTQAOA_OBS_HIST_TIMED("autodiff.adjoint.reverse.seconds");
  std::size_t beta_index = betas.size();
  const dvec* pending = nullptr;
  double pending_gamma = 0.0;
  for (std::size_t k = layers.size(); k-- > 0;) {
    const MixerLayer& layer = layers[k];
    for (std::size_t j = layer.mixers.size(); j-- > 0;) {
      --beta_index;
      // dE/dbeta = 2 Im <lambda| H_M |psi> at the post-mixer-j state.
      grad_betas[beta_index] = layer.mixers[j]->adjoint_step(
          psi, ws.lambda, pending, pdict, pending_gamma, betas[beta_index],
          ws.scratch, ws.hpsi);
      pending = nullptr;
    }
    // dE/dgamma = 2 Im <lambda| H_C |phi> at the post-phase state.
    grad_gammas[k] = 2.0 * linalg::diag_bracket_imag(ws.lambda, phase, psi);
    pending = &phase;
    pending_gamma = gammas[k];
  }
  FASTQAOA_ASSERT(beta_index == 0, "adjoint: beta bookkeeping error");
  return value;
}

double adjoint_value_and_gradient_packed(const QaoaPlan& plan,
                                         EvalWorkspace& ws,
                                         std::span<const double> angles,
                                         std::span<double> grad) {
  const int p = plan.rounds();
  FASTQAOA_CHECK(plan.num_betas() == p,
                 "value_and_gradient_packed: only for single-mixer rounds");
  FASTQAOA_CHECK(static_cast<int>(angles.size()) == 2 * p &&
                     grad.size() == angles.size(),
                 "value_and_gradient_packed: need 2p angles and gradients");
  const std::size_t sp = static_cast<std::size_t>(p);
  return adjoint_value_and_gradient(plan, ws, angles.subspan(0, sp),
                                    angles.subspan(sp, sp),
                                    grad.subspan(0, sp), grad.subspan(sp, sp));
}

AdjointDifferentiator::AdjointDifferentiator(Qaoa& qaoa)
    : plan_(&qaoa.plan()), ws_(&qaoa.workspace()) {}

AdjointDifferentiator::AdjointDifferentiator(const QaoaPlan& plan,
                                             EvalWorkspace& ws)
    : plan_(&plan), ws_(&ws) {}

double AdjointDifferentiator::value_and_gradient(
    std::span<const double> betas, std::span<const double> gammas,
    std::span<double> grad_betas, std::span<double> grad_gammas) {
  return adjoint_value_and_gradient(*plan_, *ws_, betas, gammas, grad_betas,
                                    grad_gammas);
}

double AdjointDifferentiator::value_and_gradient_packed(
    std::span<const double> angles, std::span<double> grad) {
  return adjoint_value_and_gradient_packed(*plan_, *ws_, angles, grad);
}

}  // namespace fastqaoa
