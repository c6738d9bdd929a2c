#include "core/qaoa.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "linalg/vector_ops.hpp"

namespace fastqaoa {

Qaoa::Qaoa(const Mixer& mixer, dvec obj_vals, int rounds)
    : plan_(mixer, std::move(obj_vals), rounds) {}

Qaoa::Qaoa(std::vector<const Mixer*> round_mixers, dvec obj_vals)
    : plan_(std::move(round_mixers), std::move(obj_vals)) {}

Qaoa::Qaoa(std::vector<MixerLayer> layers, dvec obj_vals)
    : plan_(std::move(layers), std::move(obj_vals)) {}

Qaoa::Qaoa(QaoaPlan plan) : plan_(std::move(plan)) {}

void Qaoa::set_initial_state(cvec psi0) {
  QaoaPlanOptions options;
  options.initial_state = std::move(psi0);
  if (plan_.has_custom_phase()) options.phase_values = plan_.phase_values();
  plan_ = QaoaPlan(plan_.layers(), plan_.objective(), std::move(options));
}

void Qaoa::set_phase_values(dvec phase_vals) {
  QaoaPlanOptions options;
  options.phase_values = std::move(phase_vals);
  if (plan_.has_custom_initial_state()) {
    options.initial_state = plan_.initial_state();
  }
  plan_ = QaoaPlan(plan_.layers(), plan_.objective(), std::move(options));
}

double Qaoa::run(std::span<const double> betas,
                 std::span<const double> gammas) {
  return evaluate(plan_, ws_, betas, gammas);
}

double Qaoa::run_packed(std::span<const double> angles) {
  return evaluate_packed(plan_, ws_, angles);
}

cvec Qaoa::state() const {
  cvec psi;
  if (!ws_.psi.empty()) unfold_state(plan_, ws_.psi, psi);
  return psi;
}

// The views below read the workspace directly. When the plan folds, the
// full-space state is psi(x) = phi(x mod 2^(n-1))/sqrt(2) for x in the first
// half, and x's complement carries the same amplitude; the objective is
// flip-invariant, so its first half against phi gives the full-space mass.

double Qaoa::ground_state_probability(Direction direction) const {
  const ObjectiveStats stats = objective_stats(plan_.work_objective());
  const double target =
      direction == Direction::Maximize ? stats.max_value : stats.min_value;
  return linalg::probability_at_value(plan_.work_objective(), ws_.psi, target);
}

double Qaoa::probability_of_value(double value) const {
  return linalg::probability_at_value(plan_.work_objective(), ws_.psi, value);
}

double Qaoa::expectation_of(const dvec& observable) const {
  FASTQAOA_CHECK(observable.size() == dim(),
                 "expectation_of: observable size mismatch");
  if (!plan_.folded()) return linalg::diag_expectation(observable, ws_.psi);
  FASTQAOA_CHECK(ws_.psi.size() == plan_.work_dim(),
                 "expectation_of: no state; call run() first");
  const index_t top = dim() - 1;
  double sum = 0.0;
  for (index_t y = 0; y < ws_.psi.size(); ++y) {
    sum += 0.5 * (observable[y] + observable[y ^ top]) * std::norm(ws_.psi[y]);
  }
  return sum;
}

cplx Qaoa::amplitude(index_t i) const {
  FASTQAOA_CHECK(i < dim() && ws_.psi.size() == plan_.work_dim(),
                 "amplitude: index out of range");
  if (!plan_.folded()) return ws_.psi[i];
  const index_t half = plan_.work_dim();
  const index_t y = i < half ? i : (i - half) ^ (half - 1);
  return ws_.psi[y] * (1.0 / std::sqrt(2.0));
}

SimResult simulate(std::span<const double> angles, const Mixer& mixer,
                   const dvec& obj_vals) {
  FASTQAOA_CHECK(angles.size() % 2 == 0 && !angles.empty(),
                 "simulate: need 2p angles (betas then gammas)");
  const int p = static_cast<int>(angles.size() / 2);
  Qaoa engine(mixer, obj_vals, p);
  engine.run_packed(angles);
  SimResult result;
  result.exp_value = engine.expectation();
  result.ground_state_prob = engine.ground_state_probability();
  result.best_value = objective_stats(obj_vals).max_value;
  result.statevector = engine.state();
  return result;
}

SimResult simulate(std::span<const double> angles, const Mixer& mixer,
                   const dvec& obj_vals, const cvec& initial_state) {
  FASTQAOA_CHECK(angles.size() % 2 == 0 && !angles.empty(),
                 "simulate: need 2p angles (betas then gammas)");
  const int p = static_cast<int>(angles.size() / 2);
  Qaoa engine(mixer, obj_vals, p);
  engine.set_initial_state(initial_state);
  engine.run_packed(angles);
  SimResult result;
  result.exp_value = engine.expectation();
  result.ground_state_prob = engine.ground_state_probability();
  result.best_value = objective_stats(obj_vals).max_value;
  result.statevector = engine.state();
  return result;
}

}  // namespace fastqaoa
