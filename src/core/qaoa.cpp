#include "core/qaoa.hpp"

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

double Qaoa::ground_state_probability(Direction direction) const {
  const ObjectiveStats stats = objective_stats(plan_.objective());
  const double target =
      direction == Direction::Maximize ? stats.max_value : stats.min_value;
  return linalg::probability_at_value(plan_.objective(), ws_.psi, target);
}

double Qaoa::probability_of_value(double value) const {
  return linalg::probability_at_value(plan_.objective(), ws_.psi, value);
}

double Qaoa::expectation_of(const dvec& observable) const {
  FASTQAOA_CHECK(observable.size() == dim(),
                 "expectation_of: observable size mismatch");
  return linalg::diag_expectation(observable, ws_.psi);
}

cplx Qaoa::amplitude(index_t i) const {
  FASTQAOA_CHECK(i < ws_.psi.size(), "amplitude: index out of range");
  return ws_.psi[i];
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
