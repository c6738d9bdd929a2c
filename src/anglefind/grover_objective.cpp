#include "anglefind/grover_objective.hpp"

#include <memory>
#include <sstream>

#include "common/error.hpp"

namespace fastqaoa {

GroverObjective::GroverObjective(GroverQaoa engine, Direction direction)
    : engine_(std::move(engine)), direction_(direction) {}

double GroverObjective::operator()(std::span<const double> packed,
                                   std::span<double> grad) {
  FASTQAOA_CHECK(packed.size() % 2 == 0 && !packed.empty(),
                 "GroverObjective: need 2p packed angles");
  const std::size_t p = packed.size() / 2;
  const double sign = direction_ == Direction::Maximize ? -1.0 : 1.0;
  if (grad.empty()) {
    ++evals_;
    return sign * engine_.run(packed.subspan(0, p), packed.subspan(p, p));
  }
  FASTQAOA_CHECK(grad.size() == packed.size(),
                 "GroverObjective: gradient span size mismatch");
  evals_ += 2;
  grad_betas_.resize(p);
  grad_gammas_.resize(p);
  const double value = engine_.value_and_gradient(
      packed.subspan(0, p), packed.subspan(p, p), grad_betas_, grad_gammas_);
  for (std::size_t i = 0; i < p; ++i) {
    grad[i] = sign * grad_betas_[i];
    grad[p + i] = sign * grad_gammas_[i];
  }
  return sign * value;
}

ObjectiveFactory GroverAngleEngine::at_depth(
    int /*p*/, const FindAnglesOptions& options) const {
  GroverQaoa prototype = qaoa_;
  if (options.phase_values) {
    prototype.set_phase_values(std::vector<double>(
        options.phase_values->begin(), options.phase_values->end()));
  }
  return [prototype = std::make_shared<const GroverQaoa>(std::move(prototype)),
          direction = options.direction] {
    return std::make_unique<GroverObjective>(*prototype, direction);
  };
}

std::string GroverAngleEngine::tag() const {
  std::ostringstream out;
  out.precision(17);
  out << "grover:N=" << qaoa_.total_states()
      << " classes=" << qaoa_.num_classes();
  return out.str();
}

}  // namespace fastqaoa
