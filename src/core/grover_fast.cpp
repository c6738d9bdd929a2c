#include "core/grover_fast.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/kernels/kernels.hpp"
#include "obs/trace.hpp"

namespace fastqaoa {

GroverQaoa::GroverQaoa(std::vector<double> values, std::vector<double> counts)
    : values_(std::move(values)), counts_(std::move(counts)) {
  FASTQAOA_CHECK(!values_.empty(), "GroverQaoa: empty value table");
  FASTQAOA_CHECK(values_.size() == counts_.size(),
                 "GroverQaoa: values/counts size mismatch");
  for (const double c : counts_) {
    FASTQAOA_CHECK(c > 0.0, "GroverQaoa: counts must be positive");
    total_ += c;
  }
  phase_vals_ = values_;
  vc_.resize(values_.size());
  for (std::size_t j = 0; j < values_.size(); ++j) {
    vc_[j] = values_[j] * counts_[j];
  }
  amps_.resize(values_.size());
}

GroverQaoa::GroverQaoa(const DegeneracyTable& table)
    : GroverQaoa(table.values, std::vector<double>(table.counts.begin(),
                                                   table.counts.end())) {}

void GroverQaoa::set_phase_values(std::vector<double> phase_vals) {
  FASTQAOA_CHECK(phase_vals.size() == values_.size(),
                 "GroverQaoa::set_phase_values: size mismatch");
  phase_vals_ = std::move(phase_vals);
}

void GroverQaoa::apply_grover_exp(std::vector<cplx>& amps,
                                  double beta) const {
  // Grover mixer on the compressed representation:
  // <psi0|psi> sqrt(N) = sum_j m_j a_j.
  cplx weighted{0.0, 0.0};
  for (std::size_t j = 0; j < amps.size(); ++j) {
    weighted += counts_[j] * amps[j];
  }
  const cplx factor =
      (cplx{std::cos(beta), -std::sin(beta)} - 1.0) * weighted / total_;
  for (auto& a : amps) a += factor;
}

cplx GroverQaoa::weighted_dot(const std::vector<cplx>& a,
                              const std::vector<cplx>& b) const {
  cplx acc{0.0, 0.0};
  for (std::size_t j = 0; j < a.size(); ++j) {
    acc += counts_[j] * std::conj(a[j]) * b[j];
  }
  return acc;
}

double GroverQaoa::run(std::span<const double> betas,
                       std::span<const double> gammas) {
  FASTQAOA_CHECK(betas.size() == gammas.size(),
                 "GroverQaoa::run: betas/gammas size mismatch");
  FASTQAOA_OBS_COUNT("core.grover.evals", 1);
  FASTQAOA_OBS_TIMED("core.grover.run");
  FASTQAOA_TRACE_SPAN("grover_run");
  const std::size_t m = values_.size();
  // |psi0> = uniform: every state has amplitude 1/sqrt(N), so class j's
  // representative amplitude is 1/sqrt(N).
  const double amp0 = 1.0 / std::sqrt(total_);
  for (std::size_t j = 0; j < m; ++j) amps_[j] = cplx{amp0, 0.0};

  const linalg::kernels::KernelBackend& kern = linalg::kernels::active();
  for (std::size_t round = 0; round < gammas.size(); ++round) {
    kern.diag_phase(amps_.data(), phase_vals_.data(), nullptr, gammas[round],
                    static_cast<index_t>(m));
    apply_grover_exp(amps_, betas[round]);
  }

  expectation_ = kern.diag_expectation(vc_.data(), amps_.data(),
                                       static_cast<index_t>(m));
  return expectation_;
}

double GroverQaoa::value_and_gradient(std::span<const double> betas,
                                      std::span<const double> gammas,
                                      std::span<double> grad_betas,
                                      std::span<double> grad_gammas) {
  FASTQAOA_CHECK(grad_betas.size() == betas.size() &&
                     grad_gammas.size() == gammas.size(),
                 "GroverQaoa::value_and_gradient: gradient size mismatch");
  FASTQAOA_OBS_COUNT("core.grover.gradients", 1);
  FASTQAOA_OBS_TIMED("core.grover.gradient");
  FASTQAOA_TRACE_SPAN("grover_gradient");
  const double value = run(betas, gammas);
  const std::size_t m = values_.size();

  // Adjoint sweep on the compressed amplitudes (degeneracy-weighted inner
  // products throughout).
  std::vector<cplx> psi = amps_;
  std::vector<cplx> lambda(m);
  for (std::size_t j = 0; j < m; ++j) lambda[j] = values_[j] * psi[j];

  std::vector<cplx> h_psi(m);
  for (std::size_t k = betas.size(); k-- > 0;) {
    // H_G psi = |psi0> <psi0|psi>: constant amplitude across classes.
    const cplx overlap = [&] {
      cplx acc{0.0, 0.0};
      for (std::size_t j = 0; j < m; ++j) acc += counts_[j] * psi[j];
      return acc / total_;
    }();
    for (std::size_t j = 0; j < m; ++j) h_psi[j] = overlap;
    grad_betas[k] = 2.0 * weighted_dot(lambda, h_psi).imag();

    apply_grover_exp(psi, -betas[k]);
    apply_grover_exp(lambda, -betas[k]);

    cplx bracket{0.0, 0.0};
    for (std::size_t j = 0; j < m; ++j) {
      bracket += counts_[j] * std::conj(lambda[j]) * phase_vals_[j] * psi[j];
    }
    grad_gammas[k] = 2.0 * bracket.imag();

    for (std::size_t j = 0; j < m; ++j) {
      const double phase = gammas[k] * phase_vals_[j];
      const cplx undo{std::cos(phase), std::sin(phase)};
      psi[j] *= undo;
      lambda[j] *= undo;
    }
  }
  return value;
}

double GroverQaoa::run_packed(std::span<const double> angles) {
  FASTQAOA_CHECK(angles.size() % 2 == 0 && !angles.empty(),
                 "GroverQaoa::run_packed: need 2p angles");
  const std::size_t p = angles.size() / 2;
  return run(angles.subspan(0, p), angles.subspan(p, p));
}

double GroverQaoa::ground_state_probability(Direction direction) const {
  // values_ are sorted ascending by construction from DegeneracyTable, but
  // user-supplied tables may not be; scan for the extremum.
  std::size_t best = 0;
  for (std::size_t j = 1; j < values_.size(); ++j) {
    const bool better = direction == Direction::Maximize
                            ? values_[j] > values_[best]
                            : values_[j] < values_[best];
    if (better) best = j;
  }
  return counts_[best] * std::norm(amps_[best]);
}

cplx GroverQaoa::class_amplitude(std::size_t j) const {
  FASTQAOA_CHECK(j < amps_.size(), "class_amplitude: index out of range");
  return amps_[j];
}

cvec GroverQaoa::expand(const std::vector<std::size_t>& class_of) const {
  cvec psi(class_of.size(), cplx{0.0, 0.0});
  for (std::size_t i = 0; i < class_of.size(); ++i) {
    FASTQAOA_CHECK(class_of[i] < amps_.size(),
                   "expand: class index out of range");
    psi[i] = amps_[class_of[i]];
  }
  return psi;
}

GroverQaoa grover_hamming_weight_qaoa(int n,
                                      const std::vector<double>& weight_cost) {
  FASTQAOA_CHECK(n >= 1, "grover_hamming_weight_qaoa: need n >= 1");
  FASTQAOA_CHECK(static_cast<int>(weight_cost.size()) == n + 1,
                 "grover_hamming_weight_qaoa: need n+1 weight costs");
  std::vector<double> counts(static_cast<std::size_t>(n) + 1);
  // C(n, m) computed multiplicatively in doubles — exact for n <= 52 and
  // accurate to 1 ulp beyond; overflows only past n ≈ 1020.
  double binom = 1.0;
  for (int m = 0; m <= n; ++m) {
    counts[static_cast<std::size_t>(m)] = binom;
    binom = binom * (n - m) / (m + 1);
  }
  return GroverQaoa(weight_cost, counts);
}

GroverQaoa grover_search_qaoa(double num_states, double marked) {
  FASTQAOA_CHECK(marked > 0.0 && marked < num_states,
                 "grover_search_qaoa: need 0 < marked < num_states");
  return GroverQaoa({0.0, 1.0}, {num_states - marked, marked});
}

}  // namespace fastqaoa
