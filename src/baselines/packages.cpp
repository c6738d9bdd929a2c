#include "baselines/packages.hpp"

#include <algorithm>

#include "baselines/circuit.hpp"
#include "common/error.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/state_space.hpp"

namespace fastqaoa::baselines {

namespace {

/// JuliQAOA-style: precompute objective + mixer diagonal once, evaluate with
/// the reusable engine.
class FastQaoaPackage final : public QaoaPackage {
 public:
  FastQaoaPackage(const Graph& g, int rounds)
      : mixer_(XMixer::transverse_field(g.num_vertices())),
        engine_(mixer_, maxcut_table(StateSpace::full(g.num_vertices()), g),
                rounds) {}

  [[nodiscard]] std::string name() const override { return "fastqaoa"; }

  double evaluate(std::span<const double> betas,
                  std::span<const double> gammas) override {
    return engine_.run(betas, gammas);
  }

  [[nodiscard]] std::size_t resident_bytes() const override {
    // Statevector + objective table + mixer diagonal (all length 2^n).
    return engine_.dim() * (sizeof(cplx) + 2 * sizeof(double));
  }

 private:
  XMixer mixer_;
  Qaoa engine_;
};

/// Yao/QAOA.jl-style: re-materialize the gate list per evaluation, execute
/// with specialized kernels on a reused register, measure per edge.
class CircuitLightPackage final : public QaoaPackage {
 public:
  explicit CircuitLightPackage(const Graph& g)
      : graph_(g), sv_(g.num_vertices()) {}

  [[nodiscard]] std::string name() const override { return "circuit-light"; }

  double evaluate(std::span<const double> betas,
                  std::span<const double> gammas) override {
    const Circuit circuit = build_maxcut_circuit(graph_, betas, gammas);
    sv_.reset();
    run_circuit(circuit, sv_);
    return measure_maxcut(sv_, graph_);
  }

  [[nodiscard]] std::size_t resident_bytes() const override {
    return sv_.dim() * sizeof(cplx);
  }

 private:
  Graph graph_;
  GateStateVector sv_;
};

/// Qiskit/QAOAKit-style: dense generic gate matrices rebuilt per
/// evaluation, fresh statevector allocation per evaluation, generic
/// dispatch, per-term measurement.
class CircuitHeavyPackage final : public QaoaPackage {
 public:
  explicit CircuitHeavyPackage(const Graph& g) : graph_(g) {}

  [[nodiscard]] std::string name() const override { return "circuit-heavy"; }

  double evaluate(std::span<const double> betas,
                  std::span<const double> gammas) override {
    const Circuit templ =
        build_maxcut_circuit_generic(graph_, betas, gammas);
    // Parameter binding: Qiskit-like stacks keep a parameterized template
    // and materialize a bound deep copy for every evaluation.
    const Circuit circuit = templ;
    GateStateVector sv(graph_.num_vertices());  // fresh allocation per call
    run_circuit(circuit, sv);
    const double value = measure_maxcut(sv, graph_);
    peak_bytes_ = std::max(peak_bytes_, sv.dim() * sizeof(cplx) +
                                            circuit.gates.size() * sizeof(Gate));
    return value;
  }

  [[nodiscard]] std::size_t resident_bytes() const override {
    return peak_bytes_;
  }

 private:
  Graph graph_;
  std::size_t peak_bytes_ = 0;
};

}  // namespace

std::unique_ptr<QaoaPackage> make_fastqaoa_package(const Graph& g,
                                                   int rounds) {
  return std::make_unique<FastQaoaPackage>(g, rounds);
}

std::unique_ptr<QaoaPackage> make_circuit_light_package(const Graph& g) {
  return std::make_unique<CircuitLightPackage>(g);
}

std::unique_ptr<QaoaPackage> make_circuit_heavy_package(const Graph& g) {
  return std::make_unique<CircuitHeavyPackage>(g);
}

}  // namespace fastqaoa::baselines
