// Non-traditional QAOA variants (paper §3): per-round mixer schedules,
// multi-angle layers, warm starts and threshold phase separators — all on
// one small MaxCut instance, each compared against the vanilla ansatz.
//
// Run: ./multi_angle [n]

#include <cstdio>
#include <cstdlib>

#include "core/qaoa.hpp"
#include "mixers/grover_mixer.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"
#include "problems/warm_start.hpp"

int main(int argc, char** argv) {
  using namespace fastqaoa;

  const int n = argc > 1 ? std::atoi(argv[1]) : 8;
  Rng rng(21);
  Graph graph = erdos_renyi(n, 0.5, rng);
  dvec obj_vals = tabulate(StateSpace::full(n), [&graph](state_t x) {
    return maxcut(graph, x);
  });
  const ObjectiveStats stats = objective_stats(obj_vals);
  std::printf("MaxCut on G(%d, 0.5), best cut %.0f\n\n", n, stats.max_value);

  XMixer tf = XMixer::transverse_field(n);
  GroverMixer grover(index_t{1} << n);

  const double beta1 = 0.35;
  const double beta2 = 0.85;
  const double gamma1 = 0.55;
  const double gamma2 = 1.15;

  // 1. Vanilla two-round transverse-field QAOA.
  {
    Qaoa engine(tf, obj_vals, 2);
    std::vector<double> betas = {beta1, beta2};
    std::vector<double> gammas = {gamma1, gamma2};
    std::printf("vanilla TF x2        : <C> = %.5f\n",
                engine.run(betas, gammas));
  }

  // 2. Per-round mixer schedule: transverse field, then Grover.
  {
    Qaoa engine({&tf, &grover}, obj_vals);
    std::vector<double> betas = {beta1, beta2};
    std::vector<double> gammas = {gamma1, gamma2};
    std::printf("TF then Grover       : <C> = %.5f\n",
                engine.run(betas, gammas));
  }

  // 3. Multi-angle layer: two half-register X mixers, each with its own
  //    beta, inside every round.
  {
    std::vector<PauliXTerm> low;
    std::vector<PauliXTerm> high;
    for (int q = 0; q < n; ++q) {
      (q < n / 2 ? low : high).push_back({state_t{1} << q, 1.0});
    }
    XMixer x_low(n, low);
    XMixer x_high(n, high);
    std::vector<MixerLayer> layers = {MixerLayer{{&x_low, &x_high}},
                                      MixerLayer{{&x_low, &x_high}}};
    Qaoa engine(layers, obj_vals);
    std::vector<double> betas = {beta1, beta2, beta2, beta1};
    std::vector<double> gammas = {gamma1, gamma2};
    std::printf("multi-angle split X  : <C> = %.5f  (%d betas, %d gammas)\n",
                engine.run(betas, gammas), engine.num_betas(),
                engine.num_gammas());
  }

  // 4. Warm start: bias the initial state toward one optimal solution.
  {
    Qaoa engine(tf, obj_vals, 2);
    // 80% mass on the best state, the rest spread uniformly.
    engine.set_initial_state(warm_start_biased_state(
        StateSpace::full(n), static_cast<state_t>(stats.argmax), 0.8));
    std::vector<double> betas = {beta1, beta2};
    std::vector<double> gammas = {gamma1, gamma2};
    std::printf("warm start (80%% best): <C> = %.5f\n",
                engine.run(betas, gammas));
  }

  // 5. Threshold phase separator: phase only states above the median cut.
  {
    Qaoa engine(tf, obj_vals, 2);
    engine.set_phase_values(threshold_indicator(obj_vals, stats.mean));
    std::vector<double> betas = {beta1, beta2};
    std::vector<double> gammas = {kPi, kPi};
    std::printf("threshold separator  : <C> = %.5f\n",
                engine.run(betas, gammas));
  }
  return 0;
}
