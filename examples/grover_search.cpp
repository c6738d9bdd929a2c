// Grover search as a QAOA (paper §2.4) at scales far beyond statevector
// simulation.
//
// The Grover mixer with a threshold phase separator at angles (pi, pi)
// reproduces one Grover iteration. Because the mixer gives fair sampling,
// the whole evolution lives on (distinct value, degeneracy) classes — two
// classes here — so n = 100 qubits (2^100 states) runs comfortably: each
// round costs O(#classes) = O(1). The printed success probabilities follow
// sin^2((2p+1) asin(sqrt(M/N))) exactly.
//
// The second table learns the angles instead of fixing them at (pi, pi):
// find_angles() runs INTERP + basinhopping on the compressed engine
// (GroverAngleEngine) for p = 1..3 over N = 2^24 states with M = 4096
// marked, and each round's optimum is printed next to sin^2((2p+1)theta).
//
// Run: ./grover_search [n] [marked]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "anglefind/grover_objective.hpp"
#include "anglefind/strategies.hpp"
#include "common/timer.hpp"
#include "core/grover_fast.hpp"

int main(int argc, char** argv) {
  using namespace fastqaoa;

  const int n = argc > 1 ? std::atoi(argv[1]) : 100;
  const double marked = argc > 2 ? std::atof(argv[2]) : 1.0;
  const double num_states = std::pow(2.0, n);
  const double theta = std::asin(std::sqrt(marked / num_states));
  const double optimal_p = std::floor(kPi / (4.0 * theta) - 0.5);

  std::printf("Grover-as-QAOA: n=%d qubits, N=2^%d states, M=%.0f marked\n",
              n, n, marked);
  std::printf("optimal round count p* = %.3e (~(pi/4) sqrt(N/M))\n\n",
              optimal_p);
  std::printf("%12s %20s %20s %10s\n", "p", "P(success) simulated",
              "sin^2((2p+1)theta)", "time");

  // Logarithmic sweep of simulated round counts (each round is O(1) on the
  // two-class compressed state; we cap the simulated depth at 2^20 rounds
  // and report the analytic optimum beyond that).
  const long long cap = 1LL << 20;
  for (long long p = 1; p <= cap && p <= static_cast<long long>(optimal_p);
       p *= 4) {
    GroverQaoa qaoa = grover_search_qaoa(num_states, marked);
    std::vector<double> betas(static_cast<std::size_t>(p), kPi);
    std::vector<double> gammas(static_cast<std::size_t>(p), kPi);
    WallTimer timer;
    qaoa.run(betas, gammas);
    const double seconds = timer.seconds();
    const double analytic = std::pow(std::sin((2.0 * p + 1.0) * theta), 2);
    std::printf("%12lld %20.6e %20.6e %9.4fs\n", p,
                qaoa.ground_state_probability(), analytic, seconds);
  }

  if (optimal_p > static_cast<double>(cap)) {
    std::printf("%12.3e %20s %20.6e   (analytic; beyond simulated depth "
                "cap)\n",
                optimal_p, "-",
                std::pow(std::sin((2.0 * optimal_p + 1.0) * theta), 2));
  }

  // Learned angles: the shared angle-finding driver on the compressed
  // engine, at a size where the success probability is still resolvable.
  const double learn_states = std::pow(2.0, 24);
  const double learn_marked = 4096.0;
  const double learn_theta = std::asin(std::sqrt(learn_marked / learn_states));
  const GroverQaoa search = grover_search_qaoa(learn_states, learn_marked);
  FindAnglesOptions options;
  options.hopping.hops = 6;
  options.seed = 7;
  std::printf("\nfind_angles(GroverAngleEngine): N=2^24, M=%.0f\n",
              learn_marked);
  std::printf("%12s %20s %20s %12s\n", "p", "P(success) learned",
              "sin^2((2p+1)theta)", "evaluations");
  for (const AngleSchedule& s :
       find_angles(GroverAngleEngine(search), 3, options)) {
    std::printf("%12d %20.6f %20.6f %12zu\n", s.p, s.expectation,
                std::pow(std::sin((2.0 * s.p + 1.0) * learn_theta), 2),
                s.evaluations);
  }
  return 0;
}
