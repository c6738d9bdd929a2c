// Figure 5 reproduction: time to find the closest local minimum with BFGS,
// using either finite differences or the exact adjoint (AD-equivalent)
// gradient, averaged over random MaxCut instances and random starting
// angles, as a function of p.
//
// Paper setting: 100 random n=14 MaxCut instances on an Apple M2 Max.
// Reduced default: 20 instances at n=10. Expected shape: the FD curve grows
// ~p times faster than the AD curve because every FD gradient costs
// O(p) expectation evaluations while the adjoint costs O(1).
//
// Each p runs 5 timed passes over the same instances and starts and
// reports the median pass: times are per search in microseconds,
// plus microseconds per objective evaluation, which compares the two
// gradients even where their BFGS trajectories (and evaluation counts)
// differ.
//
// Usage: fig5_ad_vs_fd [--full] [--n=N] [--instances=K] [--pmax=P]
//                      [--json=path]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "anglefind/bfgs.hpp"
#include "anglefind/qaoa_objective.hpp"
#include "bench_util.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"

int main(int argc, char** argv) {
  using namespace fastqaoa;
  namespace bu = benchutil;

  const bool full = bu::has_flag(argc, argv, "--full");
  const int n = static_cast<int>(bu::int_option(argc, argv, "--n",
                                                full ? 14 : 10));
  const int instances = static_cast<int>(
      bu::int_option(argc, argv, "--instances", full ? 100 : 20));
  const int p_max = static_cast<int>(bu::int_option(argc, argv, "--pmax",
                                                    full ? 10 : 6));
  const int passes = 5;
  bu::banner("Figure 5", "BFGS local-minimum search: AD vs finite-difference "
                         "gradients", full);
  std::printf("%d MaxCut instances, n=%d, p=1..%d, median of %d passes\n\n",
              instances, n, p_max, passes);

  XMixer mixer = XMixer::transverse_field(n);

  bu::JsonReport report(argc, argv, "fig5_ad_vs_fd");
  report.meta("n", static_cast<long long>(n));
  report.meta("instances", static_cast<long long>(instances));
  report.meta("p_max", static_cast<long long>(p_max));
  report.meta("full", static_cast<long long>(full ? 1 : 0));
  report.meta("passes", static_cast<long long>(passes));

  std::printf("%4s | %12s %12s %8s | %9s %9s | %10s %10s\n", "p",
              "AD [us]", "FD [us]", "FD/AD", "AD evals", "FD evals",
              "AD us/ev", "FD us/ev");
  for (int p = 1; p <= p_max; ++p) {
    Rng rng(static_cast<std::uint64_t>(500 + p));
    std::vector<dvec> tables;
    std::vector<std::vector<double>> starts;
    for (int inst = 0; inst < instances; ++inst) {
      Graph g = erdos_renyi(n, 0.5, rng);
      tables.push_back(tabulate(StateSpace::full(n),
                                [&g](state_t x) { return maxcut(g, x); }));
      std::vector<double> x0(static_cast<std::size_t>(2 * p));
      for (auto& a : x0) a = rng.uniform(0.0, 2.0 * kPi);
      starts.push_back(std::move(x0));
    }

    // One pass runs every instance from its start with both gradients and
    // returns the mean seconds per search. The searches are deterministic,
    // so every pass makes the same evaluations; only the clock varies.
    std::size_t evals_ad = 0;
    std::size_t evals_fd = 0;
    auto one_pass = [&](GradientProvider provider, std::size_t& evals) {
      evals = 0;
      double t = 0.0;
      for (int inst = 0; inst < instances; ++inst) {
        Qaoa engine(mixer, tables[static_cast<std::size_t>(inst)], p);
        QaoaObjective obj(engine, Direction::Maximize, provider);
        WallTimer timer;
        bfgs_minimize(obj.as_grad_objective(),
                      starts[static_cast<std::size_t>(inst)]);
        t += timer.seconds();
        evals += obj.evaluations();
      }
      return t / instances;
    };
    std::vector<double> t_ad;
    std::vector<double> t_fd;
    for (int pass = 0; pass < passes; ++pass) {
      t_ad.push_back(one_pass(GradientProvider::Adjoint, evals_ad));
      t_fd.push_back(one_pass(GradientProvider::CentralDiff, evals_fd));
    }
    std::sort(t_ad.begin(), t_ad.end());
    std::sort(t_fd.begin(), t_fd.end());
    const double ad_s = t_ad[t_ad.size() / 2];
    const double fd_s = t_fd[t_fd.size() / 2];
    const double ad_per_inst =
        static_cast<double>(evals_ad) / static_cast<double>(instances);
    const double fd_per_inst =
        static_cast<double>(evals_fd) / static_cast<double>(instances);
    const double ad_us_per_eval = 1e6 * ad_s / ad_per_inst;
    const double fd_us_per_eval = 1e6 * fd_s / fd_per_inst;
    std::printf("%4d | %12.1f %12.1f %8.2f | %9.0f %9.0f | %10.2f %10.2f\n",
                p, 1e6 * ad_s, 1e6 * fd_s, fd_s / ad_s, ad_per_inst,
                fd_per_inst, ad_us_per_eval, fd_us_per_eval);
    report.row();
    report.field("p", static_cast<long long>(p));
    report.field("ad_seconds", ad_s);
    report.field("fd_seconds", fd_s);
    report.field("ad_evals", static_cast<long long>(evals_ad));
    report.field("fd_evals", static_cast<long long>(evals_fd));
    report.field("ad_us_per_eval", ad_us_per_eval);
    report.field("fd_us_per_eval", fd_us_per_eval);
  }
  report.attach_metrics();
  report.write();

  std::printf("\npaper reference: the FD/AD time ratio grows roughly "
              "linearly in p (AD computes the whole 2p-angle gradient at "
              "O(1) extra evaluations after a caching pass; FD needs O(p) "
              "evaluations per gradient).\n");
  return 0;
}
