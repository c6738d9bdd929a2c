// Figure 3 reproduction: extrapolated basinhopping vs the random
// local-minima exploration and median-angles strategies of Lotshaw et al.
// [22], as mean approximation ratio over random MaxCut instances.
//
// Paper setting: 50 random MaxCut instances at n=12 on G(n,0.5), p=1..10.
// Reduced default: 8 instances at n=10, p<=4. Expected shape: extrapolated
// basinhopping dominates at every p and the gap widens with p; median
// angles trail the per-instance random search.

#include <cstdio>
#include <vector>

#include "anglefind/strategies.hpp"
#include "bench_util.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"

int main(int argc, char** argv) {
  using namespace fastqaoa;
  namespace bu = benchutil;

  const bool full = bu::has_flag(argc, argv, "--full");
  const int n = static_cast<int>(bu::int_option(argc, argv, "--n",
                                                full ? 12 : 10));
  const int max_p = static_cast<int>(bu::int_option(argc, argv, "--p",
                                                    full ? 10 : 4));
  const int instances = static_cast<int>(
      bu::int_option(argc, argv, "--instances", full ? 50 : 8));
  const int restarts = static_cast<int>(
      bu::int_option(argc, argv, "--restarts", full ? 100 : 25));
  bu::banner("Figure 3",
             "extrapolated basinhopping vs random restarts vs median angles",
             full);
  std::printf("%d MaxCut instances, n=%d, G(n,0.5), p=1..%d, %d restarts\n",
              instances, n, max_p, restarts);

  bu::JsonReport report(argc, argv, "fig3_strategies");
  report.meta("n", static_cast<long long>(n));
  report.meta("max_p", static_cast<long long>(max_p));
  report.meta("instances", static_cast<long long>(instances));
  report.meta("restarts", static_cast<long long>(restarts));
  report.meta("full", static_cast<long long>(full ? 1 : 0));

  XMixer mixer = XMixer::transverse_field(n);
  WallTimer total;

  // Pre-generate instances and tables.
  std::vector<dvec> tables;
  Rng rng(777);
  for (int inst = 0; inst < instances; ++inst) {
    Graph g = erdos_renyi(n, 0.5, rng);
    tables.push_back(tabulate(StateSpace::full(n), [&g](state_t x) {
      return maxcut(g, x);
    }));
  }

  std::vector<double> mean_bh(static_cast<std::size_t>(max_p), 0.0);
  std::vector<double> mean_rand(static_cast<std::size_t>(max_p), 0.0);
  std::vector<double> mean_median(static_cast<std::size_t>(max_p), 0.0);

  // Per-p random-search angle sets per instance (for the median strategy).
  for (int p = 1; p <= max_p; ++p) {
    std::vector<std::vector<double>> angle_sets;
    angle_sets.reserve(static_cast<std::size_t>(instances));
    for (int inst = 0; inst < instances; ++inst) {
      FindAnglesOptions opt;
      opt.seed = 1000 + static_cast<std::uint64_t>(inst) * 37 +
                 static_cast<std::uint64_t>(p);
      opt.hopping.local.max_iterations = 120;
      AngleSchedule s =
          find_angles_random(mixer, tables[static_cast<std::size_t>(inst)],
                             p, restarts, opt);
      angle_sets.push_back(s.packed());
      mean_rand[static_cast<std::size_t>(p - 1)] += approximation_ratio(
          s.expectation, tables[static_cast<std::size_t>(inst)]);
    }
    // Median angles across instances, evaluated on every instance. Every
    // table is MaxCut, so they share one angle domain.
    std::vector<double> med =
        median_angles(angle_sets, angle_domain(mixer, tables.front()));
    for (int inst = 0; inst < instances; ++inst) {
      const double e =
          evaluate_angles(mixer, tables[static_cast<std::size_t>(inst)], med);
      mean_median[static_cast<std::size_t>(p - 1)] += approximation_ratio(
          e, tables[static_cast<std::size_t>(inst)]);
    }
  }

  // Extrapolated basinhopping per instance (iterative across p).
  for (int inst = 0; inst < instances; ++inst) {
    FindAnglesOptions opt;
    opt.seed = 9000 + static_cast<std::uint64_t>(inst);
    opt.hopping.hops = full ? 15 : 6;
    auto schedules = find_angles(
        mixer, tables[static_cast<std::size_t>(inst)], max_p, opt);
    for (int p = 1; p <= max_p; ++p) {
      mean_bh[static_cast<std::size_t>(p - 1)] += approximation_ratio(
          schedules[static_cast<std::size_t>(p - 1)].expectation,
          tables[static_cast<std::size_t>(inst)]);
    }
  }

  std::printf("\nmean approximation ratio across %d instances:\n", instances);
  std::printf("%4s %26s %22s %14s\n", "p", "extrapolated basinhopping",
              "random local minima", "median angles");
  for (int p = 1; p <= max_p; ++p) {
    const auto i = static_cast<std::size_t>(p - 1);
    std::printf("%4d %26.4f %22.4f %14.4f\n", p, mean_bh[i] / instances,
                mean_rand[i] / instances, mean_median[i] / instances);
    report.row();
    report.field("p", static_cast<long long>(p));
    report.field("basinhopping_ratio", mean_bh[i] / instances);
    report.field("random_ratio", mean_rand[i] / instances);
    report.field("median_ratio", mean_median[i] / instances);
  }
  std::printf("\ntotal wall time: %.1f s\n", total.seconds());
  report.meta("wall_seconds", total.seconds());
  report.attach_metrics();
  report.write();
  std::printf("paper reference: basinhopping >= random >= median at every "
              "p, with the basinhopping advantage growing with p.\n");
  return 0;
}
