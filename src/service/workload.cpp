#include "service/workload.hpp"

#include <cmath>
#include <filesystem>

#include <cstdio>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "graphs/graph.hpp"
#include "io/serialize.hpp"
#include "mixers/eigen_mixer.hpp"
#include "mixers/grover_mixer.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"
#include "problems/weighted_maxcut.hpp"
#include "sat/cnf.hpp"

namespace fastqaoa::service {

int ProblemSpec::effective_k() const noexcept {
  if (!constrained_mixer(mixer)) return -1;
  return k < 0 ? n / 2 : k;
}

bool constrained_mixer(const std::string& mixer) noexcept {
  return mixer == "clique" || mixer == "ring";
}

void validate_problem_spec(const ProblemSpec& spec) {
  FASTQAOA_CHECK(spec.problem == "maxcut" || spec.problem == "wmaxcut" ||
                     spec.problem == "ksat" || spec.problem == "densest" ||
                     spec.problem == "vertexcover" ||
                     spec.problem == "partition",
                 "unknown problem '" + spec.problem + "'");
  FASTQAOA_CHECK(spec.mixer == "tf" || spec.mixer == "grover" ||
                     spec.mixer == "clique" || spec.mixer == "ring",
                 "unknown mixer '" + spec.mixer + "'");
  FASTQAOA_CHECK(parse_engine(spec.engine).has_value(),
                 "unknown engine '" + spec.engine + "'");
  if (spec.uses_mps()) {
    FASTQAOA_CHECK(spec.problem == "maxcut" || spec.problem == "wmaxcut",
                   "engine 'mps' supports problem maxcut|wmaxcut only");
    FASTQAOA_CHECK(spec.mixer == "tf",
                   "engine 'mps' supports the tf mixer only");
    FASTQAOA_CHECK(spec.n >= 2 && spec.n <= 256,
                   "n out of supported range [2, 256] for engine 'mps'");
    FASTQAOA_CHECK(spec.max_bond >= 1 && spec.max_bond <= 256,
                   "max_bond out of supported range [1, 256]");
    FASTQAOA_CHECK(spec.fidelity_budget >= 0.0,
                   "fidelity_budget must be non-negative");
    FASTQAOA_CHECK(spec.trunc_tol >= 0.0, "trunc_tol must be non-negative");
  } else {
    FASTQAOA_CHECK(spec.n >= 2 && spec.n <= 24,
                   "n out of supported range [2, 24] for engine 'exact' "
                   "(use engine 'mps' for larger maxcut instances)");
  }
  if (spec.degree != 0) {
    FASTQAOA_CHECK(spec.problem == "maxcut" || spec.problem == "wmaxcut",
                   "degree applies to maxcut/wmaxcut only");
    FASTQAOA_CHECK(spec.degree >= 1 && spec.degree < spec.n,
                   "degree must satisfy 1 <= degree < n");
    FASTQAOA_CHECK((static_cast<long long>(spec.n) * spec.degree) % 2 == 0,
                   "n * degree must be even for a regular graph");
  }
  if (constrained_mixer(spec.mixer)) {
    const int k = spec.effective_k();
    FASTQAOA_CHECK(k >= 1 && k < spec.n,
                   "k must satisfy 1 <= k < n for constrained mixers");
  }
  FASTQAOA_CHECK(spec.density > 0.0, "density must be positive");
}

StateSpace problem_space(const ProblemSpec& spec) {
  return constrained_mixer(spec.mixer)
             ? StateSpace::dicke(spec.n, spec.effective_k())
             : StateSpace::full(spec.n);
}

Graph build_graph(const ProblemSpec& spec) {
  FASTQAOA_CHECK(spec.problem == "maxcut" || spec.problem == "wmaxcut",
                 "build_graph: spec is not a maxcut/wmaxcut problem");
  Rng rng(spec.instance_seed);
  // Same draw order as qaoa_cli's build_maxcut_graph: topology first, then
  // (for wmaxcut) weights consumed in edge order from the same stream.
  Graph g = spec.degree > 0 ? random_regular(spec.n, spec.degree, rng)
                            : erdos_renyi(spec.n, 0.5, rng);
  if (spec.problem == "wmaxcut") g = with_random_weights(g, rng);
  return g;
}

dvec build_objective(const ProblemSpec& spec, const StateSpace& space) {
  Rng rng(spec.instance_seed);
  const int n = spec.n;
  if (spec.problem == "maxcut" || spec.problem == "wmaxcut") {
    return maxcut_table(space, build_graph(spec));
  }
  if (spec.problem == "ksat") {
    return ksat_table(space, random_ksat_density(n, 3, spec.density, rng));
  }
  if (spec.problem == "densest") {
    return densest_subgraph_table(space, erdos_renyi(n, 0.5, rng));
  }
  if (spec.problem == "vertexcover") {
    return vertex_cover_table(space, erdos_renyi(n, 0.5, rng));
  }
  FASTQAOA_CHECK(spec.problem == "partition",
                 "unknown problem '" + spec.problem + "'");
  std::vector<double> weights(static_cast<std::size_t>(n));
  for (auto& w : weights) w = std::floor(rng.uniform(1.0, 30.0));
  return number_partition_table(space, weights);
}

mps::DiagonalHamiltonian build_mps_hamiltonian(const ProblemSpec& spec) {
  return mps::maxcut_hamiltonian(build_graph(spec));
}

mps::MpsOptions mps_options(const ProblemSpec& spec) {
  mps::MpsOptions opt;
  opt.max_bond = spec.max_bond;
  opt.fidelity_budget = spec.fidelity_budget;
  opt.trunc_tol = spec.trunc_tol;
  return opt;
}

std::string engine_cache_tag(const ProblemSpec& spec) {
  if (!spec.uses_mps()) return "exact";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "mps;chi=%d;tol=%.17g;budget=%.17g",
                spec.max_bond, spec.trunc_tol, spec.fidelity_budget);
  return buf;
}

std::string generator_cache_tag(const ProblemSpec& spec) {
  std::string tag = "problem=" + spec.problem +
                    ";seed=" + std::to_string(spec.instance_seed) +
                    ";degree=" + std::to_string(spec.degree);
  if (spec.problem == "ksat") {
    char buf[48];
    std::snprintf(buf, sizeof(buf), ";density=%.17g", spec.density);
    tag += buf;
  }
  return tag;
}

std::unique_ptr<const Mixer> build_mixer(const ProblemSpec& spec,
                                         const StateSpace& space,
                                         const std::string& disk_cache_dir) {
  if (spec.mixer == "tf") {
    return std::make_unique<XMixer>(XMixer::transverse_field(spec.n));
  }
  if (spec.mixer == "grover") {
    return std::make_unique<GroverMixer>(space.dim());
  }
  FASTQAOA_CHECK(constrained_mixer(spec.mixer),
                 "unknown mixer '" + spec.mixer + "'");
  auto build = [&] {
    return spec.mixer == "clique" ? EigenMixer::clique(space)
                                  : EigenMixer::ring(space);
  };
  if (disk_cache_dir.empty()) {
    return std::make_unique<EigenMixer>(build());
  }
  // Disk tier: the eigendecomposition is fully determined by (kind, n, k),
  // so the file name is its content address.
  std::filesystem::create_directories(disk_cache_dir);
  const std::string path = disk_cache_dir + "/mixer-" + spec.mixer + "-n" +
                           std::to_string(spec.n) + "-k" +
                           std::to_string(spec.effective_k()) + ".fqm";
  return std::make_unique<EigenMixer>(io::load_or_build_mixer(path, build));
}

}  // namespace fastqaoa::service
