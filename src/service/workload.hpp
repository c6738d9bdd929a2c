#pragma once
/// \file workload.hpp
/// Deterministic problem/mixer construction from a declarative spec.
///
/// The service builds workloads server-side: a request names a generator
/// ("maxcut on Erdős–Rényi, n=10, seed=42"), not a table, so requests stay
/// small and every rebuild is bit-identical. This mirrors qaoa_cli's
/// generator wiring exactly — one Rng seeded from instance_seed, consumed
/// in the same order — so a served result can be cross-checked against a
/// direct library call with operator==. Tests rely on that.

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hpp"
#include "graphs/graph.hpp"
#include "mixers/mixer.hpp"
#include "mps/hamiltonian.hpp"
#include "mps/mps_plan.hpp"
#include "problems/state_space.hpp"

namespace fastqaoa::service {

/// What to simulate: a named generator plus its parameters.
struct ProblemSpec {
  std::string problem = "maxcut";  ///< maxcut|wmaxcut|ksat|densest|vertexcover|partition
  std::string mixer = "tf";        ///< tf|grover|clique|ring
  int n = 8;
  int k = -1;  ///< Hamming weight for constrained mixers (< 0 = n/2)
  double density = 6.0;            ///< k-SAT clause density
  std::uint64_t instance_seed = 42;

  /// Graph degree for maxcut/wmaxcut: 0 = Erdős–Rényi(0.5), d > 0 = random
  /// d-regular (the sparse topologies the MPS engine scales on).
  int degree = 0;

  /// Evaluation engine: "exact" (statevector, n <= 24) or "mps"
  /// (approximate matrix-product-state backend, maxcut/wmaxcut + tf mixer
  /// only, n up to 256). The engine and its truncation knobs below are part
  /// of the plan-cache key: jobs differing in any of them never share a
  /// cached plan.
  std::string engine = "exact";
  int max_bond = 64;              ///< mps: chi cap per bond
  double fidelity_budget = 1e-3;  ///< mps: cumulative discarded-weight cap
  double trunc_tol = 1e-12;       ///< mps: per-split relative tail threshold

  /// Hamming weight actually used (k, defaulted to n/2 for constrained
  /// mixers; -1 for unconstrained ones — part of the cache key).
  [[nodiscard]] int effective_k() const noexcept;

  [[nodiscard]] bool uses_mps() const noexcept { return engine == "mps"; }
};

/// Whether `mixer` restricts the feasible set to a Dicke subspace.
[[nodiscard]] bool constrained_mixer(const std::string& mixer) noexcept;

/// Validate ranges and names; throws fastqaoa::Error with a message naming
/// the offending field.
void validate_problem_spec(const ProblemSpec& spec);

/// The feasible space the spec implies (full or Dicke).
[[nodiscard]] StateSpace problem_space(const ProblemSpec& spec);

/// The (weighted) graph a maxcut/wmaxcut spec implies — deterministic in
/// instance_seed and RNG-compatible with qaoa_cli's generator wiring
/// (topology draws first, then weight draws in edge order), so served
/// results cross-check against direct CLI runs.
[[nodiscard]] Graph build_graph(const ProblemSpec& spec);

/// Tabulate the objective (deterministic in instance_seed).
[[nodiscard]] dvec build_objective(const ProblemSpec& spec,
                                   const StateSpace& space);

/// The MPS engine's sparse form of the same objective (maxcut/wmaxcut
/// only), already canonicalized.
[[nodiscard]] mps::DiagonalHamiltonian build_mps_hamiltonian(
    const ProblemSpec& spec);

/// Truncation knobs as the MPS plan wants them.
[[nodiscard]] mps::MpsOptions mps_options(const ProblemSpec& spec);

/// Cache-key tag naming the engine and, for MPS, every truncation knob
/// ("exact", or "mps;chi=..;tol=..;budget=.."): two specs with different
/// tags never share a plan-cache entry.
[[nodiscard]] std::string engine_cache_tag(const ProblemSpec& spec);

/// Cache-key tag naming the generator inputs that, together with the mixer,
/// n, effective_k and engine tag, fix a plan's tables: "problem=..;seed=..;
/// degree=..", plus ";density=.." for ksat (the only problem that reads it).
/// The service keys its plans by this tag instead of by table content, so a
/// cache hit never tabulates the 2^n objective.
[[nodiscard]] std::string generator_cache_tag(const ProblemSpec& spec);

/// Construct the mixer. When `disk_cache_dir` is non-empty, eigendecomposed
/// mixers (clique/ring) are persisted there via io::load_or_build_mixer
/// under a name keyed by (kind, n, k) — the service's disk tier, sharing
/// the CLI's cache-file convention.
[[nodiscard]] std::unique_ptr<const Mixer> build_mixer(
    const ProblemSpec& spec, const StateSpace& space,
    const std::string& disk_cache_dir = {});

}  // namespace fastqaoa::service
