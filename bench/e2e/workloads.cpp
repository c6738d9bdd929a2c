#include <numbers>

#include "common/rng.hpp"
#include "e2e.hpp"

namespace e2e {

using fastqaoa::Rng;
using fastqaoa::SplitMix64;
using fastqaoa::service::JobKind;

namespace {

// Stream salts: every random draw is keyed by (seed, salt, index), so no
// stream's contents depend on how many draws another stream made.
enum Salt : std::uint64_t {
  kWindow = 2,
  kWarmup = 3,
  kPrewarm = 4,
  kCold = 5,
};

std::uint64_t key(std::uint64_t seed, std::uint64_t salt, std::uint64_t index) {
  SplitMix64 sm(seed * 0x9E3779B97F4A7C15ULL ^ (salt << 56) ^ index);
  sm.next();
  return sm.next();
}

/// A fresh instance or optimizer seed. The protocol carries seeds as JSON
/// integers, which hold values below 2^63 only.
std::uint64_t wire_seed(Rng& rng) { return rng() >> 2; }

/// Hot instances are fixed (instance seeds 1..hot): the seed changes what is
/// computed (angles, optimizer seeds), not how hard the hot
/// graphs are, so runs with different seeds do the same amount of work.
std::uint64_t hot_seed(int i) { return static_cast<std::uint64_t>(i) + 1; }

std::vector<double> angles(Rng& rng, std::size_t count) {
  std::vector<double> v(count);
  for (double& a : v) a = rng.uniform(0.0, std::numbers::pi);
  return v;
}

/// The hot exact instance every statevector workload but find_angles uses:
/// MaxCut on Erdős–Rényi(0.5), transverse-field mixer, n = 16, p = 4.
JobSpec maxcut16(std::uint64_t instance_seed, Rng& rng) {
  JobSpec s;
  s.kind = JobKind::Evaluate;
  s.problem.problem = "maxcut";
  s.problem.mixer = "tf";
  s.problem.n = 16;
  s.problem.instance_seed = instance_seed;
  s.p = 4;
  s.betas = angles(rng, 4);
  s.gammas = angles(rng, 4);
  return s;
}

JobSpec batch16(std::uint64_t instance_seed, Rng& rng) {
  constexpr int kLanes = 64;
  JobSpec s = maxcut16(instance_seed, rng);
  s.kind = JobKind::BatchEvaluate;
  s.lanes = kLanes;
  s.betas = angles(rng, 4 * kLanes);
  s.gammas = angles(rng, 4 * kLanes);
  return s;
}

JobSpec anglefind12(std::uint64_t instance_seed, std::uint64_t opt_seed) {
  JobSpec s;
  s.kind = JobKind::FindAngles;
  s.problem.problem = "maxcut";
  s.problem.mixer = "tf";
  s.problem.n = 12;
  s.problem.instance_seed = instance_seed;
  s.p = 3;
  s.hops = 4;
  s.opt_seed = opt_seed;
  return s;
}

JobSpec mps30(std::uint64_t instance_seed, Rng& rng) {
  JobSpec s;
  s.kind = JobKind::Evaluate;
  s.problem.problem = "wmaxcut";
  s.problem.mixer = "tf";
  s.problem.degree = 3;
  s.problem.n = 30;
  s.problem.engine = "mps";
  s.problem.max_bond = 8;
  s.problem.instance_seed = instance_seed;
  s.p = 2;
  s.betas = angles(rng, 2);
  s.gammas = angles(rng, 2);
  return s;
}

/// The workload's request shape on a given instance.
JobSpec shaped(const Workload& w, std::uint64_t instance_seed, Rng& rng,
               std::uint64_t opt_seed) {
  if (w.name == "batch_sweep") return batch16(instance_seed, rng);
  if (w.name == "find_angles") return anglefind12(instance_seed, opt_seed);
  if (w.name == "mps_eval") return mps30(instance_seed, rng);
  return maxcut16(instance_seed, rng);
}

JobSpec request(const Workload& w, std::uint64_t seed, std::uint64_t salt,
                std::uint64_t index) {
  Rng rng(key(seed, salt, index));
  // Every miss_every-th request is a miss, spread through the window so the
  // misses sample the same stretch of time as the hits. Its instance, angles
  // and optimizer seed come from a fixed stream per phase: every daemon
  // starts with an empty cache, so these miss in every run, and their cost
  // does not vary with the seed.
  const auto every = static_cast<std::uint64_t>(w.miss_every);
  if (index % every == every - 1) {
    Rng cold(key(0, kCold, (salt << 40) ^ (index / every)));
    const std::uint64_t fresh = wire_seed(cold);
    return shaped(w, fresh, cold, wire_seed(cold));
  }
  // Hot requests cycle through the hot set, skipping the miss slots.
  const auto hot = static_cast<std::uint64_t>(w.hot);
  const auto i = static_cast<int>((index - index / every) % hot);
  return shaped(w, hot_seed(i), rng, wire_seed(rng));
}

}  // namespace

const std::vector<Workload>& workloads() {
  // name, hot, miss_every, ratio_prefix, oracle_stride, oracle_cap,
  // replay_requests, tail_level
  // Tail levels leave ten hits beyond them at the fewest hits a 22 s window
  // gave in 20 runs (eval_hot 713, batch_sweep 75, find_angles 45, mps_eval
  // 42), rounded down.
  static const std::vector<Workload> table = {
      {"eval_hot", 4, 32, 256, 16, 16, 64, 0.98},
      {"batch_sweep", 4, 16, 48, 8, 6, 16, 0.85},
      {"find_angles", 8, 8, 40, 4, 12, 8, 0.75},
      {"mps_eval", 3, 8, 64, 4, 4, 6, 0.75},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

JobSpec window_request(const Workload& w, std::uint64_t seed,
                       std::uint64_t index) {
  return request(w, seed, kWindow, index);
}

JobSpec warmup_request(const Workload& w, std::uint64_t seed,
                       std::uint64_t index) {
  return request(w, seed, kWarmup, index);
}

JobSpec prewarm_request(const Workload& w, int i) {
  Rng rng(key(0, kPrewarm, static_cast<std::uint64_t>(i)));
  JobSpec s = shaped(w, hot_seed(i), rng, 0);
  // Every job kind on an instance shares the plan key of an evaluate at the
  // same p, and an evaluate is the cheapest job that builds the plan.
  s.kind = JobKind::Evaluate;
  s.lanes = 0;
  s.betas = angles(rng, static_cast<std::size_t>(s.p));
  s.gammas = angles(rng, static_cast<std::size_t>(s.p));
  return s;
}

}  // namespace e2e
