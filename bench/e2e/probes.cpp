// Layer probes: each module's public functions timed standalone on the
// workload's own instance (exact layers on mps_eval use eval_hot's instance;
// anglefind and MPS layers use the find_angles and mps_eval instances), plus
// the kernel-table probe and the STREAM triads that bound it, at the
// kernels' footprints and at DRAM scale.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <vector>

#include "anglefind/strategies.hpp"
#include "autodiff/adjoint.hpp"
#include "common/threading.hpp"
#include "core/plan.hpp"
#include "e2e.hpp"
#include "linalg/diag_dict.hpp"
#include "linalg/kernels/kernels.hpp"
#include "mps/mps_plan.hpp"
#include "service/plan_cache.hpp"
#include "service/workload.hpp"

namespace e2e {

namespace svc = fastqaoa::service;
namespace kern = fastqaoa::linalg::kernels;
using clk = std::chrono::steady_clock;
using fastqaoa::cplx;
using fastqaoa::cvec;
using fastqaoa::dvec;
using fastqaoa::index_t;

namespace {

/// Median wall time of `reps` calls, in ms; `before` runs untimed ahead of
/// each call.
double time_ms(int reps, const std::function<void()>& call,
               const std::function<void()>& before = [] {}) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    before();
    const clk::time_point t0 = clk::now();
    call();
    t.push_back(std::chrono::duration<double, std::milli>(clk::now() - t0)
                    .count());
  }
  return median(t);
}

constexpr double kMB = 1e6;

/// Lanes per batched kernel call: the tile evaluate_batch hands the kernels.
constexpr int kProbeLanes = 8;

void exact_layers(const JobSpec& spec, Metrics& m) {
  const svc::ProblemSpec& p = spec.problem;
  dvec obj;
  m["workload.objective_ms"] = {time_ms(5, [&] {
                                  obj = svc::build_objective(
                                      p, svc::problem_space(p));
                                }),
                                "ms"};
  m["workload.objective_mb"] = {
      static_cast<double>(obj.size() * sizeof(double)) / kMB, "MB"};

  svc::PlanKeyMaterial material;
  material.mixer_kind = p.mixer;
  material.n = p.n;
  material.k = p.effective_k();
  material.rounds = spec.p;
  material.obj_vals = obj;
  m["plan_cache.key_ms"] = {
      time_ms(5, [&] { (void)svc::plan_fingerprint(material); }), "ms"};
  m["plan_cache.key_mb"] = {
      static_cast<double>(material.obj_vals.size_bytes()) / kMB, "MB"};

  const fastqaoa::StateSpace space = svc::problem_space(p);
  std::unique_ptr<const fastqaoa::Mixer> mixer;
  std::unique_ptr<fastqaoa::QaoaPlan> plan;
  double mixer_ms = 0.0;
  double plan_ms = 0.0;
  const double build_ms = time_ms(3, [&] {
    const clk::time_point t0 = clk::now();
    mixer = svc::build_mixer(p, space);
    const clk::time_point t1 = clk::now();
    plan = std::make_unique<fastqaoa::QaoaPlan>(*mixer, obj, spec.p);
    const clk::time_point t2 = clk::now();
    mixer_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    plan_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  });
  m["plan_cache.build_ms"] = {build_ms, "ms"};
  m["mixers.build_ms"] = {mixer_ms, "ms"};
  m["core.plan_build_ms"] = {plan_ms, "ms"};

  fastqaoa::EvalWorkspace ws;
  const auto rounds = static_cast<std::size_t>(spec.p);
  const std::vector<double> betas(rounds, 0.3);
  const std::vector<double> gammas(rounds, 0.7);
  fastqaoa::evaluate(*plan, ws, betas, gammas);  // size the workspace
  m["core.evaluate_ms"] = {
      time_ms(11, [&] { fastqaoa::evaluate(*plan, ws, betas, gammas); }),
      "ms"};

  constexpr int kLanes = 64;
  std::vector<double> lane_betas;
  std::vector<double> lane_gammas;
  for (int l = 0; l < kLanes; ++l) {
    for (std::size_t r = 0; r < rounds; ++r) {
      lane_betas.push_back(0.01 * l + 0.1 * static_cast<double>(r));
      lane_gammas.push_back(0.02 * l + 0.2 * static_cast<double>(r));
    }
  }
  std::vector<double> out(kLanes);
  fastqaoa::evaluate_batch(*plan, ws, lane_betas, lane_gammas, out);
  const double batch_ms = time_ms(3, [&] {
    fastqaoa::evaluate_batch(*plan, ws, lane_betas, lane_gammas, out);
  });
  m["core.evaluate_batch_ms"] = {batch_ms, "ms"};
  m["core.evals_per_s"] = {kLanes / (batch_ms / 1e3), "1/s"};

  std::vector<double> gb(rounds);
  std::vector<double> gg(rounds);
  m["autodiff.gradient_ms"] = {time_ms(5,
                                       [&] {
                                         fastqaoa::adjoint_value_and_gradient(
                                             *plan, ws, betas, gammas, gb, gg);
                                       }),
                               "ms"};
}

void anglefind_layer(const JobSpec& spec, Metrics& m) {
  const fastqaoa::StateSpace space = svc::problem_space(spec.problem);
  const dvec obj = svc::build_objective(spec.problem, space);
  const std::unique_ptr<const fastqaoa::Mixer> mixer =
      svc::build_mixer(spec.problem, space);
  fastqaoa::FindAnglesOptions opt;
  opt.seed = spec.opt_seed;
  opt.hopping.hops = spec.hops;
  std::vector<fastqaoa::AngleSchedule> schedules;
  const double ms = time_ms(
      1, [&] { schedules = fastqaoa::find_angles(*mixer, obj, spec.p, opt); });
  std::size_t evaluations = 0;
  std::size_t calls = 0;
  for (const fastqaoa::AngleSchedule& s : schedules) {
    evaluations += s.evaluations;
    calls += s.optimizer_calls;
  }
  m["anglefind.find_angles_ms"] = {ms, "ms"};
  m["anglefind.evaluations"] = {static_cast<double>(evaluations), "count"};
  m["anglefind.optimizer_calls"] = {static_cast<double>(calls), "count"};
  m["anglefind.evals_per_s"] = {static_cast<double>(evaluations) / (ms / 1e3),
                                "1/s"};
}

void mps_layer(const JobSpec& spec, Metrics& m) {
  const fastqaoa::mps::DiagonalHamiltonian h =
      svc::build_mps_hamiltonian(spec.problem);
  std::unique_ptr<fastqaoa::mps::MpsPlan> plan;
  m["mps.plan_build_ms"] = {
      time_ms(3,
              [&] {
                plan = std::make_unique<fastqaoa::mps::MpsPlan>(
                    h, svc::mps_options(spec.problem));
              }),
      "ms"};
  fastqaoa::mps::MpsWorkspace mws;
  m["mps.evaluate_ms"] = {time_ms(3,
                                  [&] {
                                    fastqaoa::mps::evaluate(*plan, mws,
                                                            spec.betas,
                                                            spec.gammas);
                                  }),
                          "ms"};
  m["mps.truncations"] = {static_cast<double>(mws.stats.truncations), "count"};
  m["mps.discarded_weight"] = {mws.stats.discarded_weight, "weight"};
  m["mps.max_bond_reached"] = {static_cast<double>(mws.stats.max_bond_reached),
                               "count"};
}

/// STREAM triad over three arrays of `bytes_total / 3` bytes; GB/s.
double triad_gbps(std::size_t bytes_total, int threads, int reps) {
  const auto n = static_cast<std::ptrdiff_t>(bytes_total / 24);
  std::vector<double> a(static_cast<std::size_t>(n));
  std::vector<double> b(a.size());
  std::vector<double> c(a.size());
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  // Small arrays repeat the sweep so one timed rep lasts about a millisecond.
  const auto inner = static_cast<int>(
      std::max<std::ptrdiff_t>(1, (std::ptrdiff_t{1} << 21) / n));
  const double s = 3.0;
  const double ms = time_ms(reps, [&] {
    for (int it = 0; it < inner; ++it) {
#pragma omp parallel for schedule(static) num_threads(threads)
      for (std::ptrdiff_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    }
  });
  // STREAM convention: 24 bytes per element (two reads, one write).
  return 24.0 * static_cast<double>(n) * inner / (ms * 1e6);
}

/// DRAM-scale triad: three 400 MiB arrays, four times the 300 MiB LLC in
/// all, the ceiling for states that do not fit in cache (n >= 20).
void dram_triad(Metrics& m) {
  constexpr std::size_t kBytes = std::size_t{3} * 400 * 1024 * 1024;
  for (const int threads : {1, 2}) {
    m["bench.triad_dram.t" + std::to_string(threads) + ".gbps"] = {
        triad_gbps(kBytes, threads, 5), "GB/s"};
  }
}

/// One kernel-table entry: the call and its computed bytes moved.
struct KernelCase {
  const char* name;
  bool batch;
  double bytes;
  std::function<void(cplx*)> call;
};

void kernel_layer(const JobSpec& spec, Metrics& m) {
  const fastqaoa::StateSpace space = svc::problem_space(spec.problem);
  const dvec obj = svc::build_objective(spec.problem, space);
  const auto dim = static_cast<index_t>(obj.size());
  const double d = static_cast<double>(dim);
  const fastqaoa::linalg::DiagDict dict =
      fastqaoa::linalg::build_diag_dict(obj);
  const kern::QuantizedDiag dq = dict.view();
  // With a valid dictionary the batched phase sweep reads 2-byte indices
  // instead of the 8-byte table.
  const double phase_bytes = dict.valid() ? 2.0 * d : 8.0 * d;
  const index_t stride = dim + 8;  // skewed lanes, 64-byte aligned
  const double lanes = kProbeLanes;
  std::vector<double> angles(kProbeLanes);
  for (int l = 0; l < kProbeLanes; ++l) angles[l] = 0.1 + 0.05 * l;
  std::vector<double> out(kProbeLanes);
  const double scale = 1.0 / std::sqrt(d);
  const kern::KernelBackend& k = kern::active();

  // Computed bytes: one read and one write of every state element (16 B
  // each) plus one read of every table the entry takes, i.e. compulsory
  // traffic; a kernel making several passes moves more than this.
  const std::vector<KernelCase> cases = {
      {"wht", false, 32 * d, [&](cplx* a) { k.wht(a, dim); }},
      {"phase_wht", false, 40 * d,
       [&](cplx* a) { k.phase_wht(a, obj.data(), 0.3, scale, dim); }},
      {"wht_expect", false, 40 * d,
       [&](cplx* a) { (void)k.wht_expect(a, obj.data(), dim); }},
      {"phase_wht_expect", false, 48 * d,
       [&](cplx* a) {
         (void)k.phase_wht_expect(a, obj.data(), 0.3, scale, obj.data(), dim);
       }},
      {"phase_wht_batch", true, lanes * 32 * d + phase_bytes,
       [&](cplx* a) {
         k.phase_wht_batch(a, stride, kProbeLanes, nullptr, obj.data(), &dq,
                           angles.data(), scale, dim);
       }},
      {"wht_expect_batch", true, lanes * 32 * d + 8 * d,
       [&](cplx* a) {
         k.wht_expect_batch(a, stride, kProbeLanes, obj.data(), out.data(),
                            dim);
       }},
      {"phase_wht_expect_batch", true, lanes * 32 * d + phase_bytes + 8 * d,
       [&](cplx* a) {
         k.phase_wht_expect_batch(a, stride, kProbeLanes, obj.data(), &dq,
                                  angles.data(), scale, obj.data(), out.data(),
                                  dim);
       }},
  };

  const cvec init(static_cast<std::size_t>(stride) * kProbeLanes,
                  cplx(1.0 / std::sqrt(d), 0.0));
  cvec state = init;
  // Triad footprints match the kernels': one state plus two tables, or a
  // tile of lanes plus two tables.
  const std::size_t single_bytes = static_cast<std::size_t>(32 * d);
  const auto batch_bytes = static_cast<std::size_t>((lanes * 16 + 16) * d);
  for (const int threads : {1, 2}) {
    const std::string t = ".t" + std::to_string(threads);
    fastqaoa::set_num_threads(threads);
    const double triad_single = triad_gbps(single_bytes, threads, 20);
    const double triad_batch = triad_gbps(batch_bytes, threads, 20);
    m["bench.triad_state" + t + ".gbps"] = {triad_single, "GB/s"};
    m["bench.triad_batch" + t + ".gbps"] = {triad_batch, "GB/s"};
    for (const KernelCase& c : cases) {
      const std::size_t len =
          c.batch ? state.size() : static_cast<std::size_t>(dim);
      const double ms = time_ms(
          c.batch ? 15 : 41, [&] { c.call(state.data()); },
          [&] { std::copy(init.begin(), init.begin() + len, state.begin()); });
      const double gbps = c.bytes / (ms * 1e6);
      const std::string prefix = std::string("kernels.") + c.name + t;
      m[prefix + ".ms"] = {ms, "ms"};
      m[prefix + ".gbps_computed"] = {gbps, "GB/s"};
      m[prefix + ".bw_fraction"] = {
          gbps / (c.batch ? triad_batch : triad_single), "fraction"};
    }
  }
  fastqaoa::set_num_threads(2);
}

}  // namespace

Metrics run_probes(const Workload& w, std::uint64_t seed) {
  Metrics m;
  const Workload& exact =
      w.name == "mps_eval" ? *find_workload("eval_hot") : w;
  const JobSpec exact_spec = prewarm_request(exact, 0);
  exact_layers(exact_spec, m);
  kernel_layer(exact_spec, m);
  dram_triad(m);
  anglefind_layer(window_request(*find_workload("find_angles"), seed, 0), m);
  mps_layer(window_request(*find_workload("mps_eval"), seed, 0), m);
  return m;
}

}  // namespace e2e
