// Traced in-process replay of a workload's first requests, one at a time as
// the timed run sends them: against an unbounded PlanCache, as the daemon's,
// the replay calls the public functions Service::execute calls, in its order,
// recording a span around each call. The stages are named as the daemon's
// request stages (read_parse, key_build, plan_lookup, plan_build, compute,
// encode), so a replay and a future daemon stage histogram read the same;
// child spans name the module whose public function ran.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string_view>

#include "anglefind/strategies.hpp"
#include "common/error.hpp"
#include "common/threading.hpp"
#include "core/plan.hpp"
#include "e2e.hpp"
#include "mps/mps_plan.hpp"
#include "service/plan_cache.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"

namespace e2e {

namespace svc = fastqaoa::service;
using clk = std::chrono::steady_clock;
using svc::JobKind;

namespace {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index in the same thread's span list, -1 = root
  std::uint64_t request = 0;
  int tid = 0;
};

/// One replay thread's span buffer. With recording off, begin() returns
/// without reading the clock: the untraced passes run the same code.
class Recorder {
 public:
  Recorder(int tid, clk::time_point origin) : tid_(tid), origin_(origin) {}

  void reset(bool on) {
    on_ = on;
    spans.clear();
    stack_.clear();
  }

  int begin(const char* name, std::uint64_t request) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.request = request;
    s.tid = tid_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = now();
    spans.push_back(s);
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }

  void end(int index) {
    if (index < 0) return;
    spans[static_cast<std::size_t>(index)].end_ns = now();
    stack_.pop_back();
  }

  std::vector<Span> spans;

 private:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clk::now() -
                                                                origin_)
        .count();
  }

  int tid_;
  clk::time_point origin_;
  bool on_ = false;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Recorder& r, const char* name, std::uint64_t request)
      : r_(r), index_(r.begin(name, request)) {}
  ~Scope() { r_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& r_;
  int index_;
};

/// What one replay thread owns across passes.
struct Worker {
  Worker(int tid, clk::time_point origin) : rec(tid, origin) {}
  Recorder rec;
  fastqaoa::EvalWorkspace ws;
  fastqaoa::mps::MpsWorkspace mws;
};

fastqaoa::FindAnglesOptions angle_options(const JobSpec& spec) {
  fastqaoa::FindAnglesOptions opt;
  opt.direction = spec.minimize ? fastqaoa::Direction::Minimize
                                : fastqaoa::Direction::Maximize;
  opt.seed = spec.opt_seed;
  opt.hopping.hops = spec.hops;
  opt.parallel_starts = spec.starts;
  return opt;
}

/// Service::execute's exact-engine path up to the plan: objective table,
/// key, cache lookup (and build on a miss), one span per public call.
svc::PlanHandle lookup_exact(const JobSpec& spec, svc::PlanCache& cache,
                             Recorder& rec, std::uint64_t k, bool& built) {
  std::optional<fastqaoa::StateSpace> space;
  fastqaoa::dvec obj_vals;
  svc::PlanKeyMaterial material;
  {
    Scope s(rec, "key_build", k);
    {
      Scope o(rec, "workload.build_objective", k);
      space.emplace(svc::problem_space(spec.problem));
      obj_vals = svc::build_objective(spec.problem, *space);
    }
    material.mixer_kind = spec.problem.mixer;
    material.n = spec.problem.n;
    material.k = spec.problem.effective_k();
    material.rounds = spec.p;
    material.obj_vals = obj_vals;
    Scope f(rec, "plan_cache.fingerprint", k);
    (void)svc::plan_fingerprint(material);
  }
  Scope s(rec, "plan_lookup", k);
  return cache.get_or_build(material, [&]() -> svc::CachedPlan {
    built = true;
    Scope b(rec, "plan_build", k);
    svc::CachedPlan entry;
    {
      Scope m(rec, "mixers.build_mixer", k);
      entry.mixer = svc::build_mixer(spec.problem, *space);
    }
    Scope c(rec, "core.plan_build", k);
    entry.plan = std::make_shared<const fastqaoa::QaoaPlan>(
        *entry.mixer, std::move(obj_vals), spec.p);
    return entry;
  });
}

/// Service::execute_mps's path up to the plan: the flattened Hamiltonian is
/// the key material.
svc::PlanHandle lookup_mps(const JobSpec& spec, svc::PlanCache& cache,
                           Recorder& rec, std::uint64_t k, bool& built) {
  fastqaoa::mps::DiagonalHamiltonian h;
  std::vector<double> key;
  std::string engine_tag;
  svc::PlanKeyMaterial material;
  {
    Scope s(rec, "key_build", k);
    {
      Scope o(rec, "workload.build_mps_hamiltonian", k);
      h = svc::build_mps_hamiltonian(spec.problem);
    }
    key.push_back(h.constant);
    for (const fastqaoa::mps::ZTerm& t : h.z_terms) {
      key.push_back(static_cast<double>(t.site));
      key.push_back(t.coeff);
    }
    for (const fastqaoa::mps::ZZTerm& t : h.zz_terms) {
      key.push_back(static_cast<double>(t.u));
      key.push_back(static_cast<double>(t.v));
      key.push_back(t.coeff);
    }
    engine_tag = svc::engine_cache_tag(spec.problem);
    material.mixer_kind = spec.problem.mixer;
    material.n = spec.problem.n;
    material.rounds = spec.p;
    material.obj_vals = key;
    material.engine = engine_tag;
    Scope f(rec, "plan_cache.fingerprint", k);
    (void)svc::plan_fingerprint(material);
  }
  Scope s(rec, "plan_lookup", k);
  return cache.get_or_build(material, [&]() -> svc::CachedPlan {
    built = true;
    Scope b(rec, "plan_build", k);
    svc::CachedPlan entry;
    Scope m(rec, "mps.plan_build", k);
    entry.mps_plan = std::make_shared<const fastqaoa::mps::MpsPlan>(
        std::move(h), svc::mps_options(spec.problem));
    return entry;
  });
}

svc::PlanHandle lookup(const JobSpec& spec, svc::PlanCache& cache,
                       Recorder& rec, std::uint64_t k, bool& built) {
  return spec.problem.uses_mps() ? lookup_mps(spec, cache, rec, k, built)
                                 : lookup_exact(spec, cache, rec, k, built);
}

void compute(const JobSpec& spec, const svc::CachedPlan& cached, Worker& wk,
             std::uint64_t k, svc::JobResultData& out) {
  Recorder& rec = wk.rec;
  Scope s(rec, "compute", k);
  if (spec.problem.uses_mps()) {
    Scope e(rec, "mps.evaluate", k);
    out.mps = true;
    out.expectation = fastqaoa::mps::evaluate(*cached.mps_plan, wk.mws,
                                              spec.betas, spec.gammas);
    out.discarded_weight = wk.mws.stats.discarded_weight;
    out.truncations = wk.mws.stats.truncations;
    out.max_bond_reached =
        static_cast<std::uint64_t>(wk.mws.stats.max_bond_reached);
    return;
  }
  const fastqaoa::QaoaPlan& plan = *cached.plan;
  switch (spec.kind) {
    case JobKind::BatchEvaluate: {
      Scope e(rec, "core.evaluate_batch", k);
      out.expectations.resize(static_cast<std::size_t>(spec.lanes));
      fastqaoa::evaluate_batch(plan, wk.ws, spec.betas, spec.gammas,
                               out.expectations);
      out.expectation =
          *std::max_element(out.expectations.begin(), out.expectations.end());
      break;
    }
    case JobKind::FindAngles: {
      Scope e(rec, "anglefind.find_angles", k);
      out.schedules = fastqaoa::find_angles(*cached.mixer, plan.objective(),
                                            spec.p, angle_options(spec));
      out.expectation = out.schedules.back().expectation;
      break;
    }
    default: {
      Scope e(rec, "core.evaluate", k);
      out.expectation =
          fastqaoa::evaluate(plan, wk.ws, spec.betas, spec.gammas);
    }
  }
}

void replay_one(const std::string& line, std::uint64_t k,
                svc::PlanCache& cache, Worker& wk) {
  Recorder& rec = wk.rec;
  Scope request(rec, "request", k);
  svc::Job job;
  job.id = k + 1;
  {
    Scope s(rec, "read_parse", k);
    job.spec = svc::job_spec_from_json(Json::parse(line));
  }
  bool built = false;
  const svc::PlanHandle cached = lookup(job.spec, cache, rec, k, built);
  svc::JobResultData out;
  out.cache_hit = !built;
  compute(job.spec, *cached, wk, k, out);
  job.result = std::move(out);
  job.state = svc::JobState::Done;
  Scope s(rec, "encode", k);
  Json response = svc::job_to_json(job);
  response.set("ok", Json(true));
  (void)response.dump();
}

double span_ms(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

void write_chrome_trace(const std::vector<Span>& spans,
                        const std::vector<std::size_t>& parent_of,
                        const std::string& path) {
  Json events = Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Json ev = Json::object();
    ev.set("name", Json(s.name));
    ev.set("ph", Json("X"));
    ev.set("ts", Json(static_cast<double>(s.start_ns) / 1e3));
    ev.set("dur", Json(static_cast<double>(s.end_ns - s.start_ns) / 1e3));
    ev.set("pid", Json(1));
    ev.set("tid", Json(s.tid));
    Json args = Json::object();
    args.set("request", Json(s.request));
    args.set("parent", Json(parent_of[i] == i ? "" : spans[parent_of[i]].name));
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json("ms"));
  std::ofstream(path) << doc.dump() << '\n';
}

}  // namespace

ReplayResult run_replay(const Workload& w, std::uint64_t seed,
                        const std::string& trace_path) {
  const auto n = static_cast<std::uint64_t>(w.replay_requests);
  std::vector<std::string> lines;
  for (std::uint64_t k = 0; k < n; ++k) {
    lines.push_back(svc::job_spec_to_json(window_request(w, seed, k)).dump());
  }

  // Passes: a warm-up, then untraced and traced passes alternating, one
  // request at a time on one OpenMP thread, as the timed daemon runs them.
  const std::vector<bool> traced = {false, false, true, false, true};
  const clk::time_point origin = clk::now();
  Worker wk(0, origin);
  Recorder quiet(0, origin);  // never armed
  const int threads = fastqaoa::num_threads();
  fastqaoa::set_num_threads(1);
  double best[2] = {1e300, 1e300};  // untraced, traced
  try {
    for (std::size_t pass = 0; pass < traced.size(); ++pass) {
      // Each pass starts from the daemon's post-set-up state: a fresh cache
      // holding the hot set, so every pass sees the same hits and misses.
      svc::PlanCache cache(svc::PlanCache::Config{});
      for (int i = 0; i < w.hot; ++i) {
        bool built = false;
        (void)lookup(prewarm_request(w, i), cache, quiet, 0, built);
      }
      wk.rec.reset(traced[pass]);
      const clk::time_point t0 = clk::now();
      for (std::uint64_t k = 0; k < n; ++k) replay_one(lines[k], k, cache, wk);
      const double wall =
          std::chrono::duration<double>(clk::now() - t0).count();
      double& b = best[traced[pass] ? 1 : 0];
      if (pass > 0) b = std::min(b, wall);
    }
  } catch (const std::exception& e) {
    fastqaoa::set_num_threads(threads);
    throw fastqaoa::Error(std::string("replay failed: ") + e.what());
  }
  fastqaoa::set_num_threads(threads);

  // Spans of the last traced pass.
  const std::vector<Span>& spans = wk.rec.spans;
  std::vector<std::size_t> parent_of;  // index of each span's parent
  for (std::size_t i = 0; i < spans.size(); ++i) {
    parent_of.push_back(spans[i].parent < 0
                            ? i
                            : static_cast<std::size_t>(spans[i].parent));
  }
  write_chrome_trace(spans, parent_of, trace_path);

  // Self time = own duration minus the direct children's durations.
  std::vector<double> self(spans.size());
  std::vector<bool> built(spans.size(), false);  // has a plan_build child
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = span_ms(spans[i]);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (parent_of[i] == i) continue;
    self[parent_of[i]] -= span_ms(spans[i]);
    if (std::string_view(spans[i].name) == "plan_build") {
      built[parent_of[i]] = true;
    }
  }
  struct Row {
    double self_ms = 0.0;
    double total_ms = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, Row> rows;
  std::map<std::string, std::vector<double>> durations;
  std::map<std::uint64_t, double> execute_ms;  // per request
  std::vector<double> hit_lookups;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Row& row = rows[s.name];
    row.self_ms += self[i];
    row.total_ms += span_ms(s);
    ++row.count;
    durations[s.name].push_back(span_ms(s));
    // Service::execute (what result.seconds times) is key_build without the
    // standalone fingerprint, plus plan_lookup and compute.
    const std::string name = s.name;
    if (name == "key_build" || name == "plan_lookup" || name == "compute") {
      execute_ms[s.request] += span_ms(s);
    } else if (name == "plan_cache.fingerprint") {
      execute_ms[s.request] -= span_ms(s);
    }
    if (name == "plan_lookup" && !built[i]) hit_lookups.push_back(span_ms(s));
  }

  ReplayResult r;
  double total_self = 0.0;
  for (const auto& [name, row] : rows) total_self += row.self_ms;
  char buf[160];
  r.selftime_table =
      "span                               count   self_ms  self_%   mean_ms\n";
  for (const auto& [name, row] : rows) {
    std::snprintf(buf, sizeof(buf), "%-34s %6zu %9.3f %6.2f %9.4f\n",
                  name.c_str(), row.count, row.self_ms,
                  100.0 * row.self_ms / total_self,
                  row.total_ms / static_cast<double>(row.count));
    r.selftime_table += buf;
  }
  std::vector<double> per_request;
  for (const auto& [k, ms] : execute_ms) per_request.push_back(ms);
  r.coverage_ms_median = median(per_request);
  r.metrics["protocol.parse_us"] = {median(durations["read_parse"]) * 1e3,
                                    "us"};
  r.metrics["protocol.encode_us"] = {median(durations["encode"]) * 1e3, "us"};
  r.metrics["plan_cache.lookup_ms_p50"] = {percentile(hit_lookups, 0.5), "ms"};
  r.metrics["plan_cache.lookup_ms_p90"] = {percentile(hit_lookups, 0.9), "ms"};
  r.metrics["trace.overhead_pct"] = {100.0 * (best[1] / best[0] - 1.0), "%"};
  return r;
}

}  // namespace e2e
