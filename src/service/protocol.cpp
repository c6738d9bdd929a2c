#include "service/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.hpp"
#include "linalg/kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"

namespace fastqaoa::service {

namespace {

/// Upper clamp for a subscriber's "throttle_ms" (ten seconds per event).
constexpr long long kMaxThrottleMs = 10'000;

std::vector<double> doubles_from_json(const Json& value,
                                      const std::string& field) {
  FASTQAOA_CHECK(value.is_array(), "'" + field + "' must be an array");
  std::vector<double> out;
  out.reserve(value.size());
  for (const Json& v : value.as_array()) out.push_back(v.as_double());
  return out;
}

Json doubles_to_json(const std::vector<double>& values) {
  Json arr = Json::array();
  for (const double v : values) arr.push_back(Json(v));
  return arr;
}

/// batch_evaluate angle sets arrive as an array of per-lane arrays
/// ("betas": [[...], [...], ...]); flatten lane-major and report how many
/// lanes the field carried. Every lane must have the same length.
std::vector<double> lanes_from_json(const Json& value,
                                    const std::string& field, int& lanes) {
  FASTQAOA_CHECK(value.is_array() && value.size() > 0,
                 "'" + field + "' must be a non-empty array of angle arrays");
  std::vector<double> flat;
  std::size_t width = 0;
  for (std::size_t l = 0; l < value.size(); ++l) {
    const Json& lane = value.as_array()[l];
    FASTQAOA_CHECK(lane.is_array(),
                   "'" + field + "' lanes must be arrays of numbers");
    if (l == 0) {
      width = lane.size();
      flat.reserve(value.size() * width);
    }
    FASTQAOA_CHECK(lane.size() == width,
                   "'" + field + "' lanes must all have the same length");
    for (const Json& v : lane.as_array()) flat.push_back(v.as_double());
  }
  lanes = static_cast<int>(value.size());
  return flat;
}

/// Inverse of lanes_from_json: lane-major flat angles -> nested arrays.
Json lanes_to_json(const std::vector<double>& flat, int lanes) {
  Json outer = Json::array();
  const std::size_t width =
      lanes > 0 ? flat.size() / static_cast<std::size_t>(lanes) : 0;
  for (int l = 0; l < lanes; ++l) {
    Json inner = Json::array();
    for (std::size_t i = 0; i < width; ++i) {
      inner.push_back(Json(flat[static_cast<std::size_t>(l) * width + i]));
    }
    outer.push_back(std::move(inner));
  }
  return outer;
}

Json schedule_to_json(const AngleSchedule& s) {
  Json j = Json::object();
  j.set("p", Json(static_cast<long long>(s.p)));
  j.set("expectation", Json(s.expectation));
  j.set("betas", doubles_to_json(s.betas));
  j.set("gammas", doubles_to_json(s.gammas));
  j.set("optimizer_calls", Json(static_cast<std::uint64_t>(s.optimizer_calls)));
  j.set("evaluations", Json(static_cast<std::uint64_t>(s.evaluations)));
  j.set("stop_reason", Json(runtime::to_string(s.stop_reason)));
  return j;
}

Json result_to_json(const JobKind kind, const JobResultData& r) {
  Json j = Json::object();
  j.set("expectation", Json(r.expectation));
  switch (kind) {
    case JobKind::Evaluate:
      break;
    case JobKind::BatchEvaluate:
      j.set("expectations", doubles_to_json(r.expectations));
      j.set("lanes", Json(static_cast<long long>(r.expectations.size())));
      break;
    case JobKind::Gradient:
      j.set("grad_betas", doubles_to_json(r.grad_betas));
      j.set("grad_gammas", doubles_to_json(r.grad_gammas));
      break;
    case JobKind::Sample:
      j.set("shot_estimate", Json(r.shot_estimate));
      j.set("shot_stderr", Json(r.shot_stderr));
      break;
    case JobKind::FindAngles: {
      Json schedules = Json::array();
      for (const AngleSchedule& s : r.schedules) {
        schedules.push_back(schedule_to_json(s));
      }
      j.set("schedules", std::move(schedules));
      break;
    }
  }
  if (r.mps) {
    // The MPS engine's fidelity proxy for the reported expectation: how
    // much weight truncation discarded and how hard the bond cap was hit.
    j.set("engine", Json("mps"));
    j.set("discarded_weight", Json(r.discarded_weight));
    j.set("truncations", Json(r.truncations));
    j.set("max_bond_reached", Json(r.max_bond_reached));
  }
  j.set("stop_reason", Json(runtime::to_string(r.stop)));
  j.set("cache_hit", Json(r.cache_hit));
  j.set("seconds", Json(r.seconds));
  return j;
}

JobKind kind_from_op(const std::string& op) {
  if (op == "evaluate") return JobKind::Evaluate;
  if (op == "batch_evaluate") return JobKind::BatchEvaluate;
  if (op == "gradient") return JobKind::Gradient;
  if (op == "find_angles") return JobKind::FindAngles;
  if (op == "sample") return JobKind::Sample;
  throw Error("unknown job op '" + op + "'");
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Render the always-on queue-depth histogram as a Prometheus histogram
/// family (cumulative le buckets, +Inf terminator, _sum/_count), matching
/// what obs::to_prometheus emits for profiling-build histograms.
void append_depth_histogram(std::string& text, const obs::HistogramStat& h,
                            const std::string& labels) {
  const std::string family = "fastqaoa_service_queue_depth_at_admission";
  if (text.find("# TYPE " + family + ' ') != std::string::npos) return;
  text += "# HELP " + family + " queue depth observed at each admission\n";
  text += "# TYPE " + family + " histogram\n";
  std::size_t first = obs::HistogramStat::kBuckets;
  std::size_t last = 0;
  for (std::size_t i = 0; i < obs::HistogramStat::kBuckets; ++i) {
    if (h.buckets[i] != 0) {
      if (first == obs::HistogramStat::kBuckets) first = i;
      last = i;
    }
  }
  std::uint64_t cum = 0;
  for (std::size_t i = first; i <= last && i < obs::HistogramStat::kBuckets;
       ++i) {
    cum += h.buckets[i];
    const double upper = obs::HistogramStat::bucket_upper(i);
    if (std::isinf(upper)) break;  // the +Inf line below covers it
    text += family + "_bucket{" + labels + ",le=\"" + fmt_double(upper) +
            "\"} " + std::to_string(cum) + '\n';
  }
  text += family + "_bucket{" + labels + ",le=\"+Inf\"} " +
          std::to_string(h.count) + '\n';
  text += family + "_sum{" + labels + "} " + fmt_double(h.sum) + '\n';
  text += family + "_count{" + labels + "} " + std::to_string(h.count) + '\n';
}

}  // namespace

JobSpec job_spec_from_json(const Json& request) {
  JobSpec spec;
  spec.kind = kind_from_op(request.at("op").as_string());
  if (const Json* v = request.find("problem")) spec.problem.problem = v->as_string();
  if (const Json* v = request.find("mixer")) spec.problem.mixer = v->as_string();
  if (const Json* v = request.find("n")) spec.problem.n = static_cast<int>(v->as_int64());
  if (const Json* v = request.find("k")) spec.problem.k = static_cast<int>(v->as_int64());
  if (const Json* v = request.find("density")) spec.problem.density = v->as_double();
  if (const Json* v = request.find("seed")) spec.problem.instance_seed = v->as_uint64();
  if (const Json* v = request.find("degree")) spec.problem.degree = static_cast<int>(v->as_int64());
  if (const Json* v = request.find("engine")) spec.problem.engine = v->as_string();
  if (const Json* v = request.find("max_bond")) spec.problem.max_bond = static_cast<int>(v->as_int64());
  if (const Json* v = request.find("fidelity_budget")) spec.problem.fidelity_budget = v->as_double();
  if (const Json* v = request.find("trunc_tol")) spec.problem.trunc_tol = v->as_double();
  if (const Json* v = request.find("p")) spec.p = static_cast<int>(v->as_int64());
  if (const Json* v = request.find("minimize")) spec.minimize = v->as_bool();
  if (spec.kind == JobKind::BatchEvaluate) {
    int beta_lanes = 0;
    int gamma_lanes = 0;
    if (const Json* v = request.find("betas")) {
      spec.betas = lanes_from_json(*v, "betas", beta_lanes);
    }
    if (const Json* v = request.find("gammas")) {
      spec.gammas = lanes_from_json(*v, "gammas", gamma_lanes);
    }
    FASTQAOA_CHECK(beta_lanes == gamma_lanes,
                   "betas and gammas must carry the same number of lanes");
    spec.lanes = beta_lanes;
  } else {
    if (const Json* v = request.find("betas")) spec.betas = doubles_from_json(*v, "betas");
    if (const Json* v = request.find("gammas")) spec.gammas = doubles_from_json(*v, "gammas");
  }
  if (const Json* v = request.find("shots")) spec.shots = v->as_uint64();
  if (const Json* v = request.find("hops")) spec.hops = static_cast<int>(v->as_int64());
  if (const Json* v = request.find("starts")) spec.starts = static_cast<int>(v->as_int64());
  if (const Json* v = request.find("opt_seed")) spec.opt_seed = v->as_uint64();
  if (const Json* v = request.find("checkpoint")) spec.checkpoint = v->as_string();
  if (const Json* v = request.find("deadline")) spec.deadline_seconds = v->as_double();
  if (const Json* v = request.find("max_evals")) {
    spec.max_evaluations = static_cast<std::size_t>(v->as_uint64());
  }
  validate_job_spec(spec);
  return spec;
}

Json job_spec_to_json(const JobSpec& spec) {
  Json j = Json::object();
  j.set("op", Json(to_string(spec.kind)));
  j.set("problem", Json(spec.problem.problem));
  j.set("mixer", Json(spec.problem.mixer));
  j.set("n", Json(static_cast<long long>(spec.problem.n)));
  if (spec.problem.k >= 0) j.set("k", Json(static_cast<long long>(spec.problem.k)));
  j.set("density", Json(spec.problem.density));
  j.set("seed", Json(spec.problem.instance_seed));
  if (spec.problem.degree != 0) {
    j.set("degree", Json(static_cast<long long>(spec.problem.degree)));
  }
  if (spec.problem.engine != "exact") {
    j.set("engine", Json(spec.problem.engine));
    j.set("max_bond", Json(static_cast<long long>(spec.problem.max_bond)));
    j.set("fidelity_budget", Json(spec.problem.fidelity_budget));
    j.set("trunc_tol", Json(spec.problem.trunc_tol));
  }
  j.set("p", Json(static_cast<long long>(spec.p)));
  if (spec.minimize) j.set("minimize", Json(true));
  switch (spec.kind) {
    case JobKind::Evaluate:
    case JobKind::Gradient:
      j.set("betas", doubles_to_json(spec.betas));
      j.set("gammas", doubles_to_json(spec.gammas));
      break;
    case JobKind::BatchEvaluate:
      j.set("betas", lanes_to_json(spec.betas, spec.lanes));
      j.set("gammas", lanes_to_json(spec.gammas, spec.lanes));
      break;
    case JobKind::Sample:
      j.set("betas", doubles_to_json(spec.betas));
      j.set("gammas", doubles_to_json(spec.gammas));
      j.set("shots", Json(spec.shots));
      j.set("opt_seed", Json(spec.opt_seed));
      break;
    case JobKind::FindAngles:
      j.set("hops", Json(static_cast<long long>(spec.hops)));
      j.set("starts", Json(static_cast<long long>(spec.starts)));
      j.set("opt_seed", Json(spec.opt_seed));
      if (!spec.checkpoint.empty()) j.set("checkpoint", Json(spec.checkpoint));
      break;
  }
  if (spec.deadline_seconds > 0.0) j.set("deadline", Json(spec.deadline_seconds));
  if (spec.max_evaluations > 0) {
    j.set("max_evals", Json(static_cast<std::uint64_t>(spec.max_evaluations)));
  }
  return j;
}

Json job_to_json(const Job& job) {
  Json j = Json::object();
  j.set("id", Json(job.id));
  j.set("op", Json(to_string(job.spec.kind)));
  JobState state;
  JobResultData result;
  std::string error;
  {
    std::lock_guard<std::mutex> lock(job.mu);
    state = job.state;
    if (state == JobState::Done || state == JobState::Cancelled) {
      result = job.result;
    }
    error = job.error;
  }
  j.set("state", Json(to_string(state)));
  // A cancelled search or sweep still reports what it finished.
  if (state == JobState::Done ||
      (state == JobState::Cancelled &&
       (!result.schedules.empty() || !result.expectations.empty()))) {
    j.set("result", result_to_json(job.spec.kind, result));
  } else if (state == JobState::Cancelled) {
    j.set("stop_reason", Json(runtime::to_string(runtime::StopReason::Cancelled)));
  }
  if (state == JobState::Failed) {
    Json err = Json::object();
    err.set("code", Json("job_failed"));
    err.set("message", Json(error));
    j.set("error", std::move(err));
  }
  return j;
}

Json stats_to_json(const ServiceStats& stats) {
  Json cache = Json::object();
  cache.set("entries", Json(static_cast<std::uint64_t>(stats.plan_cache.entries)));
  cache.set("bytes", Json(static_cast<std::uint64_t>(stats.plan_cache.bytes)));
  cache.set("hits", Json(stats.plan_cache.hits));
  cache.set("misses", Json(stats.plan_cache.misses));
  cache.set("evictions", Json(stats.plan_cache.evictions));
  if (!stats.plan_cache.partitions.empty()) {
    Json parts = Json::object();
    for (const auto& [name, ps] : stats.plan_cache.partitions) {
      Json p = Json::object();
      p.set("entries", Json(static_cast<std::uint64_t>(ps.entries)));
      p.set("bytes", Json(static_cast<std::uint64_t>(ps.bytes)));
      p.set("evictions", Json(ps.evictions));
      parts.set(name, std::move(p));
    }
    cache.set("partitions", std::move(parts));
  }

  Json j = Json::object();
  j.set("queue_depth", Json(static_cast<std::uint64_t>(stats.queue_depth)));
  j.set("running", Json(static_cast<std::uint64_t>(stats.running)));
  j.set("workers", Json(static_cast<long long>(stats.workers)));
  j.set("submitted", Json(stats.submitted));
  j.set("completed", Json(stats.completed));
  j.set("failed", Json(stats.failed));
  j.set("cancelled", Json(stats.cancelled));
  j.set("rejected", Json(stats.rejected));
  j.set("batch_jobs", Json(stats.batch_jobs));
  j.set("batched_evals", Json(stats.batched_evals));
  j.set("mean_batch_width",
        Json(stats.batch_jobs > 0
                 ? static_cast<double>(stats.batched_evals) /
                       static_cast<double>(stats.batch_jobs)
                 : 0.0));
  j.set("subscribe_dropped", Json(stats.subscribe_dropped));
  j.set("over_quota", Json(stats.over_quota));
  j.set("draining", Json(stats.draining));
  j.set("kernel_backend", Json(linalg::kernels::active_name()));
  j.set("plan_cache", std::move(cache));
  if (!stats.tenants.empty()) {
    Json tenants = Json::array();
    for (const ServiceStats::TenantStats& t : stats.tenants) {
      Json tj = Json::object();
      tj.set("name", Json(t.name));
      tj.set("weight", Json(t.weight));
      tj.set("queued", Json(static_cast<std::uint64_t>(t.queued)));
      tj.set("running", Json(static_cast<std::uint64_t>(t.running)));
      tj.set("submitted", Json(t.submitted));
      tj.set("completed", Json(t.completed));
      tj.set("rejected", Json(t.rejected));
      tj.set("over_quota", Json(t.over_quota));
      tenants.push_back(std::move(tj));
    }
    j.set("tenants", std::move(tenants));
  }
  {
    Json fe = Json::object();
    const ServiceStats::FrontendSnapshot& f = stats.frontend;
    fe.set("accepted", Json(f.accepted));
    fe.set("active", Json(f.active));
    fe.set("closed", Json(f.closed));
    fe.set("evicted_slow", Json(f.evicted_slow));
    fe.set("evicted_idle", Json(f.evicted_idle));
    fe.set("evicted_oversize", Json(f.evicted_oversize));
    fe.set("rejected_conn_limit", Json(f.rejected_conn_limit));
    fe.set("shed_fd_pressure", Json(f.shed_fd_pressure));
    fe.set("auth_failures", Json(f.auth_failures));
    j.set("frontend", std::move(fe));
  }
  return j;
}

std::string metrics_prometheus(Service& service) {
  // Engine side: every counter/histogram the workers merged into the global
  // aggregate (empty while metrics recording is disabled at runtime).
  std::string text = obs::to_prometheus(obs::global_snapshot());

  // Service side: always-available gauges/counters, carrying the same
  // kernel_backend label the engine snapshot attaches. A few of these
  // families (the service.jobs.* counters) are ALSO tracked by the engine
  // aggregate; emitting both would be a duplicate # TYPE, so the engine
  // series wins when present and the stats-derived sample fills the gap
  // when metrics recording is disabled at runtime.
  const std::string labels =
      std::string("kernel_backend=\"") +
      obs::escape_prometheus_label_value(linalg::kernels::active_name()) +
      '"';
  const ServiceStats st = service.stats();
  const auto gauge = [&text, &labels](const char* name, const char* help,
                                      double value) {
    if (text.find(std::string("# TYPE ") + name + ' ') != std::string::npos) {
      return;
    }
    obs::append_prometheus_gauge(text, name, help, value, labels);
  };
  const auto counter = [&text, &labels](const char* name, const char* help,
                                        std::uint64_t value) {
    if (text.find(std::string("# TYPE ") + name + ' ') != std::string::npos) {
      return;
    }
    obs::append_prometheus_counter(text, name, help, value, labels);
  };
  gauge("fastqaoa_service_queue_depth",
        "jobs waiting in the admission queue",
        static_cast<double>(st.queue_depth));
  gauge("fastqaoa_service_running", "jobs currently executing",
        static_cast<double>(st.running));
  gauge("fastqaoa_service_workers", "worker pool size",
        static_cast<double>(st.workers));
  gauge("fastqaoa_service_draining", "1 while the daemon is draining",
        st.draining ? 1.0 : 0.0);
  counter("fastqaoa_service_jobs_submitted_total", "jobs admitted",
          st.submitted);
  counter("fastqaoa_service_jobs_completed_total",
          "jobs finished successfully", st.completed);
  counter("fastqaoa_service_jobs_failed_total", "jobs that raised an error",
          st.failed);
  counter("fastqaoa_service_jobs_cancelled_total", "jobs cancelled",
          st.cancelled);
  counter("fastqaoa_service_jobs_rejected_total",
          "submissions rejected by backpressure", st.rejected);
  counter("fastqaoa_service_batch_jobs_total", "batch_evaluate jobs finished",
          st.batch_jobs);
  counter("fastqaoa_service_batched_evals_total",
          "total lanes swept by batch_evaluate jobs", st.batched_evals);
  counter("fastqaoa_service_subscribe_dropped_events_total",
          "progress events dropped because a subscriber fell behind",
          st.subscribe_dropped);
  gauge("fastqaoa_service_plan_cache_entries", "plans resident in the cache",
        static_cast<double>(st.plan_cache.entries));
  gauge("fastqaoa_service_plan_cache_bytes", "bytes held by cached plans",
        static_cast<double>(st.plan_cache.bytes));
  counter("fastqaoa_service_plan_cache_hits_total", "plan cache hits",
          st.plan_cache.hits);
  counter("fastqaoa_service_plan_cache_misses_total", "plan cache misses",
          st.plan_cache.misses);
  counter("fastqaoa_service_plan_cache_evictions_total",
          "plan cache evictions", st.plan_cache.evictions);

  // Front-end connection counters (always on; the event loop is the only
  // writer). These families never exist in the engine snapshot, so no
  // dedup guard is needed.
  counter("fastqaoa_frontend_connections_accepted_total",
          "connections accepted by the event loop", st.frontend.accepted);
  counter("fastqaoa_frontend_connections_closed_total",
          "connections closed (any reason)", st.frontend.closed);
  counter("fastqaoa_frontend_evicted_slow_total",
          "connections evicted for write-buffer stall", st.frontend.evicted_slow);
  counter("fastqaoa_frontend_evicted_idle_total",
          "connections evicted for idle timeout", st.frontend.evicted_idle);
  counter("fastqaoa_frontend_evicted_oversize_total",
          "connections evicted for an oversized request line",
          st.frontend.evicted_oversize);
  counter("fastqaoa_frontend_rejected_conn_limit_total",
          "connections refused at the hard connection limit",
          st.frontend.rejected_conn_limit);
  counter("fastqaoa_frontend_shed_fd_pressure_total",
          "idle connections shed on EMFILE/ENFILE",
          st.frontend.shed_fd_pressure);
  counter("fastqaoa_frontend_auth_failures_total",
          "requests rejected for a missing or unknown API key",
          st.frontend.auth_failures);
  gauge("fastqaoa_frontend_connections_active", "open connections right now",
        static_cast<double>(st.frontend.active));

  // Queue depth at admission as a real histogram family (always on, so
  // depth quantiles survive metrics recording being disabled at runtime).
  append_depth_histogram(text, st.queue_depth_hist, labels);

  // Per-tenant series: one # TYPE block per family, one tenant-labelled
  // sample per tenant (append_prometheus_counter would re-emit the TYPE
  // header per sample, which the strict validator rejects).
  if (!st.tenants.empty()) {
    const auto tenant_family = [&](const char* name, const char* help,
                                   const auto& project) {
      text += "# HELP " + std::string(name) + ' ' + help + '\n';
      text += "# TYPE " + std::string(name) + " counter\n";
      for (const ServiceStats::TenantStats& t : st.tenants) {
        text += std::string(name) + "{tenant=\"" +
                obs::escape_prometheus_label_value(t.name) + "\"," + labels +
                "} " + std::to_string(project(t)) + '\n';
      }
    };
    tenant_family("fastqaoa_tenant_jobs_submitted_total",
                  "jobs admitted per tenant",
                  [](const ServiceStats::TenantStats& t) { return t.submitted; });
    tenant_family("fastqaoa_tenant_jobs_completed_total",
                  "jobs finished successfully per tenant",
                  [](const ServiceStats::TenantStats& t) { return t.completed; });
    tenant_family("fastqaoa_tenant_jobs_rejected_total",
                  "submissions rejected per tenant (backpressure or quota)",
                  [](const ServiceStats::TenantStats& t) { return t.rejected; });
    tenant_family("fastqaoa_tenant_over_quota_total",
                  "over_quota rejections per tenant",
                  [](const ServiceStats::TenantStats& t) { return t.over_quota; });
    text += "# HELP fastqaoa_tenant_queue_depth jobs waiting per tenant\n";
    text += "# TYPE fastqaoa_tenant_queue_depth gauge\n";
    for (const ServiceStats::TenantStats& t : st.tenants) {
      text += "fastqaoa_tenant_queue_depth{tenant=\"" +
              obs::escape_prometheus_label_value(t.name) + "\"," + labels +
              "} " + std::to_string(t.queued) + '\n';
    }
  }
  return text;
}

bool is_job_op(const std::string& op) {
  return op == "evaluate" || op == "batch_evaluate" || op == "gradient" ||
         op == "find_angles" || op == "sample";
}

Json error_response(std::string_view code, std::string_view message) {
  Json err = Json::object();
  err.set("code", Json(code));
  err.set("message", Json(message));
  Json j = Json::object();
  j.set("ok", Json(false));
  j.set("error", std::move(err));
  return j;
}

Json submit_job_request(Service& service, const Json& request,
                        const std::string& tenant,
                        std::shared_ptr<Job>* out_job) {
  JobSpec spec = job_spec_from_json(request);
  spec.tenant = tenant;
  // Every field is validated before admission: a throw after submit()
  // would leave an accepted job running that no client knows about.
  const Json* async_field = request.find("async");
  const bool async = async_field != nullptr && async_field->as_bool();
  Service::SubmitOutcome outcome = service.submit(std::move(spec));
  if (!outcome.accepted()) {
    // Structured backpressure: tell the client how deep the queue is, and
    // for quota rejections when to come back.
    Json err = Json::object();
    err.set("code", Json(outcome.error_code));
    std::string message;
    if (outcome.error_code == "overloaded") {
      message = "queue is at its high-water mark; retry later";
    } else if (outcome.error_code == "over_quota") {
      message = "tenant quota exceeded; retry after retry_after_ms";
    } else {
      message = "service is draining; no new jobs accepted";
    }
    err.set("message", Json(message));
    err.set("queue_depth",
            Json(static_cast<std::uint64_t>(outcome.queue_depth)));
    if (outcome.retry_after_ms > 0) {
      err.set("retry_after_ms",
              Json(static_cast<long long>(outcome.retry_after_ms)));
    }
    Json response = Json::object();
    response.set("ok", Json(false));
    response.set("error", std::move(err));
    return response;
  }
  if (async) {
    Json j = Json::object();
    j.set("ok", Json(true));
    j.set("id", Json(outcome.job->id));
    j.set("state", Json(to_string(outcome.job->snapshot_state())));
    return j;
  }
  *out_job = std::move(outcome.job);
  return Json();  // null: the caller waits for *out_job and renders it
}

Json check_auth(Service& service, const Json& request, const std::string& op,
                RequestContext& ctx) {
  const TenantRegistry& registry = service.tenant_registry();
  // A per-request "key" acts as an implicit auth for this connection.
  if (const Json* key = request.find("key");
      key != nullptr && key->is_string() && registry.enabled()) {
    if (auto tenant = registry.by_key(key->as_string())) {
      ctx.tenant = tenant->name;
      ctx.authenticated = true;
    } else {
      service.frontend.auth_failures.fetch_add(1, std::memory_order_relaxed);
      return error_response("unauthorized", "unknown API key");
    }
  }
  if (registry.enabled() && !ctx.trusted && !ctx.authenticated &&
      op != "ping" && op != "auth") {
    service.frontend.auth_failures.fetch_add(1, std::memory_order_relaxed);
    return error_response(
        "unauthorized",
        "tenants are configured; authenticate with {\"op\":\"auth\",\"key\":...}");
  }
  return Json();
}

Json handle_request(Service& service, const Json& request) {
  RequestContext trusted_ctx;
  return handle_request(service, request, trusted_ctx);
}

Json handle_request(Service& service, const Json& request,
                    RequestContext& ctx) {
  try {
    const std::string& op = request.at("op").as_string();
    if (Json denied = check_auth(service, request, op, ctx);
        !denied.is_null()) {
      return denied;
    }
    if (op == "auth") {
      if (!service.tenant_registry().enabled()) {
        // No tenant file: auth is a no-op so clients can send it
        // unconditionally.
        Json j = Json::object();
        j.set("ok", Json(true));
        j.set("tenant", Json("default"));
        return j;
      }
      if (!ctx.authenticated) {
        service.frontend.auth_failures.fetch_add(1,
                                                 std::memory_order_relaxed);
        return error_response("unauthorized", "missing or unknown API key");
      }
      Json j = Json::object();
      j.set("ok", Json(true));
      j.set("tenant", Json(ctx.tenant));
      return j;
    }
    if (is_job_op(op)) {
      std::shared_ptr<Job> job;
      Json response = submit_job_request(service, request, ctx.tenant, &job);
      if (job == nullptr) return response;
      Service::wait(*job);
      Json j = job_to_json(*job);
      j.set("ok", Json(true));
      return j;
    }
    if (op == "status") {
      const std::uint64_t id = request.at("id").as_uint64();
      std::shared_ptr<Job> job = service.find(id);
      if (job == nullptr) {
        return error_response("unknown_job",
                              "no job with id " + std::to_string(id));
      }
      Json j = job_to_json(*job);
      j.set("ok", Json(true));
      return j;
    }
    if (op == "cancel") {
      const std::uint64_t id = request.at("id").as_uint64();
      std::shared_ptr<Job> job = service.find(id);
      if (job == nullptr) {
        return error_response("unknown_job",
                              "no job with id " + std::to_string(id));
      }
      const bool cancelled = service.cancel(id);
      Json j = Json::object();
      j.set("ok", Json(true));
      j.set("id", Json(id));
      j.set("cancelled", Json(cancelled));
      return j;
    }
    if (op == "stats") {
      Json j = Json::object();
      j.set("ok", Json(true));
      j.set("stats", stats_to_json(service.stats()));
      return j;
    }
    if (op == "metrics") {
      Json j = Json::object();
      j.set("ok", Json(true));
      j.set("format", Json("prometheus"));
      j.set("text", Json(metrics_prometheus(service)));
      return j;
    }
    if (op == "subscribe") {
      // Reachable only through a non-streaming dispatcher (in-process
      // request() or a transport that didn't divert); the daemon's event
      // loop admits subscribe lines with subscribe_attach() and streams.
      return error_response("bad_request",
                            "subscribe requires a streaming connection");
    }
    if (op == "ping") {
      Json j = Json::object();
      j.set("ok", Json(true));
      j.set("pong", Json(true));
      return j;
    }
    return error_response("bad_request", "unknown op '" + op + "'");
  } catch (const std::exception& e) {
    return error_response("bad_request", e.what());
  }
}

std::string handle_request_line(Service& service, const std::string& line) {
  Json request;
  try {
    request = Json::parse(line);
  } catch (const std::exception& e) {
    return error_response("bad_request", e.what()).dump();
  }
  return handle_request(service, request).dump();
}

Json subscribe_attach(Service& service, const Json& request,
                      std::shared_ptr<Job>* out_job, int* out_throttle_ms) {
  std::uint64_t id = 0;
  try {
    id = request.at("id").as_uint64();
  } catch (const std::exception& e) {
    return error_response("bad_request", e.what());
  }
  long long throttle_ms = 0;
  if (const Json* t = request.find("throttle_ms")) {
    try {
      throttle_ms = std::clamp(t->as_int64(), 0LL, kMaxThrottleMs);
    } catch (const std::exception& e) {
      return error_response("bad_request",
                            std::string("throttle_ms: ") + e.what());
    }
  }
  std::shared_ptr<Job> job = service.find(id);
  if (job == nullptr) {
    return error_response("unknown_job",
                          "no job with id " + std::to_string(id));
  }
  Json ack = Json::object();
  ack.set("ok", Json(true));
  ack.set("id", Json(id));
  ack.set("subscribed", Json(true));
  ack.set("state", Json(to_string(job->snapshot_state())));
  *out_job = std::move(job);
  *out_throttle_ms = static_cast<int>(throttle_ms);
  return ack;
}

std::string stamp_terminal_event(const std::string& line,
                                 std::uint64_t dropped_events,
                                 bool* is_terminal) {
  if (is_terminal != nullptr) *is_terminal = false;
  try {
    Json ev = Json::parse(line);
    const Json* kind = ev.find("event");
    if (kind != nullptr && kind->is_string() && kind->as_string() == "done") {
      // Stamp this subscriber's drop count into the terminal event.
      ev.set("dropped_events", Json(dropped_events));
      if (is_terminal != nullptr) *is_terminal = true;
      return ev.dump();
    }
  } catch (...) {
    // Not JSON? Forward verbatim; the publisher only emits JSON today.
  }
  return line;
}

}  // namespace fastqaoa::service
