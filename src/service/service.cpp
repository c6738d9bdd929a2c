#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "anglefind/strategies.hpp"
#include "autodiff/adjoint.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "mps/mps_objective.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sampling/sampler.hpp"
#include "service/json.hpp"

namespace fastqaoa::service {

namespace {

/// retry_after_ms hint for concurrency-quota rejections, where (unlike the
/// token bucket) there is no refill schedule to derive a wait from.
constexpr int kQuotaRetryHintMs = 250;

/// The NDJSON line a `subscribe` stream terminates with (also latched for
/// late watchers of an already-finished job).
std::string terminal_event_json(std::uint64_t id, JobState state,
                                runtime::StopReason stop,
                                const std::string& error) {
  Json j = Json::object();
  j.set("event", Json("done"));
  j.set("id", Json(id));
  j.set("state", Json(to_string(state)));
  j.set("stop_reason", Json(runtime::to_string(stop)));
  if (!error.empty()) j.set("error", Json(error));
  return j.dump();
}

/// Job-distribution samples keyed per kind via the `name|key=value` label
/// convention (the Prometheus renderer splits these back into real labels).
/// The names are dynamic, so this goes through histogram_id() directly —
/// once per job, cold path — instead of the static-id macros.
void record_job_distributions(JobKind kind, double queue_wait_s,
                              double latency_s) {
  if (obs::metrics_enabled()) {
    obs::hist_global(
        obs::histogram_id(std::string("service.job.latency_seconds|kind=") +
                          to_string(kind)),
        latency_s);
    obs::hist_global(obs::histogram_id("service.job.queue_wait_seconds"),
                     queue_wait_s);
  }
}

double bucket_capacity(const TenantConfig& cfg) {
  if (cfg.rate_per_sec <= 0.0) return 0.0;
  return cfg.burst > 0.0 ? cfg.burst : std::max(1.0, cfg.rate_per_sec);
}

}  // namespace

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      registry_(config_.tenants),
      cache_(PlanCache::Config{config_.cache_bytes}) {
  config_.workers = std::max(1, config_.workers);
  config_.queue_high_water = std::max<std::size_t>(1, config_.queue_high_water);

  const auto now = std::chrono::steady_clock::now();
  // Slot 0 is the default (unnamed, quota-free) tenant so multi-tenancy-off
  // deployments schedule exactly like the old single FIFO queue.
  auto def = std::make_unique<TenantState>();
  def->last_refill = now;
  tenant_index_.emplace(std::string{}, 0);
  tenant_states_.push_back(std::move(def));

  double total_weight = 0.0;
  for (const TenantConfig& t : config_.tenants) total_weight += t.weight;
  for (const TenantConfig& t : config_.tenants) {
    auto ts = std::make_unique<TenantState>();
    ts->cfg = t;
    ts->stride = 1.0 / t.weight;
    ts->tokens = bucket_capacity(t);
    ts->last_refill = now;
    tenant_index_.emplace(t.name, tenant_states_.size());
    tenant_states_.push_back(std::move(ts));
    // Partition the plan cache's byte budget by fair-share weight (or the
    // tenant's explicit cache_bytes override) so one tenant's plan churn
    // cannot evict another's working set.
    if (config_.cache_bytes > 0) {
      const std::size_t budget =
          t.cache_bytes > 0
              ? t.cache_bytes
              : static_cast<std::size_t>(
                    static_cast<double>(config_.cache_bytes) * t.weight /
                    total_weight);
      cache_.set_partition_budget(t.name, std::max<std::size_t>(1, budget));
    }
  }

  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Service::~Service() { shutdown(); }

Service::TenantState& Service::tenant_state_locked(const std::string& name) {
  auto it = tenant_index_.find(name);
  if (it != tenant_index_.end()) return *tenant_states_[it->second];
  // First sight of an unconfigured tenant name (in-process embedding):
  // default config, fair weight 1, no quotas. Its pass starts at the
  // current virtual time so it cannot claim "credit" for its idle past.
  auto ts = std::make_unique<TenantState>();
  ts->cfg.name = name;
  ts->pass = global_pass_;
  ts->last_refill = std::chrono::steady_clock::now();
  tenant_index_.emplace(name, tenant_states_.size());
  tenant_states_.push_back(std::move(ts));
  return *tenant_states_.back();
}

Service::SubmitOutcome Service::submit(JobSpec spec) {
  validate_job_spec(spec);
  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);

  std::unique_lock<std::mutex> lock(mu_);
  if (draining_) {
    ++rejected_;
    FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.rejected", 1);
    return SubmitOutcome{nullptr, "draining", total_queued_};
  }
  TenantState& ts = tenant_state_locked(job->spec.tenant);
  // Concurrency quota: queued + running jobs this tenant already owns.
  if (ts.cfg.max_inflight > 0 && ts.inflight >= ts.cfg.max_inflight) {
    ++rejected_;
    ++over_quota_;
    ++ts.rejected;
    ++ts.over_quota;
    FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.rejected", 1);
    return SubmitOutcome{nullptr, "over_quota", total_queued_,
                         kQuotaRetryHintMs};
  }
  // Rate quota (token bucket). Checked before the global high-water mark so
  // the retry hint reflects the tenant's own refill schedule; the token is
  // only consumed once the job is actually admitted.
  if (ts.cfg.rate_per_sec > 0.0) {
    const auto now = std::chrono::steady_clock::now();
    const double dt =
        std::chrono::duration<double>(now - ts.last_refill).count();
    ts.tokens = std::min(bucket_capacity(ts.cfg),
                         ts.tokens + dt * ts.cfg.rate_per_sec);
    ts.last_refill = now;
    if (ts.tokens < 1.0) {
      ++rejected_;
      ++over_quota_;
      ++ts.rejected;
      ++ts.over_quota;
      FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.rejected", 1);
      const double wait_s = (1.0 - ts.tokens) / ts.cfg.rate_per_sec;
      const int retry_ms = std::max(
          1, static_cast<int>(std::ceil(wait_s * 1000.0)));
      return SubmitOutcome{nullptr, "over_quota", total_queued_, retry_ms};
    }
  }
  if (total_queued_ >= config_.queue_high_water) {
    ++rejected_;
    ++ts.rejected;
    FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.rejected", 1);
    return SubmitOutcome{nullptr, "overloaded", total_queued_};
  }
  if (ts.cfg.rate_per_sec > 0.0) ts.tokens -= 1.0;

  job->id = next_id_++;
  job->progress.configure(config_.subscriber_queue_cap, &subscribe_dropped_);
  job->enqueued_at = std::chrono::steady_clock::now();
  jobs_.emplace(job->id, job);
  // A tenant going from idle to busy re-enters the stride schedule at the
  // current virtual time: it competes fairly from now on instead of
  // draining an unbounded backlog of "owed" service.
  if (ts.queue.empty()) ts.pass = std::max(ts.pass, global_pass_);
  ts.queue.push_back(job);
  ++total_queued_;
  ++ts.inflight;
  ++ts.submitted;
  ++submitted_;
  queue_depth_hist_.add(static_cast<double>(total_queued_));
  FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.submitted", 1);
  const std::size_t depth = total_queued_;
  lock.unlock();
  work_cv_.notify_one();
  return SubmitOutcome{std::move(job), "", depth};
}

std::shared_ptr<Job> Service::find(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

bool Service::cancel(std::uint64_t id) {
  std::shared_ptr<Job> job = find(id);
  if (job == nullptr) return false;
  bool was_queued = false;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    switch (job->state) {
      case JobState::Queued:
        job->state = JobState::Cancelled;
        job->result.stop = runtime::StopReason::Cancelled;
        was_queued = true;
        break;
      case JobState::Running:
        job->cancel.request_stop();
        break;
      default:
        return false;  // already terminal
    }
  }
  job->cv.notify_all();
  if (was_queued) {
    job->progress.close(terminal_event_json(job->id, JobState::Cancelled,
                                            runtime::StopReason::Cancelled,
                                            /*error=*/""));
    std::lock_guard<std::mutex> lock(mu_);
    ++cancelled_;
    FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.cancelled", 1);
  }
  return true;
}

void Service::wait(Job& job) {
  std::unique_lock<std::mutex> lock(job.mu);
  job.cv.wait(lock, [&job] {
    return job.state == JobState::Done || job.state == JobState::Failed ||
           job.state == JobState::Cancelled;
  });
}

ServiceStats Service::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = total_queued_;
    s.running = running_;
    s.workers = config_.workers;
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    s.rejected = rejected_;
    s.over_quota = over_quota_;
    s.batch_jobs = batch_jobs_;
    s.batched_evals = batched_evals_;
    s.subscribe_dropped =
        subscribe_dropped_.load(std::memory_order_relaxed);
    s.draining = draining_;
    s.queue_depth_hist = queue_depth_hist_;
    for (const auto& tsp : tenant_states_) {
      const TenantState& ts = *tsp;
      // The default slot only shows up once it has actually been used, so
      // single-tenant deployments don't render a phantom tenant.
      if (ts.cfg.name.empty() && ts.submitted == 0 && ts.rejected == 0) {
        continue;
      }
      ServiceStats::TenantStats t;
      t.name = ts.cfg.name.empty() ? "default" : ts.cfg.name;
      t.weight = ts.cfg.weight;
      t.queued = ts.queue.size();
      t.running = ts.running;
      t.submitted = ts.submitted;
      t.completed = ts.completed;
      t.rejected = ts.rejected;
      t.over_quota = ts.over_quota;
      s.tenants.push_back(std::move(t));
    }
  }
  s.plan_cache = cache_.stats();
  s.frontend.accepted = frontend.accepted.load(std::memory_order_relaxed);
  s.frontend.closed = frontend.closed.load(std::memory_order_relaxed);
  s.frontend.evicted_slow =
      frontend.evicted_slow.load(std::memory_order_relaxed);
  s.frontend.evicted_idle =
      frontend.evicted_idle.load(std::memory_order_relaxed);
  s.frontend.evicted_oversize =
      frontend.evicted_oversize.load(std::memory_order_relaxed);
  s.frontend.rejected_conn_limit =
      frontend.rejected_conn_limit.load(std::memory_order_relaxed);
  s.frontend.shed_fd_pressure =
      frontend.shed_fd_pressure.load(std::memory_order_relaxed);
  s.frontend.auth_failures =
      frontend.auth_failures.load(std::memory_order_relaxed);
  s.frontend.active = frontend.active.load(std::memory_order_relaxed);
  return s;
}

bool Service::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void Service::begin_drain() {
  std::vector<std::shared_ptr<Job>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    all.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) all.push_back(job);
  }
  std::uint64_t newly_cancelled = 0;
  for (const auto& job : all) {
    bool was_queued = false;
    {
      std::lock_guard<std::mutex> lock(job->mu);
      if (job->state == JobState::Queued) {
        job->state = JobState::Cancelled;
        job->result.stop = runtime::StopReason::Cancelled;
        was_queued = true;
      } else if (job->state == JobState::Running) {
        // Fast jobs finish; budget-polled searches stop at the next
        // iteration and deliver (and checkpoint) best-so-far results.
        job->cancel.request_stop();
      }
    }
    if (was_queued) {
      job->cv.notify_all();
      job->progress.close(terminal_event_json(job->id, JobState::Cancelled,
                                              runtime::StopReason::Cancelled,
                                              /*error=*/""));
      ++newly_cancelled;
    }
  }
  if (newly_cancelled > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ += newly_cancelled;
    FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.cancelled", newly_cancelled);
  }
  work_cv_.notify_all();
}

void Service::shutdown() {
  begin_drain();
  bool join_here = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    if (!joined_) {
      joined_ = true;
      join_here = true;
    }
  }
  work_cv_.notify_all();
  if (join_here) {
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
  }
}

std::shared_ptr<Job> Service::pop_next_locked() {
  // Stride scheduling: serve the eligible tenant with the smallest pass,
  // then advance its pass by 1/weight. Ties keep the earliest-created
  // tenant (config order), so the schedule is fully deterministic.
  TenantState* best = nullptr;
  for (const auto& tsp : tenant_states_) {
    if (tsp->queue.empty()) continue;
    if (best == nullptr || tsp->pass < best->pass) best = tsp.get();
  }
  if (best == nullptr) return nullptr;
  std::shared_ptr<Job> job = best->queue.front();
  best->queue.pop_front();
  --total_queued_;
  global_pass_ = best->pass;
  best->pass += best->stride;
  return job;
}

void Service::worker_loop() {
  EvalWorkspace ws;  // reused across jobs; buffers grow to the largest plan
  mps::MpsWorkspace mws;  // MPS-engine jobs' per-worker state
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || total_queued_ > 0; });
      if (total_queued_ == 0) {
        if (stop_) return;
        continue;
      }
      job = pop_next_locked();
      if (job == nullptr) continue;
      TenantState& ts = tenant_state_locked(job->spec.tenant);
      ++running_;
      ++ts.running;
    }
    run_job(*job, ws, mws);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      TenantState& ts = tenant_state_locked(job->spec.tenant);
      --ts.running;
      --ts.inflight;
    }
    obs::merge_global(ws.metrics);
    ws.metrics.clear();
    obs::merge_global(mws.metrics);
    mws.metrics.clear();
  }
}

void Service::run_job(Job& job, EvalWorkspace& ws, mps::MpsWorkspace& mws) {
  {
    std::lock_guard<std::mutex> lock(job.mu);
    if (job.state != JobState::Queued) return;  // cancelled while queued
    job.state = JobState::Running;
  }
  const double queue_wait_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    job.enqueued_at)
          .count();
  FASTQAOA_TRACE_SPAN_ID("service.job", job.id);

  WallTimer timer;
  JobResultData out;
  JobState final_state = JobState::Done;
  std::string error;
  try {
    execute(job, ws, mws, out);
    if (out.stop == runtime::StopReason::Cancelled) {
      final_state = JobState::Cancelled;
    }
  } catch (const std::exception& e) {
    final_state = JobState::Failed;
    error = e.what();
  }
  out.seconds = timer.seconds();
  record_job_distributions(job.spec.kind, queue_wait_s, out.seconds);

  // Count the outcome *before* publishing the terminal state: a waiter
  // released by the notify below must already see consistent stats().
  {
    std::lock_guard<std::mutex> lock(mu_);
    TenantState& ts = tenant_state_locked(job.spec.tenant);
    switch (final_state) {
      case JobState::Done:
        ++completed_;
        ++ts.completed;
        FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.completed", 1);
        break;
      case JobState::Failed:
        ++failed_;
        FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.failed", 1);
        break;
      case JobState::Cancelled:
        ++cancelled_;
        FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.cancelled", 1);
        break;
      default:
        break;
    }
  }

  const runtime::StopReason final_stop = out.stop;
  const std::string terminal_line =
      terminal_event_json(job.id, final_state, final_stop, error);
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.result = std::move(out);
    job.error = std::move(error);
    job.state = final_state;
  }
  job.cv.notify_all();
  job.progress.close(terminal_line);
}

void Service::execute(Job& job, EvalWorkspace& ws, mps::MpsWorkspace& mws,
                      JobResultData& out) {
  const JobSpec& spec = job.spec;
  // Generated plans are keyed by the spec that generates them, so a hit
  // costs a short string hash; the tables are built only on a miss, inside
  // the single-flight builder (which also charges them to the entry).
  const std::string generator_tag = generator_cache_tag(spec.problem);
  const std::string engine_tag = engine_cache_tag(spec.problem);
  PlanKeyMaterial material;
  material.mixer_kind = spec.problem.mixer;
  material.n = spec.problem.n;
  material.k = spec.problem.effective_k();
  material.rounds = spec.p;
  material.engine = engine_tag;
  material.spec = generator_tag;

  bool built_here = false;
  const PlanHandle cached =
      cache_.get_or_build(material, spec.tenant, [&]() -> CachedPlan {
        built_here = true;
        WallTimer build_timer;
        CachedPlan entry;
        if (spec.problem.uses_mps()) {
          entry.mps_plan = std::make_shared<const mps::MpsPlan>(
              build_mps_hamiltonian(spec.problem), mps_options(spec.problem));
        } else {
          const StateSpace space = problem_space(spec.problem);
          entry.mixer = build_mixer(spec.problem, space, config_.cache_dir);
          entry.plan = std::make_shared<const QaoaPlan>(
              *entry.mixer, build_objective(spec.problem, space), spec.p);
        }
        FASTQAOA_OBS_HIST_GLOBAL("service.plan_cache.build_seconds",
                                 build_timer.seconds());
        return entry;
      });
  out.cache_hit = !built_here;
  out.mps = spec.problem.uses_mps();
  if (spec.kind == JobKind::FindAngles) {
    FindAnglesOptions opt;
    opt.direction = spec.minimize ? Direction::Minimize : Direction::Maximize;
    opt.seed = spec.opt_seed;
    opt.hopping.hops = spec.hops;
    opt.parallel_starts = spec.starts;
    opt.checkpoint_file = spec.checkpoint;
    opt.budget.wall_seconds = spec.deadline_seconds;
    opt.budget.max_evaluations = spec.max_evaluations;
    opt.budget.cancel = &job.cancel;
    // Per-round progress events for `subscribe`. on_round runs on this
    // worker thread, outside any parallel region; publish() never blocks
    // (slow subscribers drop their oldest events instead).
    WallTimer search_elapsed;
    opt.on_round = [&job, &search_elapsed](const AngleSchedule& s,
                                           double seconds) {
      Json ev = Json::object();
      ev.set("event", Json("round"));
      ev.set("id", Json(job.id));
      ev.set("p", Json(s.p));
      ev.set("best_energy", Json(s.expectation));
      ev.set("evals", Json(static_cast<std::uint64_t>(s.evaluations)));
      ev.set("optimizer_calls",
             Json(static_cast<std::uint64_t>(s.optimizer_calls)));
      ev.set("round_seconds", Json(seconds));
      ev.set("elapsed_seconds", Json(search_elapsed.seconds()));
      if (s.stop_reason != runtime::StopReason::None) {
        ev.set("stop_reason", Json(runtime::to_string(s.stop_reason)));
      }
      job.progress.publish(ev.dump());
    };
    out.schedules =
        spec.problem.uses_mps()
            ? find_angles(mps::MpsAngleEngine(*cached->mps_plan), spec.p, opt)
            : find_angles(*cached->mixer, cached->plan->objective(), spec.p,
                          opt);
    if (!out.schedules.empty()) {
      out.expectation = out.schedules.back().expectation;
      out.stop = out.schedules.back().stop_reason;
    }
    if (job.cancel.stop_requested()) out.stop = runtime::StopReason::Cancelled;
  }
  if (spec.problem.uses_mps()) {
    execute_mps(job, *cached->mps_plan, mws, out);
    return;
  }
  const QaoaPlan& plan = *cached->plan;

  switch (spec.kind) {
    case JobKind::Evaluate: {
      out.expectation = evaluate(plan, ws, spec.betas, spec.gammas);
      break;
    }
    case JobKind::BatchEvaluate: {
      // The whole sweep runs on this one worker (one admission decision
      // bought it), lane by lane through evaluate(), each lane charged as
      // one evaluation to the job's budget. A tripped deadline, max_evals
      // or cancel returns the lanes finished so far — always at least one —
      // flagged with the reason.
      runtime::RunBudget budget;
      budget.wall_seconds = spec.deadline_seconds;
      budget.max_evaluations = spec.max_evaluations;
      budget.cancel = &job.cancel;
      const runtime::BudgetTracker tracker(budget);
      const auto lanes = static_cast<std::size_t>(spec.lanes);
      const auto p = static_cast<std::size_t>(spec.p);  // angles per lane
      const std::span<const double> betas(spec.betas);
      const std::span<const double> gammas(spec.gammas);
      out.expectations.reserve(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        if (l > 0) {
          out.stop = tracker.check();
          if (out.stop != runtime::StopReason::None) break;
        }
        out.expectations.push_back(evaluate(
            plan, ws, betas.subspan(l * p, p), gammas.subspan(l * p, p)));
        tracker.add_evaluations(1);
      }
      // Headline expectation = the best finished lane under the requested
      // direction (first such lane on ties).
      out.expectation = out.expectations[0];
      for (const double e : out.expectations) {
        if (spec.minimize ? e < out.expectation : e > out.expectation) {
          out.expectation = e;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++batch_jobs_;
        batched_evals_ += out.expectations.size();
      }
      FASTQAOA_OBS_COUNT_GLOBAL("service.jobs.batched_evals",
                                out.expectations.size());
      FASTQAOA_OBS_HIST_GLOBAL("service.batch.width",
                               static_cast<double>(out.expectations.size()));
      break;
    }
    case JobKind::Gradient: {
      out.grad_betas.resize(spec.betas.size());
      out.grad_gammas.resize(spec.gammas.size());
      out.expectation = adjoint_value_and_gradient(
          plan, ws, spec.betas, spec.gammas, out.grad_betas, out.grad_gammas);
      break;
    }
    case JobKind::Sample: {
      out.expectation = evaluate(plan, ws, spec.betas, spec.gammas);
      // Sample the full-space distribution: a folded plan's state is
      // unfolded first, so the shot stream is the same as the full route's.
      cvec psi;
      unfold_state(plan, ws.psi, psi);
      MeasurementSampler sampler(psi);
      // Deterministic per-job shot stream: seeded from the spec, never from
      // worker identity, so results are worker-count invariant.
      Rng shot_rng(spec.opt_seed ^ 0xABCDEFULL);
      out.shot_estimate = sampler.estimate_expectation(plan.objective(),
                                                       spec.shots, shot_rng);
      out.shot_stderr = sampler.standard_error(plan.objective(), spec.shots);
      break;
    }
    case JobKind::FindAngles:
      break;  // searched above
  }
}

void Service::execute_mps(Job& job, const mps::MpsPlan& plan,
                          mps::MpsWorkspace& mws, JobResultData& out) {
  const JobSpec& spec = job.spec;
  if (spec.kind == JobKind::FindAngles) {
    // One extra evaluation of the winning schedule harvests the fidelity
    // proxy for the reported result (skipped when cancelled — a cancelled
    // search should not burn more worker time).
    if (out.schedules.empty() || job.cancel.stop_requested()) return;
    mws.tracker = nullptr;
    mps::evaluate(plan, mws, out.schedules.back().betas,
                  out.schedules.back().gammas);
  } else {
    FASTQAOA_CHECK(spec.kind == JobKind::Evaluate,
                   "engine 'mps' supports evaluate and find_angles only");
    runtime::RunBudget budget;
    budget.wall_seconds = spec.deadline_seconds;
    budget.max_evaluations = spec.max_evaluations;
    budget.cancel = &job.cancel;
    const runtime::BudgetTracker tracker(budget);
    mws.tracker = &tracker;
    out.expectation = mps::evaluate(plan, mws, spec.betas, spec.gammas);
    mws.tracker = nullptr;
    if (mws.interrupted) out.stop = tracker.check();
  }
  out.discarded_weight = mws.stats.discarded_weight;
  out.truncations = mws.stats.truncations;
  out.max_bond_reached = static_cast<std::uint64_t>(mws.stats.max_bond_reached);
}

}  // namespace fastqaoa::service
