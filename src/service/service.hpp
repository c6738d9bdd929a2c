#pragma once
/// \file service.hpp
/// The embeddable job service: fair-share queue + worker pool + plan cache.
///
/// This is the daemon's engine, usable without any socket: submit() either
/// admits a job (returning a shared record the caller can wait on, poll, or
/// cancel) or rejects it with a structured reason — "overloaded" once the
/// queue is at its high-water mark, "draining" once shutdown has begun,
/// "over_quota" (with a retry_after_ms hint) when the submitting tenant is
/// past its rate or concurrency quota. Rejection at admission is the
/// backpressure contract: the queue never grows without bound, and a client
/// that sees "overloaded"/"over_quota" knows to back off rather than time
/// out.
///
/// Scheduling is weighted fair share across tenants (stride scheduling):
/// each tenant owns a sub-queue, and workers always pull from the eligible
/// tenant with the smallest pass value, advancing it by 1/weight per job.
/// Over any busy window tenants therefore receive worker time proportional
/// to their configured weights — one tenant's grid sweep cannot starve the
/// others — while a single (or unconfigured) tenant degrades to plain FIFO,
/// exactly the old behavior. Scheduling order never affects job *results*:
/// every job is a pure function of its spec, so results stay worker-count
/// and schedule invariant.
///
/// Worker threads each own an EvalWorkspace and pull jobs off the queue;
/// plans come from the shared PlanCache (partitioned per tenant under the
/// global byte budget), so N workers evaluating the same problem share one
/// precomputation. Every job carries its own CancelToken and RunBudget,
/// threaded into the runtime layer, so long searches stop cooperatively —
/// cancellation and drain both return best-so-far results (checkpointed to
/// the job's checkpoint file, if it named one) instead of tearing anything
/// down.
///
/// Drain semantics (what SIGTERM maps to in the daemon): begin_drain()
/// rejects new work, cancels queued jobs, and trips the cancel token of
/// running ones; shutdown() additionally waits for workers to finish
/// delivering those results. Nothing in-flight is lost — a drained
/// find_angles job leaves a resumable checkpoint behind.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/budget.hpp"
#include "service/job.hpp"
#include "service/plan_cache.hpp"
#include "service/progress.hpp"
#include "service/tenant.hpp"

namespace fastqaoa::service {

struct ServiceConfig {
  int workers = 2;
  /// Admission high-water mark: jobs *waiting* in the queue (not the ones
  /// already running), summed across all tenant sub-queues. A submit that
  /// would push the depth past this is rejected with "overloaded".
  std::size_t queue_high_water = 64;
  /// PlanCache byte budget (0 = unlimited).
  std::size_t cache_bytes = 0;
  /// Disk tier for expensive mixers ("" = memory only).
  std::string cache_dir;
  /// Per-subscriber progress event queue bound (`subscribe` verb). When a
  /// slow subscriber's queue is full its oldest event is dropped (and
  /// counted) rather than ever blocking the publishing worker.
  std::size_t subscriber_queue_cap = 256;
  /// Configured tenants (empty = multi-tenancy off: every submit maps to
  /// one default tenant with no quotas, and the daemon requires no keys).
  std::vector<TenantConfig> tenants;
};

/// One job's shared record. The service and the submitting client both hold
/// a shared_ptr; `mu`/`cv` guard state/result/error.
class Job {
 public:
  std::uint64_t id = 0;
  JobSpec spec;
  runtime::CancelToken cancel;
  /// Per-round progress fan-out for `subscribe`/`watch`. The worker
  /// publishes round events while the job runs and closes the channel with
  /// the terminal event; every terminal path (including cancelled-while-
  /// queued) closes it, so a watcher never hangs.
  ProgressChannel progress;
  /// When the job entered the queue (queue-wait histogram).
  std::chrono::steady_clock::time_point enqueued_at{};

  mutable std::mutex mu;
  std::condition_variable cv;
  JobState state = JobState::Queued;  // guarded by mu
  JobResultData result;               // stable once state is terminal
  std::string error;                  // set when state == Failed

  [[nodiscard]] JobState snapshot_state() const {
    std::lock_guard<std::mutex> lock(mu);
    return state;
  }
  [[nodiscard]] bool terminal() const {
    const JobState s = snapshot_state();
    return s == JobState::Done || s == JobState::Failed ||
           s == JobState::Cancelled;
  }
};

/// Always-on connection counters for the daemon's event-loop front end.
/// Lives on the Service (one instance per daemon) so the `metrics` and
/// `stats` verbs can render it regardless of FASTQAOA_PROFILING; the server
/// is the only writer, readers snapshot relaxed loads.
struct FrontendStats {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> evicted_slow{0};      ///< write-stall eviction
  std::atomic<std::uint64_t> evicted_idle{0};      ///< idle-timeout eviction
  std::atomic<std::uint64_t> evicted_oversize{0};  ///< request line too long
  std::atomic<std::uint64_t> rejected_conn_limit{0};
  std::atomic<std::uint64_t> shed_fd_pressure{0};  ///< EMFILE/ENFILE shed
  std::atomic<std::uint64_t> auth_failures{0};
  std::atomic<std::uint64_t> active{0};  ///< open connections right now
};

struct ServiceStats {
  std::size_t queue_depth = 0;
  std::size_t running = 0;
  int workers = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;
  /// over_quota rejections (also included in `rejected`).
  std::uint64_t over_quota = 0;
  /// batch_evaluate accounting: jobs completed and total lanes they swept.
  /// Without a deadline or cancellation both are pure functions of the
  /// submitted specs (one count per finished batch job, its lanes capped by
  /// max_evals), so they are worker-count invariant — the same job set
  /// reports the same totals on any pool size.
  std::uint64_t batch_jobs = 0;
  std::uint64_t batched_evals = 0;
  /// Progress events dropped across all subscribers because a slow
  /// `subscribe` client fell behind its bounded queue. Always counted
  /// (product behavior, independent of FASTQAOA_PROFILING).
  std::uint64_t subscribe_dropped = 0;
  bool draining = false;
  PlanCache::Stats plan_cache;

  /// Queue depth observed at each admission (always-on histogram, so the
  /// Prometheus export carries depth quantiles without profiling builds).
  obs::HistogramStat queue_depth_hist;

  /// Per-tenant accounting. Populated for every tenant that was configured
  /// or has submitted work; the default tenant reports as "default".
  struct TenantStats {
    std::string name;
    double weight = 1.0;
    std::size_t queued = 0;
    std::size_t running = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t over_quota = 0;
  };
  std::vector<TenantStats> tenants;

  /// Snapshot of the daemon front end's connection counters.
  struct FrontendSnapshot {
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t evicted_slow = 0;
    std::uint64_t evicted_idle = 0;
    std::uint64_t evicted_oversize = 0;
    std::uint64_t rejected_conn_limit = 0;
    std::uint64_t shed_fd_pressure = 0;
    std::uint64_t auth_failures = 0;
    std::uint64_t active = 0;
  };
  FrontendSnapshot frontend;
};

class Service {
 public:
  explicit Service(ServiceConfig config = {});
  ~Service();  // shutdown()
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  struct SubmitOutcome {
    std::shared_ptr<Job> job;  ///< null when rejected
    std::string error_code;    ///< "", "overloaded", "draining", "over_quota"
    std::size_t queue_depth = 0;
    /// For "over_quota": how long the client should wait before retrying
    /// (token-bucket refill estimate, or a fixed hint for concurrency
    /// quotas). 0 otherwise.
    int retry_after_ms = 0;
    [[nodiscard]] bool accepted() const noexcept { return job != nullptr; }
  };

  /// Validate and enqueue under the fair-share queue of `spec.tenant`.
  /// Throws fastqaoa::Error on an invalid spec; returns a rejection (never
  /// throws) on backpressure, drain, or a tenant quota.
  SubmitOutcome submit(JobSpec spec);

  /// Look up a job by id (nullptr if unknown). Records are kept for the
  /// lifetime of the service so status queries never race completion.
  [[nodiscard]] std::shared_ptr<Job> find(std::uint64_t id) const;

  /// Cancel: a queued job is cancelled immediately; a running job has its
  /// token tripped (it finishes as soon as the runtime layer polls it).
  /// Returns false for unknown or already-terminal jobs.
  bool cancel(std::uint64_t id);

  /// Block until the job reaches a terminal state.
  static void wait(Job& job);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] bool draining() const;

  /// The configured tenant table (empty/disabled when multi-tenancy off).
  [[nodiscard]] const TenantRegistry& tenant_registry() const noexcept {
    return registry_;
  }

  /// Stop admitting work; cancel queued jobs and trip running ones.
  void begin_drain();

  /// begin_drain() + wait for workers to deliver every in-flight result,
  /// then join the pool. Idempotent.
  void shutdown();

  /// Daemon front-end counters (see FrontendStats). Written by the event
  /// loop, rendered by the protocol layer.
  FrontendStats frontend;

 private:
  /// One tenant's scheduling state. Guarded by mu_.
  struct TenantState {
    TenantConfig cfg;
    std::deque<std::shared_ptr<Job>> queue;
    double pass = 0.0;    ///< stride-scheduling virtual time
    double stride = 1.0;  ///< 1 / weight
    std::size_t running = 0;
    std::size_t inflight = 0;  ///< queued + running
    double tokens = 0.0;       ///< rate-limit token bucket
    std::chrono::steady_clock::time_point last_refill{};
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t over_quota = 0;
  };

  TenantState& tenant_state_locked(const std::string& name);
  std::shared_ptr<Job> pop_next_locked();
  void worker_loop();
  void run_job(Job& job, EvalWorkspace& ws, mps::MpsWorkspace& mws);
  void execute(Job& job, EvalWorkspace& ws, mps::MpsWorkspace& mws,
               JobResultData& out);
  /// The MPS-specific tail of execute(): an evaluate, or the truncation
  /// stats of a finished search's winning schedule.
  void execute_mps(Job& job, const mps::MpsPlan& plan, mps::MpsWorkspace& mws,
                   JobResultData& out);

  ServiceConfig config_;
  TenantRegistry registry_;
  PlanCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  /// Tenant sub-queues, index 0 = the default ("") tenant; order is stable
  /// (config order, then first-seen order) so scheduling ties break
  /// deterministically.
  std::vector<std::unique_ptr<TenantState>> tenant_states_;
  std::unordered_map<std::string, std::size_t> tenant_index_;
  std::size_t total_queued_ = 0;
  double global_pass_ = 0.0;
  obs::HistogramStat queue_depth_hist_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;
  std::size_t running_ = 0;
  bool draining_ = false;
  bool stop_ = false;
  bool joined_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t over_quota_ = 0;
  std::uint64_t batch_jobs_ = 0;
  std::uint64_t batched_evals_ = 0;
  std::atomic<std::uint64_t> subscribe_dropped_{0};

  std::vector<std::thread> workers_;
};

}  // namespace fastqaoa::service
