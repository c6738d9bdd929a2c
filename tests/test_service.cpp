// Tests for the src/service/ job-service layer: the JSON codec, plan-cache
// keying and eviction, the worker pool's determinism and backpressure, the
// protocol dispatcher, and the daemon end to end.
//
// Naming is load-bearing for CI: ServiceConcurrency.* and PlanCache.* run
// under ThreadSanitizer (pure std::thread concurrency, no fork); the
// DaemonE2E.* tests fork() a real daemon and are excluded from the TSan
// filter. gtest_discover_tests runs each TEST in its own process, so every
// fork happens before this process enters an OpenMP region.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anglefind/strategies.hpp"
#include "autodiff/adjoint.hpp"
#include "common/alloc.hpp"
#include "common/error.hpp"
#include "core/plan.hpp"
#include "io/serialize.hpp"
#include "obs/prometheus.hpp"
#include "service/client.hpp"
#include "service/job.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/plan_cache.hpp"
#include "service/progress.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"

namespace fastqaoa::service {
namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("fastqaoa_service_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

TEST(ServiceJson, RoundTripsScalarsExactly) {
  const Json parsed = Json::parse(
      R"({"a":1,"b":-2.5,"c":true,"d":null,"e":"x\n\"y\"","f":[1,2,3]})");
  EXPECT_EQ(parsed.at("a").as_int64(), 1);
  EXPECT_DOUBLE_EQ(parsed.at("b").as_double(), -2.5);
  EXPECT_TRUE(parsed.at("c").as_bool());
  EXPECT_TRUE(parsed.at("d").is_null());
  EXPECT_EQ(parsed.at("e").as_string(), "x\n\"y\"");
  EXPECT_EQ(parsed.at("f").size(), 3u);

  // dump → parse is lossless, including doubles with no short decimal form.
  const double awkward = 0.1 + 0.2;
  Json obj = Json::object();
  obj.set("v", Json(awkward));
  obj.set("big", Json(static_cast<std::uint64_t>(1234567890123456789ULL)));
  const Json back = Json::parse(obj.dump());
  EXPECT_EQ(back.at("v").as_double(), awkward);  // bit-identical
  EXPECT_EQ(back.at("big").as_uint64(), 1234567890123456789ULL);
}

TEST(ServiceJson, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), Error);
  EXPECT_THROW(Json::parse("[1 2]"), Error);
  EXPECT_THROW(Json::parse(""), Error);
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  EXPECT_THROW(Json::parse(deep), Error);  // depth guard
}

TEST(ServiceJson, UnicodeEscapes) {
  const Json j = Json::parse(R"("ABé")");
  EXPECT_EQ(j.as_string(), "AB\xc3\xa9");
}

// ---------------------------------------------------------------------------
// Plan fingerprinting and the cache
// ---------------------------------------------------------------------------

PlanKeyMaterial material_for(const ProblemSpec& spec, int p,
                             std::span<const double> obj) {
  PlanKeyMaterial m;
  m.mixer_kind = spec.mixer;
  m.n = spec.n;
  m.k = spec.effective_k();
  m.rounds = p;
  m.obj_vals = obj;
  return m;
}

/// Build-or-fetch through the cache keyed by table content, the way a
/// library caller that brings its own tables does (the service keys by spec
/// instead, and tabulates only on a miss).
PlanHandle cache_plan(PlanCache& cache, const ProblemSpec& spec, int p,
                      int* builds = nullptr) {
  const StateSpace space = problem_space(spec);
  dvec obj = build_objective(spec, space);
  return cache.get_or_build(material_for(spec, p, obj), [&]() -> CachedPlan {
    if (builds != nullptr) ++*builds;
    CachedPlan entry;
    entry.mixer = build_mixer(spec, space);
    entry.plan =
        std::make_shared<const QaoaPlan>(*entry.mixer, std::move(obj), p);
    return entry;
  });
}

TEST(PlanCache, FingerprintSeparatesEveryKeyField) {
  const dvec obj = {1.0, 2.0, 3.0, 4.0};
  const dvec obj2 = {1.0, 2.0, 3.0, 5.0};
  const dvec phase = {0.5, 0.5, 0.5, 0.5};
  const cvec psi0 = {cplx{0.5, 0.0}, cplx{0.5, 0.0}, cplx{0.5, 0.0},
                     cplx{0.5, 0.0}};

  PlanKeyMaterial base;
  base.mixer_kind = "tf";
  base.n = 2;
  base.k = -1;
  base.rounds = 1;
  base.obj_vals = obj;
  const std::uint64_t fp = plan_fingerprint(base);

  // Identical material (even via a different allocation) → same key.
  const dvec obj_copy = obj;
  PlanKeyMaterial same = base;
  same.obj_vals = obj_copy;
  EXPECT_EQ(plan_fingerprint(same), fp);

  PlanKeyMaterial m = base;
  m.mixer_kind = "grover";
  EXPECT_NE(plan_fingerprint(m), fp);
  m = base;
  m.n = 3;
  EXPECT_NE(plan_fingerprint(m), fp);
  m = base;
  m.k = 1;
  EXPECT_NE(plan_fingerprint(m), fp);
  m = base;
  m.rounds = 2;
  EXPECT_NE(plan_fingerprint(m), fp);
  m = base;
  m.obj_vals = obj2;
  EXPECT_NE(plan_fingerprint(m), fp);
  m = base;
  m.phase_values = phase;
  EXPECT_NE(plan_fingerprint(m), fp);
  m = base;
  m.initial_state = psi0;
  EXPECT_NE(plan_fingerprint(m), fp);

  // A phase table equal to the objective still keys differently from "no
  // phase table" — threshold-QAOA plans must not collide with plain ones.
  m = base;
  m.phase_values = obj;
  EXPECT_NE(plan_fingerprint(m), fp);
}

TEST(PlanCache, EqualTablesShareOneEntry) {
  PlanCache cache;
  ProblemSpec spec;  // maxcut/tf n=8 seed=42
  int builds = 0;
  const PlanHandle a = cache_plan(cache, spec, 2, &builds);
  const PlanHandle b = cache_plan(cache, spec, 2, &builds);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->plan.get(), b->plan.get());
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(PlanCache, DistinctSpecsDoNotCollide) {
  PlanCache cache;
  int builds = 0;
  ProblemSpec spec;
  cache_plan(cache, spec, 2, &builds);
  cache_plan(cache, spec, 3, &builds);  // different p
  ProblemSpec grover = spec;
  grover.mixer = "grover";
  cache_plan(cache, grover, 2, &builds);  // different mixer kind
  ProblemSpec other = spec;
  other.instance_seed = 43;
  cache_plan(cache, other, 2, &builds);  // different table contents
  EXPECT_EQ(builds, 4);
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(PlanCache, EvictsLruUnderByteBudget) {
  // Measure one entry's tracked footprint first, then budget for two.
  std::size_t entry_bytes = 0;
  {
    PlanCache probe;
    ProblemSpec spec;
    cache_plan(probe, spec, 1);
    entry_bytes = probe.stats().bytes;
  }
  ASSERT_GT(entry_bytes, 0u);

  PlanCache cache(PlanCache::Config{entry_bytes * 2 + entry_bytes / 2});
  ProblemSpec spec;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ProblemSpec s = spec;
    s.instance_seed = seed;
    cache_plan(cache, s, 1);  // handle dropped immediately → evictable
  }
  const PlanCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_LE(stats.entries, 2u);
  EXPECT_LE(stats.bytes, entry_bytes * 2 + entry_bytes / 2);

  // The oldest entry is gone: asking for it again rebuilds.
  int builds = 0;
  ProblemSpec first = spec;
  first.instance_seed = 1;
  cache_plan(cache, first, 1, &builds);
  EXPECT_EQ(builds, 1);
}

TEST(PlanCache, NeverEvictsPinnedEntries) {
  PlanCache cache(PlanCache::Config{1});  // everything is over budget
  ProblemSpec spec;
  const PlanHandle pinned = cache_plan(cache, spec, 1);  // held → live job

  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    ProblemSpec s = spec;
    s.instance_seed = seed;
    cache_plan(cache, s, 1);
  }
  // The pinned entry survived every eviction pass: refetching is a pure
  // hit, not a rebuild.
  int builds = 0;
  const PlanHandle again = cache_plan(cache, spec, 1, &builds);
  EXPECT_EQ(builds, 0);
  EXPECT_EQ(again.get(), pinned.get());
  EXPECT_GE(cache.stats().evictions, 1u);
}

/// Build-or-fetch charged to a tenant partition, as Service::execute does
/// for configured tenants.
PlanHandle cache_plan_for(PlanCache& cache, const std::string& partition,
                          const ProblemSpec& spec, int p,
                          int* builds = nullptr) {
  const StateSpace space = problem_space(spec);
  dvec obj = build_objective(spec, space);
  return cache.get_or_build(
      material_for(spec, p, obj), partition, [&]() -> CachedPlan {
        if (builds != nullptr) ++*builds;
        CachedPlan entry;
        entry.mixer = build_mixer(spec, space);
        entry.plan =
            std::make_shared<const QaoaPlan>(*entry.mixer, std::move(obj), p);
        return entry;
      });
}

TEST(PlanCache, PartitionBudgetsIsolateTenantChurn) {
  // Measure one entry's tracked footprint first.
  std::size_t entry_bytes = 0;
  {
    PlanCache probe;
    ProblemSpec spec;
    cache_plan(probe, spec, 1);
    entry_bytes = probe.stats().bytes;
  }
  ASSERT_GT(entry_bytes, 0u);

  PlanCache cache;  // no global budget: only partitions constrain
  cache.set_partition_budget("acme", entry_bytes + entry_bytes / 2);
  cache.set_partition_budget("widgets", entry_bytes + entry_bytes / 2);

  ProblemSpec spec;
  cache_plan_for(cache, "acme", spec, 1);  // acme's one resident plan

  // widgets churns through many distinct plans; its one-entry budget
  // evicts its own LRU entries but must never touch acme's partition.
  for (std::uint64_t seed = 2; seed <= 6; ++seed) {
    ProblemSpec s = spec;
    s.instance_seed = seed;
    cache_plan_for(cache, "widgets", s, 1);
  }

  const PlanCache::Stats stats = cache.stats();
  const auto acme = stats.partitions.find("acme");
  const auto widgets = stats.partitions.find("widgets");
  ASSERT_NE(acme, stats.partitions.end());
  ASSERT_NE(widgets, stats.partitions.end());
  EXPECT_EQ(acme->second.entries, 1u);
  EXPECT_EQ(acme->second.evictions, 0u);
  EXPECT_GE(widgets->second.evictions, 3u);
  EXPECT_LE(widgets->second.entries, 1u);

  // acme's plan survived the churn: refetching is a hit, not a rebuild.
  int builds = 0;
  cache_plan_for(cache, "acme", spec, 1, &builds);
  EXPECT_EQ(builds, 0);

  // Content hits stay cross-partition: widgets asking for acme's plan is
  // served from acme's partition without a second build or double charge.
  builds = 0;
  cache_plan_for(cache, "widgets", spec, 1, &builds);
  EXPECT_EQ(builds, 0);
  EXPECT_EQ(cache.stats().partitions.at("acme").entries, 1u);
}

// ---------------------------------------------------------------------------
// Service: determinism, caching, backpressure, cancellation
// ---------------------------------------------------------------------------

JobSpec evaluate_spec(int p = 2) {
  JobSpec spec;
  spec.kind = JobKind::Evaluate;
  spec.p = p;
  spec.betas.assign(static_cast<std::size_t>(p), 0.17);
  spec.gammas.assign(static_cast<std::size_t>(p), 0.41);
  return spec;
}

/// The same computation Service::execute runs, performed directly against
/// the library — the reference for bit-identical comparisons.
double direct_evaluate(const JobSpec& spec) {
  const StateSpace space = problem_space(spec.problem);
  dvec obj = build_objective(spec.problem, space);
  const std::unique_ptr<const Mixer> mixer = build_mixer(spec.problem, space);
  const QaoaPlan plan(*mixer, std::move(obj), spec.p);
  EvalWorkspace ws;
  return evaluate(plan, ws, spec.betas, spec.gammas);
}

TEST(ServiceEvaluate, BitIdenticalToDirectCallAndCached) {
  const JobSpec spec = evaluate_spec();
  const double expected = direct_evaluate(spec);

  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  constexpr int kJobs = 5;
  for (int i = 0; i < kJobs; ++i) {
    Service::SubmitOutcome outcome = service.submit(spec);
    ASSERT_TRUE(outcome.accepted());
    Service::wait(*outcome.job);
    EXPECT_EQ(outcome.job->snapshot_state(), JobState::Done);
    EXPECT_EQ(outcome.job->result.expectation, expected);  // exact
    EXPECT_EQ(outcome.job->result.cache_hit, i > 0);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.plan_cache.hits, static_cast<std::uint64_t>(kJobs - 1));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kJobs));
}

TEST(ServiceEvaluate, CacheEntryChargesEveryTableItsPlanHolds) {
  JobSpec spec = evaluate_spec();
  spec.problem.n = 16;

  // The footprint of the same entry built by hand: everything that stays
  // allocated while the objective (moved into the plan), the mixer and the
  // plan are alive.
  std::size_t footprint = 0;
  {
    const StateSpace space = problem_space(spec.problem);
    const std::size_t before = MemoryTracker::current_bytes();
    dvec obj = build_objective(spec.problem, space);
    const std::unique_ptr<const Mixer> mixer =
        build_mixer(spec.problem, space);
    const QaoaPlan plan(*mixer, std::move(obj), spec.p);
    footprint = MemoryTracker::current_bytes() - before;
    ASSERT_GE(footprint,
              tracked_alloc_bytes(plan.objective().size() * sizeof(double)) +
                  tracked_alloc_bytes(plan.initial_state().size() *
                                      sizeof(cplx)));
  }

  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  Service::SubmitOutcome outcome = service.submit(spec);
  ASSERT_TRUE(outcome.accepted());
  Service::wait(*outcome.job);
  ASSERT_EQ(outcome.job->snapshot_state(), JobState::Done);
  const PlanCache::Stats stats = service.stats().plan_cache;
  ASSERT_EQ(stats.entries, 1u);
  // The cost table is charged too, so --cache-bytes bounds what the cache
  // really holds.
  EXPECT_GE(stats.bytes, footprint);
}

TEST(ServiceEvaluate, CacheHitAllocatesNoCostTable) {
  JobSpec spec = evaluate_spec();
  spec.problem.n = 16;
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  const auto run = [&service, &spec] {
    Service::SubmitOutcome outcome = service.submit(spec);
    EXPECT_TRUE(outcome.accepted());
    Service::wait(*outcome.job);
    EXPECT_EQ(outcome.job->snapshot_state(), JobState::Done);
    return outcome.job->result;
  };
  const JobResultData miss = run();  // builds the plan, sizes the workspace
  ASSERT_FALSE(miss.cache_hit);

  const std::size_t before = MemoryTracker::current_bytes();
  MemoryTracker::reset_peak();
  const JobResultData hit = run();
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.expectation, miss.expectation);
  const std::size_t table = tracked_alloc_bytes((std::size_t{1} << 16) *
                                                sizeof(double));
  EXPECT_LT(MemoryTracker::peak_bytes() - before, table);
}

TEST(ServiceEvaluate, RejectsInvalidSpecsWithThrow) {
  Service service;
  JobSpec bad = evaluate_spec();
  bad.betas.pop_back();  // size != p
  EXPECT_THROW(service.submit(bad), Error);
  JobSpec bad_problem = evaluate_spec();
  bad_problem.problem.problem = "nonsense";
  EXPECT_THROW(service.submit(bad_problem), Error);
  EXPECT_EQ(service.stats().submitted, 0u);
}

std::vector<JobSpec> mixed_batch() {
  std::vector<JobSpec> batch;
  for (std::uint64_t seed : {7ULL, 8ULL}) {
    JobSpec ev = evaluate_spec();
    ev.problem.instance_seed = seed;
    batch.push_back(ev);

    JobSpec grad = evaluate_spec();
    grad.kind = JobKind::Gradient;
    grad.problem.instance_seed = seed;
    batch.push_back(grad);

    JobSpec sample = evaluate_spec();
    sample.kind = JobKind::Sample;
    sample.problem.instance_seed = seed;
    sample.shots = 256;
    sample.opt_seed = 99 + seed;
    batch.push_back(sample);

    JobSpec fa;
    fa.kind = JobKind::FindAngles;
    fa.problem.n = 6;
    fa.problem.instance_seed = seed;
    fa.p = 2;
    fa.hops = 3;
    batch.push_back(fa);

    JobSpec sweep = evaluate_spec();
    sweep.kind = JobKind::BatchEvaluate;
    sweep.problem.instance_seed = seed;
    sweep.lanes = 3;
    sweep.betas.clear();
    sweep.gammas.clear();
    for (int lane = 0; lane < sweep.lanes; ++lane) {
      for (int r = 0; r < sweep.p; ++r) {
        sweep.betas.push_back(0.1 + 0.2 * lane);
        sweep.gammas.push_back(0.3 + 0.1 * lane);
      }
    }
    batch.push_back(sweep);
  }
  return batch;
}

std::vector<JobResultData> run_batch(int workers) {
  ServiceConfig config;
  config.workers = workers;
  Service service(config);
  std::vector<std::shared_ptr<Job>> jobs;
  for (const JobSpec& spec : mixed_batch()) {
    Service::SubmitOutcome outcome = service.submit(spec);
    EXPECT_TRUE(outcome.accepted());
    jobs.push_back(outcome.job);
  }
  std::vector<JobResultData> results;
  for (const auto& job : jobs) {
    Service::wait(*job);
    EXPECT_EQ(job->snapshot_state(), JobState::Done);
    results.push_back(job->result);
  }
  return results;
}

TEST(ServiceBatchEvaluate, LanesMatchIndividualJobsAndStatsCount) {
  // One batch_evaluate job must report, per lane, the exact double an
  // individual evaluate job computes for the same angles — and the stats
  // verb's batch counters must reflect the sweep (worker-count invariant:
  // they are pure functions of the submitted specs).
  for (const int workers : {1, 4}) {
    ServiceConfig config;
    config.workers = workers;
    Service service(config);

    JobSpec sweep = evaluate_spec();
    sweep.kind = JobKind::BatchEvaluate;
    sweep.lanes = 4;
    sweep.betas.clear();
    sweep.gammas.clear();
    for (int lane = 0; lane < sweep.lanes; ++lane) {
      for (int r = 0; r < sweep.p; ++r) {
        sweep.betas.push_back(0.05 + 0.15 * lane);
        sweep.gammas.push_back(0.25 + 0.1 * lane);
      }
    }
    Service::SubmitOutcome outcome = service.submit(sweep);
    ASSERT_TRUE(outcome.accepted());
    Service::wait(*outcome.job);
    ASSERT_EQ(outcome.job->snapshot_state(), JobState::Done);
    const JobResultData& result = outcome.job->result;
    ASSERT_EQ(result.expectations.size(), 4u);

    const auto sp = static_cast<std::size_t>(sweep.p);
    for (int lane = 0; lane < sweep.lanes; ++lane) {
      JobSpec single = evaluate_spec();
      const auto offset = static_cast<std::size_t>(lane) * sp;
      single.betas.assign(sweep.betas.begin() + offset,
                          sweep.betas.begin() + offset + sp);
      single.gammas.assign(sweep.gammas.begin() + offset,
                           sweep.gammas.begin() + offset + sp);
      Service::SubmitOutcome one = service.submit(single);
      ASSERT_TRUE(one.accepted());
      Service::wait(*one.job);
      EXPECT_EQ(one.job->result.expectation,
                result.expectations[static_cast<std::size_t>(lane)])
          << "lane " << lane << " workers " << workers;
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batch_jobs, 1u) << "workers " << workers;
    EXPECT_EQ(stats.batched_evals, 4u) << "workers " << workers;
  }
}

TEST(ServiceBatchEvaluate, MaxEvalsStopsAfterFinishedLanes) {
  // batch_evaluate honours its budget like evaluate and find_angles: each
  // lane is one evaluation, and a tripped max_evals returns the lanes
  // finished so far, flagged with the reason.
  ServiceConfig config;
  config.workers = 1;
  Service service(config);

  JobSpec sweep = evaluate_spec();
  sweep.kind = JobKind::BatchEvaluate;
  sweep.lanes = 16;
  sweep.betas.clear();
  sweep.gammas.clear();
  for (int lane = 0; lane < sweep.lanes; ++lane) {
    for (int r = 0; r < sweep.p; ++r) {
      sweep.betas.push_back(0.05 + 0.07 * lane + 0.01 * r);
      sweep.gammas.push_back(0.25 + 0.05 * lane - 0.02 * r);
    }
  }
  const Json full = Json::parse(
      handle_request_line(service, job_spec_to_json(sweep).dump()));
  ASSERT_TRUE(full.at("ok").as_bool()) << full.dump();
  EXPECT_EQ(full.at("result").at("lanes").as_int64(), 16);
  EXPECT_EQ(full.at("result").at("stop_reason").as_string(), "none");

  JobSpec bounded = sweep;
  bounded.max_evaluations = 3;
  const Json request = job_spec_to_json(bounded);
  ASSERT_NE(request.find("max_evals"), nullptr) << request.dump();
  const Json cut = Json::parse(handle_request_line(service, request.dump()));
  ASSERT_TRUE(cut.at("ok").as_bool()) << cut.dump();
  EXPECT_EQ(cut.at("state").as_string(), "done");
  const Json& result = cut.at("result");
  EXPECT_EQ(result.at("lanes").as_int64(), 3);
  EXPECT_EQ(result.at("stop_reason").as_string(), "max-evaluations");
  const Json& got = result.at("expectations");
  const Json& want = full.at("result").at("expectations");
  ASSERT_EQ(got.size(), 3u);
  double best = got.as_array()[0].as_double();
  for (std::size_t lane = 0; lane < 3; ++lane) {
    const double e = got.as_array()[lane].as_double();
    const double w = want.as_array()[lane].as_double();
    EXPECT_EQ(std::memcmp(&e, &w, sizeof(double)), 0) << "lane " << lane;
    best = std::max(best, e);
  }
  EXPECT_EQ(result.at("expectation").as_double(), best);
}

TEST(ServiceConcurrency, ResultsAreWorkerCountInvariant) {
  const std::vector<JobResultData> one = run_batch(1);
  const std::vector<JobResultData> four = run_batch(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].expectation, four[i].expectation) << "job " << i;
    EXPECT_EQ(one[i].expectations, four[i].expectations) << "job " << i;
    EXPECT_EQ(one[i].grad_betas, four[i].grad_betas) << "job " << i;
    EXPECT_EQ(one[i].grad_gammas, four[i].grad_gammas) << "job " << i;
    EXPECT_EQ(one[i].shot_estimate, four[i].shot_estimate) << "job " << i;
    EXPECT_EQ(one[i].shot_stderr, four[i].shot_stderr) << "job " << i;
    ASSERT_EQ(one[i].schedules.size(), four[i].schedules.size());
    for (std::size_t r = 0; r < one[i].schedules.size(); ++r) {
      EXPECT_EQ(one[i].schedules[r].expectation,
                four[i].schedules[r].expectation);
      EXPECT_EQ(one[i].schedules[r].betas, four[i].schedules[r].betas);
      EXPECT_EQ(one[i].schedules[r].gammas, four[i].schedules[r].gammas);
    }
  }
}

TEST(ServiceConcurrency, ColdSpecBuildsOnce) {
  // Tabulation runs inside the cache's single-flight builder: sixteen
  // concurrent submits of one cold spec build its plan exactly once.
  JobSpec spec = evaluate_spec();
  spec.problem.n = 12;
  const double expected = direct_evaluate(spec);

  ServiceConfig config;
  config.workers = 4;
  Service service(config);
  constexpr int kSubmits = 16;
  std::vector<std::shared_ptr<Job>> jobs(kSubmits);
  std::vector<std::thread> submitters;
  for (int i = 0; i < kSubmits; ++i) {
    submitters.emplace_back([&service, &spec, &jobs, i] {
      Service::SubmitOutcome outcome = service.submit(spec);
      EXPECT_TRUE(outcome.accepted());
      jobs[static_cast<std::size_t>(i)] = outcome.job;
    });
  }
  for (std::thread& t : submitters) t.join();

  int hits = 0;
  for (const auto& job : jobs) {
    ASSERT_NE(job, nullptr);
    Service::wait(*job);
    ASSERT_EQ(job->snapshot_state(), JobState::Done);
    EXPECT_EQ(job->result.expectation, expected);  // bit-identical
    hits += job->result.cache_hit ? 1 : 0;
  }
  EXPECT_EQ(hits, kSubmits - 1);
  const PlanCache::Stats stats = service.stats().plan_cache;
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kSubmits - 1));
  EXPECT_EQ(stats.entries, 1u);
}

JobSpec slow_find_angles(std::uint64_t seed = 1) {
  JobSpec spec;
  spec.kind = JobKind::FindAngles;
  spec.problem.n = 12;
  spec.problem.instance_seed = seed;
  spec.p = 8;
  spec.hops = 40;
  return spec;
}

void wait_until_running(const Job& job) {
  while (job.snapshot_state() == JobState::Queued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServiceConcurrency, OverloadedPastHighWaterMark) {
  ServiceConfig config;
  config.workers = 1;
  config.queue_high_water = 1;
  Service service(config);

  Service::SubmitOutcome running = service.submit(slow_find_angles(1));
  ASSERT_TRUE(running.accepted());
  wait_until_running(*running.job);  // worker occupied, queue empty

  Service::SubmitOutcome queued = service.submit(slow_find_angles(2));
  ASSERT_TRUE(queued.accepted());

  Service::SubmitOutcome rejected = service.submit(slow_find_angles(3));
  EXPECT_FALSE(rejected.accepted());
  EXPECT_EQ(rejected.error_code, "overloaded");
  EXPECT_EQ(rejected.queue_depth, 1u);
  EXPECT_EQ(service.stats().rejected, 1u);

  // Cancel both so teardown is quick; the running job stops cooperatively.
  EXPECT_TRUE(service.cancel(running.job->id));
  EXPECT_TRUE(service.cancel(queued.job->id));
  Service::wait(*running.job);
  Service::wait(*queued.job);
  EXPECT_EQ(queued.job->snapshot_state(), JobState::Cancelled);
  EXPECT_EQ(running.job->snapshot_state(), JobState::Cancelled);
}

TEST(ServiceConcurrency, CancelRunningJobStopsCooperatively) {
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  Service::SubmitOutcome outcome = service.submit(slow_find_angles());
  ASSERT_TRUE(outcome.accepted());
  wait_until_running(*outcome.job);
  ASSERT_TRUE(service.cancel(outcome.job->id));
  Service::wait(*outcome.job);
  EXPECT_EQ(outcome.job->snapshot_state(), JobState::Cancelled);
  EXPECT_EQ(outcome.job->result.stop, runtime::StopReason::Cancelled);
  EXPECT_EQ(service.stats().cancelled, 1u);
  // Cancelling a terminal job is a no-op.
  EXPECT_FALSE(service.cancel(outcome.job->id));
}

TEST(ServiceConcurrency, DrainRejectsNewWorkAndDeliversInFlight) {
  ServiceConfig config;
  config.workers = 2;
  Service service(config);
  Service::SubmitOutcome a = service.submit(slow_find_angles(1));
  Service::SubmitOutcome b = service.submit(evaluate_spec());
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());

  service.begin_drain();
  Service::SubmitOutcome late = service.submit(evaluate_spec());
  EXPECT_FALSE(late.accepted());
  EXPECT_EQ(late.error_code, "draining");

  service.shutdown();
  // Every admitted job reached a terminal state with its result delivered.
  EXPECT_TRUE(a.job->terminal());
  EXPECT_TRUE(b.job->terminal());
  EXPECT_TRUE(service.draining());
}

TEST(ServiceConcurrency, TenantQuotaRejectsWithRetryAfterHint) {
  ServiceConfig config;
  config.workers = 1;
  TenantConfig capped;  // concurrency quota: one job in flight at a time
  capped.name = "capped";
  capped.key = "k-capped";
  capped.max_inflight = 1;
  TenantConfig drip;  // rate quota: one admission per 10 s after the burst
  drip.name = "drip";
  drip.key = "k-drip";
  drip.rate_per_sec = 0.1;
  drip.burst = 1.0;
  config.tenants = {capped, drip};
  Service service(config);

  JobSpec first = slow_find_angles(1);
  first.tenant = "capped";
  Service::SubmitOutcome held = service.submit(first);
  ASSERT_TRUE(held.accepted());

  // Inflight quota: rejected with a positive backoff hint while the first
  // job is still queued or running.
  JobSpec second = slow_find_angles(2);
  second.tenant = "capped";
  const Service::SubmitOutcome capped_out = service.submit(second);
  EXPECT_FALSE(capped_out.accepted());
  EXPECT_EQ(capped_out.error_code, "over_quota");
  EXPECT_GT(capped_out.retry_after_ms, 0);

  // Rate quota: the burst token admits one job, the next must wait for the
  // ~10 s refill — the hint reflects that horizon.
  JobSpec pour = evaluate_spec();
  pour.tenant = "drip";
  ASSERT_TRUE(service.submit(pour).accepted());
  JobSpec extra = slow_find_angles(3);
  extra.tenant = "drip";
  const Service::SubmitOutcome dripped = service.submit(extra);
  EXPECT_FALSE(dripped.accepted());
  EXPECT_EQ(dripped.error_code, "over_quota");
  EXPECT_GT(dripped.retry_after_ms, 1000);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.over_quota, 2u);
  for (const ServiceStats::TenantStats& t : stats.tenants) {
    if (t.name == "capped" || t.name == "drip") {
      EXPECT_EQ(t.over_quota, 1u) << t.name;
    }
  }

  service.cancel(held.job->id);
  Service::wait(*held.job);
}

// ---------------------------------------------------------------------------
// Protocol dispatch (no socket)
// ---------------------------------------------------------------------------

TEST(ServiceProtocol, JobSpecJsonRoundTrip) {
  JobSpec spec;
  spec.kind = JobKind::FindAngles;
  spec.problem.problem = "ksat";
  spec.problem.mixer = "tf";
  spec.problem.n = 7;
  spec.problem.density = 4.25;
  spec.problem.instance_seed = 77;
  spec.p = 3;
  spec.minimize = true;
  spec.hops = 5;
  spec.starts = 2;
  spec.opt_seed = 1234;
  spec.checkpoint = "/tmp/x.ckpt";
  spec.deadline_seconds = 1.5;
  spec.max_evaluations = 9000;

  const JobSpec back = job_spec_from_json(job_spec_to_json(spec));
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.problem.problem, spec.problem.problem);
  EXPECT_EQ(back.problem.n, spec.problem.n);
  EXPECT_EQ(back.problem.density, spec.problem.density);
  EXPECT_EQ(back.problem.instance_seed, spec.problem.instance_seed);
  EXPECT_EQ(back.p, spec.p);
  EXPECT_EQ(back.minimize, spec.minimize);
  EXPECT_EQ(back.hops, spec.hops);
  EXPECT_EQ(back.starts, spec.starts);
  EXPECT_EQ(back.opt_seed, spec.opt_seed);
  EXPECT_EQ(back.checkpoint, spec.checkpoint);
  EXPECT_EQ(back.deadline_seconds, spec.deadline_seconds);
  EXPECT_EQ(back.max_evaluations, spec.max_evaluations);
}

TEST(ServiceProtocol, DispatchesVerbsAndRejectsGarbage) {
  ServiceConfig config;
  config.workers = 1;
  Service service(config);

  const Json pong = Json::parse(handle_request_line(service, R"({"op":"ping"})"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_TRUE(pong.at("pong").as_bool());

  const Json bad = Json::parse(handle_request_line(service, "not json"));
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").at("code").as_string(), "bad_request");

  const Json unknown =
      Json::parse(handle_request_line(service, R"({"op":"frobnicate"})"));
  EXPECT_FALSE(unknown.at("ok").as_bool());

  const Json no_job = Json::parse(
      handle_request_line(service, R"({"op":"status","id":12345})"));
  EXPECT_EQ(no_job.at("error").at("code").as_string(), "unknown_job");

  // A full evaluate round trip through the dispatcher matches the library.
  const JobSpec spec = evaluate_spec();
  const double expected = direct_evaluate(spec);
  const Json response =
      handle_request(service, job_spec_to_json(spec));
  ASSERT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("state").as_string(), "done");
  EXPECT_EQ(response.at("result").at("expectation").as_double(), expected);

  const Json stats =
      Json::parse(handle_request_line(service, R"({"op":"stats"})"));
  EXPECT_EQ(stats.at("stats").at("plan_cache").at("misses").as_uint64(), 1u);
}

TEST(ServiceProtocol, BatchEvaluateWireRoundTrip) {
  ServiceConfig config;
  config.workers = 1;
  Service service(config);

  // Nested per-lane angle arrays -> one job -> per-lane expectations, each
  // matching the equivalent single evaluate request bit for bit.
  const Json response = Json::parse(handle_request_line(
      service,
      R"({"op":"batch_evaluate","problem":"maxcut","mixer":"tf","n":6,)"
      R"("p":1,"betas":[[0.1],[0.2],[0.3]],"gammas":[[0.5],[0.6],[0.7]]})"));
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  ASSERT_EQ(response.at("state").as_string(), "done");
  const Json& expectations = response.at("result").at("expectations");
  ASSERT_EQ(expectations.size(), 3u);
  EXPECT_EQ(response.at("result").at("lanes").as_int64(), 3);

  const double betas[] = {0.1, 0.2, 0.3};
  const double gammas[] = {0.5, 0.6, 0.7};
  for (std::size_t lane = 0; lane < 3; ++lane) {
    JobSpec single;
    single.kind = JobKind::Evaluate;
    single.problem.n = 6;
    single.p = 1;
    single.betas = {betas[lane]};
    single.gammas = {gammas[lane]};
    EXPECT_EQ(expectations.as_array()[lane].as_double(),
              direct_evaluate(single))
        << "lane " << lane;
  }

  // Spec JSON round trip preserves the lane structure.
  JobSpec sweep;
  sweep.kind = JobKind::BatchEvaluate;
  sweep.problem.n = 6;
  sweep.p = 1;
  sweep.lanes = 3;
  sweep.betas = {0.1, 0.2, 0.3};
  sweep.gammas = {0.5, 0.6, 0.7};
  const JobSpec back = job_spec_from_json(job_spec_to_json(sweep));
  EXPECT_EQ(back.kind, JobKind::BatchEvaluate);
  EXPECT_EQ(back.lanes, sweep.lanes);
  EXPECT_EQ(back.betas, sweep.betas);
  EXPECT_EQ(back.gammas, sweep.gammas);

  // Ragged lanes are a bad_request, not a crash.
  const Json ragged = Json::parse(handle_request_line(
      service,
      R"({"op":"batch_evaluate","problem":"maxcut","mixer":"tf","n":6,)"
      R"("p":1,"betas":[[0.1],[0.2,0.3]],"gammas":[[0.5],[0.6]]})"));
  EXPECT_FALSE(ragged.at("ok").as_bool());

  // The stats verb reports the sweep.
  const Json stats =
      Json::parse(handle_request_line(service, R"({"op":"stats"})"));
  EXPECT_EQ(stats.at("stats").at("batch_jobs").as_uint64(), 1u);
  EXPECT_EQ(stats.at("stats").at("batched_evals").as_uint64(), 3u);
  EXPECT_EQ(stats.at("stats").at("mean_batch_width").as_double(), 3.0);
}

// ---------------------------------------------------------------------------
// Progress channel: bounded fan-out with drop-oldest backpressure
// ---------------------------------------------------------------------------

TEST(ServiceProgress, DropsOldestWhenTheQueueOverflowsAndCounts) {
  std::atomic<std::uint64_t> service_drops{0};
  ProgressChannel channel;
  channel.configure(2, &service_drops);
  ProgressChannel::Subscription sub = channel.subscribe();

  for (int i = 0; i < 5; ++i) channel.publish("ev" + std::to_string(i));
  channel.close("final");

  // Cap 2: ev0..ev2 were dropped oldest-first; ev3, ev4 survive, then the
  // terminal line, then exhaustion.
  std::string line;
  ASSERT_TRUE(sub.next(line));
  EXPECT_EQ(line, "ev3");
  ASSERT_TRUE(sub.next(line));
  EXPECT_EQ(line, "ev4");
  ASSERT_TRUE(sub.next(line));
  EXPECT_EQ(line, "final");
  EXPECT_FALSE(sub.next(line));
  EXPECT_EQ(sub.dropped(), 3u);
  EXPECT_EQ(channel.dropped(), 3u);
  EXPECT_EQ(service_drops.load(), 3u);
}

TEST(ServiceProgress, LateSubscriberGetsExactlyTheTerminalEvent) {
  ProgressChannel channel;
  channel.publish("lost");  // nobody is listening yet
  channel.close("terminal");
  channel.close("second close is ignored");
  EXPECT_TRUE(channel.closed());

  ProgressChannel::Subscription late = channel.subscribe();
  std::string line;
  ASSERT_TRUE(late.next(line));
  EXPECT_EQ(line, "terminal");
  EXPECT_FALSE(late.next(line));
  EXPECT_EQ(late.dropped(), 0u);
}

TEST(ServiceProgress, ConcurrentPublisherAndConsumerDeliverInOrder) {
  ProgressChannel channel;
  channel.configure(1024, nullptr);
  ProgressChannel::Subscription sub = channel.subscribe();

  constexpr int kEvents = 200;
  std::thread publisher([&channel] {
    for (int i = 0; i < kEvents; ++i) {
      channel.publish(std::to_string(i));
    }
    channel.close("done");
  });

  std::vector<std::string> received;
  std::string line;
  while (sub.next(line)) received.push_back(line);
  publisher.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kEvents) + 1);
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], std::to_string(i));
  }
  EXPECT_EQ(received.back(), "done");
  EXPECT_EQ(channel.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Streaming subscribe + metrics verbs (in-process, no socket)
// ---------------------------------------------------------------------------

JobSpec find_angles_spec(int p, int hops, int n = 6) {
  JobSpec spec;
  spec.kind = JobKind::FindAngles;
  spec.problem.n = n;
  spec.p = p;
  spec.hops = hops;
  return spec;
}

/// Stream a subscription in-process the way the daemon's event loop does:
/// subscribe_attach() for the ack, then the job's progress channel with
/// each terminal line stamped by stamp_terminal_event(). `before_read`
/// runs between attaching and the first read (a stalled subscriber).
std::vector<std::string> stream_subscription(
    Service& service, std::uint64_t id,
    const std::function<void()>& before_read = {}) {
  Json req = Json::object();
  req.set("op", Json("subscribe"));
  req.set("id", Json(id));
  std::shared_ptr<Job> job;
  int throttle_ms = 0;
  std::vector<std::string> lines{
      subscribe_attach(service, req, &job, &throttle_ms).dump()};
  if (job == nullptr) return lines;
  ProgressChannel::Subscription sub = job->progress.subscribe();
  if (before_read) before_read();
  std::string line;
  while (sub.next(line)) {
    bool terminal = false;
    lines.push_back(stamp_terminal_event(line, sub.dropped(), &terminal));
    if (terminal) break;
  }
  return lines;
}

TEST(ServiceProtocol, SubscribeStreamsEveryRoundAndTheTerminalEvent) {
  ServiceConfig config;
  config.workers = 1;
  Service service(config);

  // Occupy the single worker so the watched job is still *queued* when the
  // subscription attaches — every round event is then guaranteed to land
  // in the subscriber's queue, not just the tail of them.
  Service::SubmitOutcome blocker =
      service.submit(find_angles_spec(2, 3, 8));
  ASSERT_TRUE(blocker.accepted());

  constexpr int kRounds = 3;
  Service::SubmitOutcome outcome =
      service.submit(find_angles_spec(kRounds, 2));
  ASSERT_TRUE(outcome.accepted());

  const std::vector<std::string> lines =
      stream_subscription(service, outcome.job->id);
  Service::wait(*outcome.job);
  EXPECT_EQ(outcome.job->snapshot_state(), JobState::Done);

  // ack + one event per round + the terminal event.
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRounds) + 2);
  const Json ack = Json::parse(lines.front());
  EXPECT_TRUE(ack.at("ok").as_bool());
  EXPECT_TRUE(ack.at("subscribed").as_bool());
  EXPECT_EQ(ack.at("id").as_uint64(), outcome.job->id);

  for (int round = 1; round <= kRounds; ++round) {
    const Json ev = Json::parse(lines[static_cast<std::size_t>(round)]);
    EXPECT_EQ(ev.at("event").as_string(), "round");
    EXPECT_EQ(ev.at("id").as_uint64(), outcome.job->id);
    EXPECT_EQ(ev.at("p").as_int64(), round);
    EXPECT_GE(ev.at("round_seconds").as_double(), 0.0);
    EXPECT_GE(ev.at("elapsed_seconds").as_double(),
              ev.at("round_seconds").as_double());
    EXPECT_GT(ev.at("evals").as_uint64(), 0u);
  }

  const Json done = Json::parse(lines.back());
  EXPECT_EQ(done.at("event").as_string(), "done");
  EXPECT_EQ(done.at("state").as_string(), "done");
  EXPECT_NE(done.find("stop_reason"), nullptr);
  EXPECT_EQ(done.at("dropped_events").as_uint64(), 0u);
  Service::wait(*blocker.job);
}

TEST(ServiceProtocol, StalledSubscriberDropsEventsButTheJobCompletes) {
  ServiceConfig config;
  config.workers = 1;
  config.subscriber_queue_cap = 1;  // every backlog beyond 1 event drops
  Service service(config);

  // The blocker keeps the watched job queued until the subscription is in
  // place, so all of its rounds publish into the bounded queue.
  Service::SubmitOutcome blocker =
      service.submit(find_angles_spec(2, 3, 8));
  ASSERT_TRUE(blocker.accepted());
  Service::SubmitOutcome outcome = service.submit(find_angles_spec(6, 3));
  ASSERT_TRUE(outcome.accepted());

  // The subscriber reads nothing until the job has finished: with a queue
  // bound of 1 the channel must drop intermediate rounds rather than stall
  // the worker.
  const std::vector<std::string> lines = stream_subscription(
      service, outcome.job->id, [&] { Service::wait(*outcome.job); });
  EXPECT_EQ(outcome.job->snapshot_state(), JobState::Done);

  const Json done = Json::parse(lines.back());
  ASSERT_EQ(done.at("event").as_string(), "done");
  EXPECT_GT(done.at("dropped_events").as_uint64(), 0u);
  EXPECT_GT(service.stats().subscribe_dropped, 0u);
  Service::wait(*blocker.job);
}

TEST(ServiceProtocol, SubscribeErrorsOnUnknownJobsAndNonStreamingDispatch) {
  Service service;
  Json req = Json::object();
  req.set("op", Json("subscribe"));
  req.set("id", Json(std::uint64_t{12345}));
  std::shared_ptr<Job> job;
  int throttle_ms = -1;
  const Json err = subscribe_attach(service, req, &job, &throttle_ms);
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").at("code").as_string(), "unknown_job");
  EXPECT_EQ(job, nullptr);
  EXPECT_EQ(throttle_ms, -1);

  // The one-line dispatcher refuses to fake a stream.
  const Json via_request = Json::parse(handle_request_line(
      service, R"({"op":"subscribe","id":1})"));
  EXPECT_FALSE(via_request.at("ok").as_bool());
}

TEST(ServiceProtocol, SubscribeThrottleMustBeAnIntegerAndIsClamped) {
  Service service;
  Service::SubmitOutcome outcome = service.submit(evaluate_spec());
  ASSERT_TRUE(outcome.accepted());
  const auto attach = [&](const Json& throttle, int* throttle_ms) {
    Json req = Json::object();
    req.set("op", Json("subscribe"));
    req.set("id", Json(outcome.job->id));
    req.set("throttle_ms", throttle);
    std::shared_ptr<Job> job;
    const Json ack = subscribe_attach(service, req, &job, throttle_ms);
    EXPECT_EQ(job != nullptr, ack.at("ok").as_bool()) << ack.dump();
    return ack;
  };

  for (const Json& bad : {Json(1.5), Json("10"), Json(true)}) {
    int throttle_ms = -1;
    const Json err = attach(bad, &throttle_ms);
    EXPECT_FALSE(err.at("ok").as_bool()) << bad.dump();
    EXPECT_EQ(err.at("error").at("code").as_string(), "bad_request");
    EXPECT_NE(err.at("error").at("message").as_string().find("throttle_ms"),
              std::string::npos);
    EXPECT_EQ(throttle_ms, -1);
  }

  int throttle_ms = -1;
  EXPECT_TRUE(attach(Json(250), &throttle_ms).at("ok").as_bool());
  EXPECT_EQ(throttle_ms, 250);
  EXPECT_TRUE(attach(Json(-5), &throttle_ms).at("ok").as_bool());
  EXPECT_EQ(throttle_ms, 0);
  EXPECT_TRUE(
      attach(Json(1LL << 40), &throttle_ms).at("ok").as_bool());
  EXPECT_EQ(throttle_ms, 10'000);
  Service::wait(*outcome.job);
}

TEST(ServiceProtocol, NonBoolAsyncIsRejectedBeforeAdmission) {
  Service service;
  Json req = job_spec_to_json(evaluate_spec());
  req.set("async", Json(1));
  const Json response = Json::parse(handle_request_line(service, req.dump()));
  EXPECT_FALSE(response.at("ok").as_bool()) << response.dump();
  EXPECT_EQ(response.at("error").at("code").as_string(), "bad_request");
  // No job was admitted: nothing runs that the client cannot name.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(ServiceProtocol, MetricsVerbRendersValidatedPrometheusText) {
  ServiceConfig config;
  config.workers = 2;
  Service service(config);
  // Put real traffic through so engine histograms exist in profiling
  // builds and service counters are nonzero either way.
  for (int i = 0; i < 3; ++i) {
    Service::SubmitOutcome outcome = service.submit(evaluate_spec());
    ASSERT_TRUE(outcome.accepted());
    Service::wait(*outcome.job);
  }

  const Json response =
      Json::parse(handle_request_line(service, R"({"op":"metrics"})"));
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  EXPECT_EQ(response.at("format").as_string(), "prometheus");
  const std::string& text = response.at("text").as_string();

  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error;
  EXPECT_NE(text.find("fastqaoa_service_jobs_submitted_total"),
            std::string::npos);
  EXPECT_NE(text.find("fastqaoa_service_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("kernel_backend=\""), std::string::npos);
  EXPECT_NE(text.find("fastqaoa_service_subscribe_dropped_events_total"),
            std::string::npos);

  // The same text under concurrent load still validates — the snapshot is
  // taken under the merge lock, so a half-updated exposition is impossible.
  std::atomic<bool> stop{false};
  std::thread load([&service, &stop] {
    while (!stop.load()) {
      Service::SubmitOutcome outcome = service.submit(evaluate_spec());
      if (outcome.accepted()) Service::wait(*outcome.job);
    }
  });
  for (int i = 0; i < 20; ++i) {
    const Json mid =
        Json::parse(handle_request_line(service, R"({"op":"metrics"})"));
    ASSERT_TRUE(mid.at("ok").as_bool());
    EXPECT_TRUE(
        obs::validate_prometheus_text(mid.at("text").as_string(), &error))
        << error;
  }
  stop.store(true);
  load.join();
}

// ---------------------------------------------------------------------------
// Daemon end to end (fork; excluded from the TSan filter)
// ---------------------------------------------------------------------------

pid_t fork_daemon(const DaemonOptions& options) {
  const pid_t pid = ::fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    const int rc = run_daemon(options);
    std::_Exit(rc);
  }
  return pid;
}

Client connect_with_retry(const std::string& socket_path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    try {
      return Client::connect_unix(socket_path);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  throw Error("daemon did not come up at " + socket_path);
}

int wait_for_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status)) << "daemon did not exit cleanly";
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(DaemonE2E, SequentialRequestsShareOnePlanAndMatchDirectCalls) {
  TempDir tmp;
  DaemonOptions options;
  options.socket_path = tmp.path("qaoa.sock");
  options.metrics_path = tmp.path("metrics.json");
  options.verbose = false;
  options.service.workers = 2;
  const pid_t pid = fork_daemon(options);

  const JobSpec spec = evaluate_spec();
  const double expected = direct_evaluate(spec);

  {
    Client client = connect_with_retry(options.socket_path);
    constexpr int kJobs = 5;
    for (int i = 0; i < kJobs; ++i) {
      const Json response = client.request(job_spec_to_json(spec));
      ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
      EXPECT_EQ(response.at("state").as_string(), "done");
      // %.17g doubles survive the wire bit-identically.
      EXPECT_EQ(response.at("result").at("expectation").as_double(),
                expected);
      EXPECT_EQ(response.at("result").at("cache_hit").as_bool(), i > 0);
    }
    Json stats_req = Json::object();
    stats_req.set("op", Json("stats"));
    const Json stats = client.request(stats_req);
    const Json& cache = stats.at("stats").at("plan_cache");
    EXPECT_EQ(cache.at("misses").as_uint64(), 1u);
    EXPECT_EQ(cache.at("hits").as_uint64(),
              static_cast<std::uint64_t>(kJobs - 1));
  }

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_for_exit(pid), 0);

  // The drain flushed a valid metrics document.
  const Json metrics = Json::parse([&] {
    std::ifstream in(options.metrics_path);
    EXPECT_TRUE(in.good());
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }());
  EXPECT_NE(metrics.find("service"), nullptr);
  EXPECT_NE(metrics.find("engine"), nullptr);
  EXPECT_EQ(metrics.at("service").at("completed").as_uint64(), 5u);
}

TEST(DaemonE2E, SubscribeStreamsRoundsOverTheSocketUntilDone) {
  TempDir tmp;
  DaemonOptions options;
  options.socket_path = tmp.path("qaoa.sock");
  options.prometheus_path = tmp.path("metrics.prom");
  options.metrics_interval_seconds = 0.2;
  options.verbose = false;
  options.service.workers = 1;
  const pid_t pid = fork_daemon(options);

  Client client = connect_with_retry(options.socket_path);

  // Hold the single worker so the watched job is still queued when the
  // subscribe line goes out (same trick as the in-process test).
  {
    Json blocker = job_spec_to_json(find_angles_spec(2, 3, 8));
    blocker.set("async", Json(true));
    ASSERT_TRUE(client.request(blocker).at("ok").as_bool());
  }

  constexpr int kRounds = 3;
  Json submit = job_spec_to_json(find_angles_spec(kRounds, 2));
  submit.set("async", Json(true));
  const Json accepted = client.request(submit);
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  const std::uint64_t id = accepted.at("id").as_uint64();

  // The same connection switches into streaming mode for the subscribe,
  // then back to request/response once the stream ends.
  Json sub = Json::object();
  sub.set("op", Json("subscribe"));
  sub.set("id", Json(id));
  client.send(sub);

  std::string line;
  ASSERT_TRUE(client.read_line(line));
  const Json ack = Json::parse(line);
  ASSERT_TRUE(ack.at("ok").as_bool()) << line;
  EXPECT_TRUE(ack.at("subscribed").as_bool());
  EXPECT_EQ(ack.at("id").as_uint64(), id);

  int rounds = 0;
  bool done_seen = false;
  while (client.read_line(line)) {
    const Json ev = Json::parse(line);
    if (ev.at("event").as_string() == "round") {
      ++rounds;
      EXPECT_EQ(ev.at("p").as_int64(), rounds);
      EXPECT_EQ(ev.at("id").as_uint64(), id);
      EXPECT_GE(ev.at("round_seconds").as_double(), 0.0);
      EXPECT_GE(ev.at("elapsed_seconds").as_double(),
                ev.at("round_seconds").as_double());
      EXPECT_GT(ev.at("evals").as_uint64(), 0u);
    } else if (ev.at("event").as_string() == "done") {
      done_seen = true;
      EXPECT_EQ(ev.at("state").as_string(), "done");
      EXPECT_NE(ev.find("stop_reason"), nullptr);
      EXPECT_EQ(ev.at("dropped_events").as_uint64(), 0u);
      break;
    }
  }
  EXPECT_EQ(rounds, kRounds);
  EXPECT_TRUE(done_seen);

  // The connection still answers plain requests after the stream.
  Json ping = Json::object();
  ping.set("op", Json("ping"));
  EXPECT_TRUE(client.request(ping).at("ok").as_bool());

  // A second subscribe to the (now finished) job degrades gracefully to
  // just the latched terminal event.
  client.send(sub);
  ASSERT_TRUE(client.read_line(line));  // ack
  ASSERT_TRUE(client.read_line(line));  // terminal
  EXPECT_EQ(Json::parse(line).at("event").as_string(), "done");

  client.close();
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_for_exit(pid), 0);

  // The daemon kept (and finally flushed) a validating Prometheus file.
  std::ifstream in(options.prometheus_path);
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error;
  EXPECT_NE(text.find("fastqaoa_service_jobs_completed_total"),
            std::string::npos);
}

TEST(DaemonE2E, StalledSubscriberDropsEventsWithoutBlockingTheJob) {
  TempDir tmp;
  DaemonOptions options;
  options.socket_path = tmp.path("qaoa.sock");
  options.verbose = false;
  options.service.workers = 1;
  options.service.subscriber_queue_cap = 1;
  const pid_t pid = fork_daemon(options);

  Client watcher = connect_with_retry(options.socket_path);

  Json submit = job_spec_to_json(find_angles_spec(6, 3));
  submit.set("async", Json(true));
  const Json accepted = watcher.request(submit);
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  const std::uint64_t id = accepted.at("id").as_uint64();

  // throttle_ms parks the server-side watcher until the job finishes; with
  // a queue bound of 1 the intermediate rounds must be dropped, counted,
  // and the job must complete on schedule regardless.
  Json sub = Json::object();
  sub.set("op", Json("subscribe"));
  sub.set("id", Json(id));
  sub.set("throttle_ms", Json(10'000));
  watcher.send(sub);

  std::string line;
  ASSERT_TRUE(watcher.read_line(line));  // ack
  ASSERT_TRUE(Json::parse(line).at("ok").as_bool()) << line;

  std::uint64_t dropped = 0;
  bool done_seen = false;
  while (watcher.read_line(line)) {
    const Json ev = Json::parse(line);
    if (ev.at("event").as_string() == "done") {
      done_seen = true;
      dropped = ev.at("dropped_events").as_uint64();
      break;
    }
  }
  ASSERT_TRUE(done_seen);
  EXPECT_GT(dropped, 0u);

  // A second connection sees the service-wide drop counter in stats.
  Client prober = Client::connect_unix(options.socket_path);
  Json stats_req = Json::object();
  stats_req.set("op", Json("stats"));
  const Json stats = prober.request(stats_req);
  EXPECT_EQ(stats.at("stats").at("subscribe_dropped").as_uint64(), dropped);
  EXPECT_EQ(stats.at("stats").at("completed").as_uint64(), 1u);

  watcher.close();
  prober.close();
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_for_exit(pid), 0);
}

TEST(DaemonE2E, NonIntegerThrottleIsABadRequestNotACrash) {
  TempDir tmp;
  DaemonOptions options;
  options.socket_path = tmp.path("qaoa.sock");
  options.verbose = false;
  options.service.workers = 1;
  const pid_t pid = fork_daemon(options);

  Client client = connect_with_retry(options.socket_path);
  Json submit = job_spec_to_json(find_angles_spec(4, 3, 8));
  submit.set("async", Json(true));
  const Json accepted = client.request(submit);
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();

  // {"op":"subscribe","id":<live job>,"throttle_ms":1.5} once killed the
  // daemon: the non-integer throttle threw outside any handler.
  Json sub = Json::object();
  sub.set("op", Json("subscribe"));
  sub.set("id", accepted.at("id"));
  sub.set("throttle_ms", Json(1.5));
  client.send(sub);
  std::string line;
  ASSERT_TRUE(client.read_line(line)) << "daemon closed the connection";
  const Json err = Json::parse(line);
  EXPECT_FALSE(err.at("ok").as_bool()) << line;
  EXPECT_EQ(err.at("error").at("code").as_string(), "bad_request");

  Json ping = Json::object();
  ping.set("op", Json("ping"));
  EXPECT_TRUE(client.request(ping).at("pong").as_bool());

  client.close();
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_for_exit(pid), 0);
}

TEST(DaemonE2E, SigtermDrainsInFlightFindAnglesWithResumableCheckpoint) {
  TempDir tmp;
  DaemonOptions options;
  options.socket_path = tmp.path("qaoa.sock");
  options.verbose = false;
  options.service.workers = 1;
  const pid_t pid = fork_daemon(options);

  // Slow enough that SIGTERM very likely lands mid-search, but cheap enough
  // that the two full local runs below stay in CI budget.
  JobSpec spec;
  spec.kind = JobKind::FindAngles;
  spec.problem.n = 10;
  spec.p = 4;
  spec.hops = 10;
  spec.checkpoint = tmp.path("job.ckpt");

  {
    Client client = connect_with_retry(options.socket_path);
    Json req = job_spec_to_json(spec);
    req.set("async", Json(true));
    const Json accepted = client.request(req);
    ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  }

  // Wait until at least one round has been checkpointed, then interrupt the
  // daemon mid-search.
  for (int i = 0; i < 2400 && !std::filesystem::exists(spec.checkpoint);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(std::filesystem::exists(spec.checkpoint));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_for_exit(pid), 0);

  // The checkpoint is resumable: it carries the fingerprint of this exact
  // run, and resuming completes the search bit-identically to a run that
  // was never interrupted.
  const StateSpace space = problem_space(spec.problem);
  dvec obj = build_objective(spec.problem, space);
  const std::unique_ptr<const Mixer> mixer = build_mixer(spec.problem, space);
  const CheckpointFingerprint fingerprint{
      static_cast<std::uint64_t>(obj.size()), Direction::Maximize,
      spec.opt_seed, mixer->name()};
  const std::vector<AngleSchedule> saved =
      load_checkpoint(spec.checkpoint, fingerprint);
  ASSERT_FALSE(saved.empty());

  FindAnglesOptions opt;
  opt.seed = spec.opt_seed;
  opt.hopping.hops = spec.hops;
  opt.checkpoint_file = spec.checkpoint;
  const std::vector<AngleSchedule> resumed =
      find_angles(*mixer, obj, spec.p, opt);

  FindAnglesOptions fresh_opt = opt;
  fresh_opt.checkpoint_file.clear();
  const std::vector<AngleSchedule> fresh =
      find_angles(*mixer, obj, spec.p, fresh_opt);

  ASSERT_EQ(resumed.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(resumed[i].expectation, fresh[i].expectation) << "round " << i;
    EXPECT_EQ(resumed[i].betas, fresh[i].betas) << "round " << i;
    EXPECT_EQ(resumed[i].gammas, fresh[i].gammas) << "round " << i;
  }
}

// ---------------------------------------------------------------------------
// Daemon front end: timeouts, oversize lines, slow clients, tenants
// ---------------------------------------------------------------------------

/// Frontend counter snapshot via a fresh stats request.
std::uint64_t frontend_counter(const std::string& socket_path,
                               const char* field,
                               const char* key = nullptr) {
  Client client = connect_with_retry(socket_path);
  Json req = Json::object();
  req.set("op", Json("stats"));
  if (key != nullptr) req.set("key", Json(key));
  const Json stats = client.request(req).at("stats");
  return stats.at("frontend").at(field).as_uint64();
}

TEST(DaemonE2E, OversizedRequestLineIsRejectedNotBuffered) {
  TempDir tmp;
  DaemonOptions options;
  options.socket_path = tmp.path("qaoa.sock");
  options.verbose = false;
  options.max_line_bytes = 4096;
  const pid_t pid = fork_daemon(options);

  {
    Client client = connect_with_retry(options.socket_path);
    // A ~48 KB request line (small enough to land in the kernel's socket
    // buffers in one send, so writing it cannot race the daemon's close):
    // the daemon must reject it rather than serve or buffer it.
    Json req = Json::object();
    req.set("op", Json("ping"));
    req.set("padding", Json(std::string(48u << 10, 'x')));
    client.send(req);
    std::string line;
    ASSERT_TRUE(client.read_line(line));
    const Json rejection = Json::parse(line);
    EXPECT_FALSE(rejection.at("ok").as_bool());
    EXPECT_EQ(rejection.at("error").at("code").as_string(), "bad_request");
    EXPECT_FALSE(client.read_line(line));  // connection closed behind it
  }

  EXPECT_EQ(frontend_counter(options.socket_path, "evicted_oversize"), 1u);
  // A well-formed client on a fresh connection is unaffected.
  Client ok_client = connect_with_retry(options.socket_path);
  Json ping = Json::object();
  ping.set("op", Json("ping"));
  EXPECT_TRUE(ok_client.request(ping).at("ok").as_bool());

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_for_exit(pid), 0);
}

TEST(DaemonE2E, IdleConnectionEvictedAfterTimeout) {
  TempDir tmp;
  DaemonOptions options;
  options.socket_path = tmp.path("qaoa.sock");
  options.verbose = false;
  options.idle_timeout_seconds = 0.5;
  const pid_t pid = fork_daemon(options);

  Client idle = connect_with_retry(options.socket_path);
  Json ping = Json::object();
  ping.set("op", Json("ping"));
  ASSERT_TRUE(idle.request(ping).at("ok").as_bool());

  // Go quiet: the daemon must hang up on us with a structured error once
  // the idle timeout elapses (the blocking read returns it, then EOF).
  const auto before = std::chrono::steady_clock::now();
  std::string line;
  ASSERT_TRUE(idle.read_line(line));
  const Json goodbye = Json::parse(line);
  EXPECT_FALSE(goodbye.at("ok").as_bool());
  EXPECT_EQ(goodbye.at("error").at("code").as_string(), "idle_timeout");
  EXPECT_FALSE(idle.read_line(line));
  const auto waited = std::chrono::steady_clock::now() - before;
  EXPECT_GE(waited, std::chrono::milliseconds(400));
  EXPECT_LT(waited, std::chrono::seconds(30));

  EXPECT_EQ(frontend_counter(options.socket_path, "evicted_idle"), 1u);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_for_exit(pid), 0);
}

TEST(DaemonE2E, SlowClientEvictedWithinWriteTimeoutOthersUnaffected) {
  TempDir tmp;
  DaemonOptions options;
  options.socket_path = tmp.path("qaoa.sock");
  options.verbose = false;
  options.service.workers = 2;
  options.write_timeout_seconds = 0.5;
  options.sndbuf_bytes = 8 * 1024;  // so an ~80 KB response cannot drain
  const pid_t pid = fork_daemon(options);
  connect_with_retry(options.socket_path);  // wait for the listener

  // Raw fd so nothing reads the response: a big batch_evaluate answer
  // jams the shrunken SO_SNDBUF and the daemon's write stalls.
  const int fd = connect_unix(options.socket_path);
  std::string betas = "[";
  std::string gammas = "[";
  for (int lane = 0; lane < 4000; ++lane) {
    if (lane > 0) {
      betas += ',';
      gammas += ',';
    }
    betas += "[0.3]";
    gammas += "[0.6]";
  }
  betas += ']';
  gammas += ']';
  write_all(fd,
            "{\"op\":\"batch_evaluate\",\"problem\":\"maxcut\","
            "\"mixer\":\"tf\",\"n\":8,\"p\":1,\"seed\":9,\"betas\":" +
                betas + ",\"gammas\":" + gammas + "}\n");

  // While the slow client stalls, a normal client stays fully served.
  Client brisk = connect_with_retry(options.socket_path);
  const auto stall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::uint64_t evicted = 0;
  while (std::chrono::steady_clock::now() < stall_deadline) {
    Json req = Json::object();
    req.set("op", Json("stats"));
    const Json stats = brisk.request(req).at("stats");
    evicted = stats.at("frontend").at("evicted_slow").as_uint64();
    if (evicted > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(evicted, 1u) << "slow client not evicted within write timeout";

  // The evicted connection drains to EOF (or a reset) promptly.
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char sink[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n <= 0) {
      EXPECT_NE(n, -1) << "kernel receive timeout: connection still open";
      break;
    }
  }
  close_fd(fd);

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_for_exit(pid), 0);
}

TEST(DaemonE2E, TenantsRequireKeysAndEnforceQuotasOverTheWire) {
  TempDir tmp;
  DaemonOptions options;
  options.socket_path = tmp.path("qaoa.sock");
  options.verbose = false;
  options.service.workers = 1;
  TenantConfig paying;
  paying.name = "paying";
  paying.key = "k-paying";
  paying.weight = 2.0;
  TenantConfig capped;
  capped.name = "capped";
  capped.key = "k-capped";
  capped.max_inflight = 1;
  options.service.tenants = {paying, capped};
  const pid_t pid = fork_daemon(options);

  Client client = connect_with_retry(options.socket_path);

  // Job verbs without a key are refused once tenants are configured.
  Json bare = job_spec_to_json(evaluate_spec());
  const Json denied = client.request(bare);
  EXPECT_FALSE(denied.at("ok").as_bool());
  EXPECT_EQ(denied.at("error").at("code").as_string(), "unauthorized");

  // A wrong key is an auth failure, not a crash.
  Json wrong = job_spec_to_json(evaluate_spec());
  wrong.set("key", Json("k-nope"));
  EXPECT_EQ(client.request(wrong).at("error").at("code").as_string(),
            "unauthorized");

  // The right key works, and `auth` upgrades the whole connection.
  Json auth = Json::object();
  auth.set("op", Json("auth"));
  auth.set("key", Json("k-paying"));
  const Json authed = client.request(auth);
  ASSERT_TRUE(authed.at("ok").as_bool()) << authed.dump();
  EXPECT_EQ(authed.at("tenant").as_string(), "paying");
  const Json served = client.request(job_spec_to_json(evaluate_spec()));
  ASSERT_TRUE(served.at("ok").as_bool()) << served.dump();

  // Quota rejection over the wire carries the structured code and a
  // positive retry_after_ms hint.
  Client capped_client = connect_with_retry(options.socket_path);
  Json slow = job_spec_to_json(slow_find_angles(1));
  slow.set("key", Json("k-capped"));
  slow.set("async", Json(true));
  ASSERT_TRUE(capped_client.request(slow).at("ok").as_bool());
  Json second = job_spec_to_json(slow_find_angles(2));
  second.set("key", Json("k-capped"));
  const Json rejected = capped_client.request(second);
  EXPECT_FALSE(rejected.at("ok").as_bool());
  const Json& err = rejected.at("error");
  EXPECT_EQ(err.at("code").as_string(), "over_quota");
  EXPECT_GT(err.at("retry_after_ms").as_int64(), 0);

  EXPECT_GE(frontend_counter(options.socket_path, "auth_failures",
                             "k-paying"),
            2u);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  EXPECT_EQ(wait_for_exit(pid), 0);
}

// ---------------------------------------------------------------------------
// MPS engine jobs: routing, cache-key separation, invariance, protocol
// ---------------------------------------------------------------------------

JobSpec mps_evaluate_spec(int p = 2) {
  JobSpec spec = evaluate_spec(p);
  spec.problem.problem = "wmaxcut";
  spec.problem.n = 10;
  spec.problem.degree = 3;
  spec.problem.engine = "mps";
  spec.problem.max_bond = 32;
  spec.problem.fidelity_budget = 0.0;
  spec.problem.trunc_tol = 1e-14;
  return spec;
}

/// Service::execute_mps performed directly against the library.
double direct_mps_evaluate(const JobSpec& spec) {
  const mps::MpsPlan plan(build_mps_hamiltonian(spec.problem),
                          mps_options(spec.problem));
  mps::MpsWorkspace ws;
  return mps::evaluate(plan, ws, spec.betas, spec.gammas);
}

TEST(ServiceMps, EvaluateMatchesDirectCallAndExactEngine) {
  const JobSpec spec = mps_evaluate_spec();
  const double expected = direct_mps_evaluate(spec);

  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  Service::SubmitOutcome mps_out = service.submit(spec);
  ASSERT_TRUE(mps_out.accepted());
  Service::wait(*mps_out.job);
  ASSERT_EQ(mps_out.job->snapshot_state(), JobState::Done)
      << mps_out.job->error;
  EXPECT_EQ(mps_out.job->result.expectation, expected);  // bit-identical
  EXPECT_TRUE(mps_out.job->result.mps);
  EXPECT_EQ(mps_out.job->result.discarded_weight, 0.0);  // chi=32 at n=10
  EXPECT_GE(mps_out.job->result.max_bond_reached, 1u);

  // The same instance through the exact engine agrees physically...
  JobSpec exact = spec;
  exact.problem.engine = "exact";
  Service::SubmitOutcome exact_out = service.submit(exact);
  ASSERT_TRUE(exact_out.accepted());
  Service::wait(*exact_out.job);
  ASSERT_EQ(exact_out.job->snapshot_state(), JobState::Done);
  EXPECT_FALSE(exact_out.job->result.mps);
  EXPECT_NEAR(exact_out.job->result.expectation, expected, 1e-8);
  // ...but never shares a cache entry: engine is part of the key.
  EXPECT_EQ(service.stats().plan_cache.entries, 2u);
  EXPECT_EQ(service.stats().plan_cache.misses, 2u);
}

TEST(ServiceMps, TruncationKnobsSeparateCacheEntries) {
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  JobSpec spec = mps_evaluate_spec();
  std::size_t expected_entries = 0;
  const auto submit_and_wait = [&service](const JobSpec& s) {
    Service::SubmitOutcome out = service.submit(s);
    ASSERT_TRUE(out.accepted());
    Service::wait(*out.job);
    ASSERT_EQ(out.job->snapshot_state(), JobState::Done);
  };
  submit_and_wait(spec);
  ++expected_entries;
  EXPECT_EQ(service.stats().plan_cache.entries, expected_entries);

  // Re-submitting the identical spec hits the cache.
  submit_and_wait(spec);
  EXPECT_EQ(service.stats().plan_cache.entries, expected_entries);
  EXPECT_EQ(service.stats().plan_cache.hits, 1u);

  // Every truncation knob is part of result identity => a fresh entry.
  JobSpec other = spec;
  other.problem.max_bond = 16;
  submit_and_wait(other);
  ++expected_entries;
  other = spec;
  other.problem.fidelity_budget = 1e-3;
  submit_and_wait(other);
  ++expected_entries;
  other = spec;
  other.problem.trunc_tol = 1e-10;
  submit_and_wait(other);
  ++expected_entries;
  EXPECT_EQ(service.stats().plan_cache.entries, expected_entries);
}

TEST(ServiceMps, RejectsUnsupportedKindsAndBadSpecs) {
  Service service;
  for (const JobKind kind :
       {JobKind::Gradient, JobKind::Sample, JobKind::BatchEvaluate}) {
    JobSpec bad = mps_evaluate_spec();
    bad.kind = kind;
    if (kind == JobKind::BatchEvaluate) bad.lanes = 1;
    EXPECT_THROW(service.submit(bad), Error) << to_string(kind);
  }
  JobSpec bad_engine = mps_evaluate_spec();
  bad_engine.problem.engine = "bogus";
  EXPECT_THROW(service.submit(bad_engine), Error);
  JobSpec bad_problem = mps_evaluate_spec();
  bad_problem.problem.problem = "ksat";
  EXPECT_THROW(service.submit(bad_problem), Error);
  JobSpec bad_mixer = mps_evaluate_spec();
  bad_mixer.problem.mixer = "grover";
  EXPECT_THROW(service.submit(bad_mixer), Error);
  // The exact engine keeps its statevector bound; mps relaxes it.
  JobSpec large = evaluate_spec();
  large.problem.n = 40;
  EXPECT_THROW(service.submit(large), Error);
  EXPECT_EQ(service.stats().submitted, 0u);
}

std::vector<JobResultData> run_mps_batch(int workers) {
  ServiceConfig config;
  config.workers = workers;
  Service service(config);
  std::vector<std::shared_ptr<Job>> jobs;
  for (std::uint64_t seed : {11ULL, 12ULL}) {
    JobSpec ev = mps_evaluate_spec();
    ev.problem.n = 8;
    ev.problem.instance_seed = seed;
    ev.problem.max_bond = 8;  // saturate so truncation stats are non-trivial
    Service::SubmitOutcome out = service.submit(ev);
    EXPECT_TRUE(out.accepted());
    jobs.push_back(out.job);

    JobSpec fa;
    fa.kind = JobKind::FindAngles;
    fa.problem = ev.problem;
    fa.p = 1;
    fa.hops = 1;
    fa.opt_seed = 5 + seed;
    // Deterministic early stop: evaluation counts are schedule-independent
    // (one chain, one worker per job), so the budget trips at the same
    // point on any pool size.
    fa.max_evaluations = 80;
    out = service.submit(fa);
    EXPECT_TRUE(out.accepted());
    jobs.push_back(out.job);
  }
  std::vector<JobResultData> results;
  for (const auto& job : jobs) {
    Service::wait(*job);
    EXPECT_EQ(job->snapshot_state(), JobState::Done);
    results.push_back(job->result);
  }
  return results;
}

TEST(ServiceMps, ResultsAreWorkerCountInvariant) {
  const std::vector<JobResultData> one = run_mps_batch(1);
  const std::vector<JobResultData> four = run_mps_batch(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].expectation, four[i].expectation) << "job " << i;
    EXPECT_EQ(one[i].discarded_weight, four[i].discarded_weight)
        << "job " << i;
    EXPECT_EQ(one[i].truncations, four[i].truncations) << "job " << i;
    EXPECT_EQ(one[i].max_bond_reached, four[i].max_bond_reached)
        << "job " << i;
    ASSERT_EQ(one[i].schedules.size(), four[i].schedules.size());
    for (std::size_t r = 0; r < one[i].schedules.size(); ++r) {
      EXPECT_EQ(one[i].schedules[r].expectation,
                four[i].schedules[r].expectation);
      EXPECT_EQ(one[i].schedules[r].betas, four[i].schedules[r].betas);
      EXPECT_EQ(one[i].schedules[r].gammas, four[i].schedules[r].gammas);
    }
  }
}

TEST(ServiceMps, ProtocolCarriesEngineFieldsBothWays) {
  JobSpec spec = mps_evaluate_spec();
  spec.problem.max_bond = 16;
  spec.problem.fidelity_budget = 1e-3;
  const Json wire = job_spec_to_json(spec);
  EXPECT_EQ(wire.at("engine").as_string(), "mps");
  const JobSpec parsed = job_spec_from_json(wire);
  EXPECT_EQ(parsed.problem.engine, "mps");
  EXPECT_EQ(parsed.problem.degree, spec.problem.degree);
  EXPECT_EQ(parsed.problem.max_bond, 16);
  EXPECT_EQ(parsed.problem.fidelity_budget, 1e-3);
  EXPECT_EQ(parsed.problem.trunc_tol, spec.problem.trunc_tol);

  Service service;
  Json req = job_spec_to_json(spec);
  const Json resp = handle_request(service, req);
  ASSERT_TRUE(resp.at("ok").as_bool());
  const Json& result = resp.at("result");
  EXPECT_EQ(result.at("engine").as_string(), "mps");
  // chi=16 saturates at n=10 p=2; the soft-truncation budget bounds the
  // reported fidelity proxy.
  const double discarded = result.at("discarded_weight").as_double();
  EXPECT_GT(discarded, 0.0);
  EXPECT_LE(discarded, spec.problem.fidelity_budget);
  EXPECT_GT(result.at("truncations").as_uint64(), 0u);
  EXPECT_GE(result.at("max_bond_reached").as_uint64(), 1u);
  EXPECT_EQ(result.at("expectation").as_double(), direct_mps_evaluate(spec));

  // Unknown engine comes back as a structured bad_request, not a hang.
  req.set("engine", Json("bogus"));
  const Json err = handle_request(service, req);
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").at("code").as_string(), "bad_request");
}

// ---------------------------------------------------------------------------
// Spec keys: the service keys generated plans by their generator inputs
// ---------------------------------------------------------------------------

JobSpec with_rounds(JobSpec spec, int p) {
  spec.p = p;
  spec.betas.assign(static_cast<std::size_t>(p), 0.17);
  spec.gammas.assign(static_cast<std::size_t>(p), 0.41);
  return spec;
}

/// Submit `base`, then `mutated`, to a fresh service. Returns whether the
/// second job was served from the first one's cache entry; either way its
/// result must be the one a fresh build of `mutated` computes.
bool shares_entry(const JobSpec& base, const JobSpec& mutated) {
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  JobResultData result;
  for (const JobSpec* spec : {&base, &mutated}) {
    Service::SubmitOutcome outcome = service.submit(*spec);
    EXPECT_TRUE(outcome.accepted());
    if (!outcome.accepted()) return false;
    Service::wait(*outcome.job);
    EXPECT_EQ(outcome.job->snapshot_state(), JobState::Done)
        << outcome.job->error;
    result = outcome.job->result;
  }
  const double fresh = mutated.problem.uses_mps()
                           ? direct_mps_evaluate(mutated)
                           : direct_evaluate(mutated);
  EXPECT_EQ(result.expectation, fresh);
  return result.cache_hit;
}

TEST(PlanCache, SpecKeyCoversEveryGeneratorField) {
  enum class Expect { Either, Share, Split };
  struct Mutation {
    const char* name;
    JobSpec base;
    std::function<void(JobSpec&)> apply;
    Expect expect = Expect::Either;
  };
  const JobSpec exact = evaluate_spec();  // maxcut tf n=8 seed=42
  JobSpec ksat = exact;
  ksat.problem.problem = "ksat";
  JobSpec clique = exact;
  clique.problem.mixer = "clique";  // k defaults to n/2
  const JobSpec mps = mps_evaluate_spec();

  const std::vector<Mutation> mutations = {
      {"problem=wmaxcut", exact,
       [](JobSpec& s) { s.problem.problem = "wmaxcut"; }},
      {"problem=ksat", exact,
       [](JobSpec& s) { s.problem.problem = "ksat"; }},
      {"problem=densest", exact,
       [](JobSpec& s) { s.problem.problem = "densest"; }},
      {"problem=vertexcover", exact,
       [](JobSpec& s) { s.problem.problem = "vertexcover"; }},
      {"problem=partition", exact,
       [](JobSpec& s) { s.problem.problem = "partition"; }},
      {"mixer=grover", exact,
       [](JobSpec& s) { s.problem.mixer = "grover"; }},
      {"mixer=clique", exact,
       [](JobSpec& s) { s.problem.mixer = "clique"; }},
      {"mixer=ring", clique, [](JobSpec& s) { s.problem.mixer = "ring"; }},
      {"n", exact, [](JobSpec& s) { s.problem.n = 10; }},
      {"k on tf", exact, [](JobSpec& s) { s.problem.k = 3; }},
      {"k on clique", clique, [](JobSpec& s) { s.problem.k = 3; },
       Expect::Split},
      {"k=n/2 on clique", clique, [](JobSpec& s) { s.problem.k = 4; }},
      {"density on maxcut", exact,
       [](JobSpec& s) { s.problem.density = 3.0; }, Expect::Share},
      {"density on ksat", ksat,
       [](JobSpec& s) { s.problem.density = 3.0; }, Expect::Split},
      {"instance_seed", exact,
       [](JobSpec& s) { s.problem.instance_seed = 43; }},
      {"degree", exact, [](JobSpec& s) { s.problem.degree = 3; }},
      {"engine", exact, [](JobSpec& s) { s.problem.engine = "mps"; },
       Expect::Split},
      {"max_bond on exact", exact,
       [](JobSpec& s) { s.problem.max_bond = 8; }},
      {"trunc_tol on exact", exact,
       [](JobSpec& s) { s.problem.trunc_tol = 1e-6; }},
      {"p", exact, [](JobSpec& s) { s = with_rounds(s, 3); }, Expect::Split},
      {"mps max_bond", mps, [](JobSpec& s) { s.problem.max_bond = 16; },
       Expect::Split},
      {"mps fidelity_budget", mps,
       [](JobSpec& s) { s.problem.fidelity_budget = 1e-3; }, Expect::Split},
      {"mps trunc_tol", mps,
       [](JobSpec& s) { s.problem.trunc_tol = 1e-10; }, Expect::Split},
      {"mps p", mps, [](JobSpec& s) { s = with_rounds(s, 3); },
       Expect::Split},
      {"mps instance_seed", mps,
       [](JobSpec& s) { s.problem.instance_seed = 43; }},
      {"mps degree", mps, [](JobSpec& s) { s.problem.degree = 5; }},
      {"mps density", mps, [](JobSpec& s) { s.problem.density = 3.0; },
       Expect::Share},
  };

  for (const Mutation& m : mutations) {
    SCOPED_TRACE(m.name);
    JobSpec mutated = m.base;
    m.apply(mutated);
    ASSERT_NO_THROW(validate_job_spec(mutated));
    const bool shared = shares_entry(m.base, mutated);
    if (m.expect != Expect::Either) {
      EXPECT_EQ(shared, m.expect == Expect::Share);
    }
    if (!shared) continue;
    // A shared entry is only sound when nothing it holds can differ.
    const ProblemSpec& a = m.base.problem;
    const ProblemSpec& b = mutated.problem;
    EXPECT_EQ(b.mixer, a.mixer);
    EXPECT_EQ(mutated.p, m.base.p);
    EXPECT_EQ(build_objective(b, problem_space(b)),
              build_objective(a, problem_space(a)));
  }
}

}  // namespace
}  // namespace fastqaoa::service
