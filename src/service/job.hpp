#pragma once
/// \file job.hpp
/// The service's unit of work: a declarative JobSpec (what to compute), the
/// JobResultData it produces, and the state machine between them.
///
/// Jobs are deliberately self-contained — everything a worker needs is in
/// the spec, every random draw is seeded from the spec, and workers never
/// share mutable state beyond the (immutable) cached plan. That is what
/// makes results worker-count invariant: the same batch of jobs produces
/// bit-identical outputs on a 1-worker and an 8-worker pool, because each
/// job's computation is a pure function of its spec.

#include <cstdint>
#include <string>
#include <vector>

#include "anglefind/strategies.hpp"
#include "runtime/budget.hpp"
#include "service/workload.hpp"

namespace fastqaoa::service {

enum class JobKind : std::uint8_t {
  Evaluate,
  BatchEvaluate,
  Gradient,
  FindAngles,
  Sample,
};

enum class JobState : std::uint8_t {
  Queued,
  Running,
  Done,
  Failed,
  Cancelled,
};

[[nodiscard]] const char* to_string(JobKind kind) noexcept;
[[nodiscard]] const char* to_string(JobState state) noexcept;

/// Full description of one job. Fields beyond (kind, problem, p) apply only
/// to the kinds that read them.
struct JobSpec {
  JobKind kind = JobKind::Evaluate;
  ProblemSpec problem;
  int p = 1;
  bool minimize = false;

  /// Submitting tenant ("" = the default/unconfigured tenant). Set by the
  /// daemon from the connection's authenticated identity; drives fair-share
  /// scheduling, quota accounting, and plan-cache partition charging. Not a
  /// wire field — clients authenticate with a key, never by naming a
  /// tenant directly.
  std::string tenant;

  /// evaluate / gradient / sample: fixed angles, one per round.
  /// batch_evaluate: lane-major angle sets — lane l's betas live at
  /// betas[l*p .. (l+1)*p), likewise gammas; `lanes` angle sets total. The
  /// whole sweep is ONE job: a single admission decision, a single worker
  /// evaluating the lanes in order.
  std::vector<double> betas;
  std::vector<double> gammas;

  /// batch_evaluate: number of angle sets carried in betas/gammas.
  int lanes = 0;

  /// sample: number of measurement shots.
  std::uint64_t shots = 1024;

  /// find_angles: search configuration (mirrors FindAnglesOptions).
  int hops = 8;
  int starts = 1;
  std::uint64_t opt_seed = 0x5EED5EED5EEDULL;
  std::string checkpoint;  ///< round-by-round checkpoint file ("" = none)

  /// Per-job budget, enforced via the runtime layer (0 = unlimited).
  double deadline_seconds = 0.0;
  std::size_t max_evaluations = 0;
};

/// Validate a spec end to end (problem fields + kind-specific fields);
/// throws fastqaoa::Error naming the offending field.
void validate_job_spec(const JobSpec& spec);

/// What a finished job carries. Only the fields for the job's kind are
/// meaningful.
struct JobResultData {
  double expectation = 0.0;
  std::vector<double> expectations;             ///< batch_evaluate, per lane
  std::vector<double> grad_betas;               ///< gradient
  std::vector<double> grad_gammas;              ///< gradient
  std::vector<AngleSchedule> schedules;         ///< find_angles
  double shot_estimate = 0.0;                   ///< sample
  double shot_stderr = 0.0;                     ///< sample
  runtime::StopReason stop = runtime::StopReason::None;
  bool cache_hit = false;  ///< plan came from the cache
  double seconds = 0.0;    ///< worker wall-clock for this job

  /// MPS-engine jobs only (mps == true): fidelity proxy and truncation
  /// pressure for the reported expectation (for find_angles: harvested by
  /// re-evaluating the winning schedule once).
  bool mps = false;
  double discarded_weight = 0.0;
  std::uint64_t truncations = 0;
  std::uint64_t max_bond_reached = 0;
};

}  // namespace fastqaoa::service
