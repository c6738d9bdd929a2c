#include "service/job.hpp"

#include "common/error.hpp"

namespace fastqaoa::service {

const char* to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::Evaluate:
      return "evaluate";
    case JobKind::BatchEvaluate:
      return "batch_evaluate";
    case JobKind::Gradient:
      return "gradient";
    case JobKind::FindAngles:
      return "find_angles";
    case JobKind::Sample:
      return "sample";
  }
  return "unknown";
}

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::Queued:
      return "queued";
    case JobState::Running:
      return "running";
    case JobState::Done:
      return "done";
    case JobState::Failed:
      return "failed";
    case JobState::Cancelled:
      return "cancelled";
  }
  return "unknown";
}

void validate_job_spec(const JobSpec& spec) {
  validate_problem_spec(spec.problem);
  if (spec.problem.uses_mps()) {
    // Fail fast at admission: the MPS engine has no batch_evaluate path, no
    // adjoint gradients, and no statevector to sample from.
    FASTQAOA_CHECK(
        spec.kind == JobKind::Evaluate || spec.kind == JobKind::FindAngles,
        "engine 'mps' supports evaluate and find_angles only");
  }
  FASTQAOA_CHECK(spec.p >= 1 && spec.p <= 50,
                 "p out of supported range [1, 50]");
  const auto p = static_cast<std::size_t>(spec.p);
  switch (spec.kind) {
    case JobKind::Evaluate:
    case JobKind::Gradient:
    case JobKind::Sample:
      FASTQAOA_CHECK(spec.betas.size() == p,
                     "betas must have exactly p entries");
      FASTQAOA_CHECK(spec.gammas.size() == p,
                     "gammas must have exactly p entries");
      if (spec.kind == JobKind::Sample) {
        FASTQAOA_CHECK(spec.shots >= 1, "shots must be >= 1");
      }
      break;
    case JobKind::BatchEvaluate:
      FASTQAOA_CHECK(spec.lanes >= 1, "batch_evaluate needs >= 1 angle set");
      FASTQAOA_CHECK(spec.lanes <= 4096,
                     "batch_evaluate caps at 4096 angle sets per job");
      FASTQAOA_CHECK(
          spec.betas.size() == static_cast<std::size_t>(spec.lanes) * p,
          "betas must carry lanes * p entries (lane-major)");
      FASTQAOA_CHECK(
          spec.gammas.size() == static_cast<std::size_t>(spec.lanes) * p,
          "gammas must carry lanes * p entries (lane-major)");
      break;
    case JobKind::FindAngles:
      FASTQAOA_CHECK(spec.hops >= 1, "hops must be >= 1");
      FASTQAOA_CHECK(spec.starts >= 1, "starts must be >= 1");
      break;
  }
  FASTQAOA_CHECK(spec.deadline_seconds >= 0.0,
                 "deadline must be non-negative");
}

}  // namespace fastqaoa::service
