// Tests for the fault-tolerant execution layer: budgets and cooperative
// cancellation, non-finite guardrails, atomic checkpoint writes with
// fingerprint validation, and crash-safe ensemble resume.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "anglefind/bfgs.hpp"
#include "anglefind/strategies.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/plan.hpp"
#include "mixers/x_mixer.hpp"
#include "problems/cost_functions.hpp"
#include "runtime/budget.hpp"
#include "runtime/checkpoint.hpp"
#include "study/ensemble.hpp"

namespace fastqaoa {
namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("fastqaoa_runtime_" + std::to_string(::getpid()) + "_" +
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

dvec maxcut_table(const Graph& g) {
  return tabulate(StateSpace::full(g.num_vertices()),
                  [&g](state_t x) { return maxcut(g, x); });
}

FindAnglesOptions quick_options() {
  FindAnglesOptions opt;
  opt.hopping.hops = 4;
  opt.hopping.local.max_iterations = 60;
  opt.seed = 1234;
  return opt;
}

/// EXPECT_THROW with a substring check on the message.
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected fastqaoa::Error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

// --- budget / cancellation primitives ----------------------------------

TEST(Budget, UnconstrainedTrackerNeverTrips) {
  runtime::BudgetTracker tracker;
  EXPECT_FALSE(tracker.active());
  EXPECT_EQ(tracker.check(), runtime::StopReason::None);
  tracker.add_evaluations(1u << 20);
  EXPECT_EQ(tracker.check(), runtime::StopReason::None);
  EXPECT_EQ(tracker.evaluations(), 0u);  // inactive trackers don't count
}

TEST(Budget, MaxEvaluationsTrips) {
  runtime::RunBudget budget;
  budget.max_evaluations = 100;
  runtime::BudgetTracker tracker(budget);
  EXPECT_TRUE(tracker.active());
  tracker.add_evaluations(99);
  EXPECT_EQ(tracker.check(), runtime::StopReason::None);
  tracker.add_evaluations(1);
  EXPECT_EQ(tracker.check(), runtime::StopReason::MaxEvaluations);
}

TEST(Budget, DeadlineTrips) {
  runtime::RunBudget budget;
  budget.wall_seconds = 1e-4;
  runtime::BudgetTracker tracker(budget);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(tracker.check(), runtime::StopReason::Deadline);
}

TEST(Budget, CancellationOutranksOtherLimits) {
  runtime::CancelToken token;
  runtime::RunBudget budget;
  budget.max_evaluations = 1;
  budget.cancel = &token;
  runtime::BudgetTracker tracker(budget);
  tracker.add_evaluations(10);
  EXPECT_EQ(tracker.check(), runtime::StopReason::MaxEvaluations);
  token.request_stop();
  EXPECT_EQ(tracker.check(), runtime::StopReason::Cancelled);
  token.reset();
  EXPECT_EQ(tracker.check(), runtime::StopReason::MaxEvaluations);
}

TEST(Budget, StopReasonNames) {
  EXPECT_STREQ(runtime::to_string(runtime::StopReason::None), "none");
  EXPECT_STREQ(runtime::to_string(runtime::StopReason::Deadline), "deadline");
  EXPECT_STREQ(runtime::to_string(runtime::StopReason::MaxEvaluations),
               "max-evaluations");
  EXPECT_STREQ(runtime::to_string(runtime::StopReason::Cancelled),
               "cancelled");
  EXPECT_STREQ(runtime::to_string(runtime::StopReason::NonFinite),
               "non-finite");
}

// --- budgeted angle finding --------------------------------------------

TEST(BudgetedFindAngles, ExpiredDeadlineStillReturnsBestSoFar) {
  Rng rng(4);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(6);

  FindAnglesOptions opt = quick_options();
  opt.budget.wall_seconds = 1e-6;  // expired before the first iteration
  auto schedules = find_angles(mixer, table, 3, opt);
  ASSERT_EQ(schedules.size(), 1u);  // round 1 always produces an answer
  EXPECT_EQ(schedules[0].stop_reason, runtime::StopReason::Deadline);
  EXPECT_TRUE(schedules[0].stopped_early());
  EXPECT_TRUE(std::isfinite(schedules[0].expectation));
  ASSERT_EQ(schedules[0].betas.size(), 1u);
}

TEST(BudgetedFindAngles, MaxEvaluationsStopsWithinOneIteration) {
  Rng rng(4);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(6);

  FindAnglesOptions opt = quick_options();
  opt.budget.max_evaluations = 40;
  auto schedules = find_angles(mixer, table, 4, opt);
  ASSERT_FALSE(schedules.empty());
  EXPECT_LT(schedules.size(), 4u);
  EXPECT_EQ(schedules.back().stop_reason,
            runtime::StopReason::MaxEvaluations);
  // "Within one iteration": the budget counts optimizer callbacks, and one
  // BFGS iteration costs a handful of them (line search), so the overshoot
  // past the limit is small.
  std::size_t total = 0;
  for (const auto& s : schedules) total += s.optimizer_calls;
  EXPECT_LT(total, 40u + 40u);
  EXPECT_TRUE(std::isfinite(schedules.back().expectation));
}

TEST(BudgetedFindAngles, PreCancelledTokenReturnsImmediately) {
  Rng rng(4);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(5);

  runtime::CancelToken token;
  token.request_stop();
  FindAnglesOptions opt = quick_options();
  opt.budget.cancel = &token;
  auto schedules = find_angles(mixer, table, 3, opt);
  ASSERT_EQ(schedules.size(), 1u);
  EXPECT_EQ(schedules[0].stop_reason, runtime::StopReason::Cancelled);
}

TEST(BudgetedFindAngles, GenerousBudgetChangesNothing) {
  Rng rng(4);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(5);

  FindAnglesOptions plain = quick_options();
  auto reference = find_angles(mixer, table, 2, plain);

  FindAnglesOptions budgeted = quick_options();
  budgeted.budget.wall_seconds = 3600.0;
  budgeted.budget.max_evaluations = 100'000'000;
  auto limited = find_angles(mixer, table, 2, budgeted);

  ASSERT_EQ(limited.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(limited[i].betas, reference[i].betas);
    EXPECT_EQ(limited[i].gammas, reference[i].gammas);
    EXPECT_EQ(limited[i].stop_reason, runtime::StopReason::None);
  }
}

TEST(BudgetedFindAngles, BudgetStoppedResumeMatchesUninterruptedRun) {
  TempDir tmp;
  Rng rng(4);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(5);

  FindAnglesOptions plain = quick_options();
  auto reference = find_angles(mixer, table, 3, plain);

  // Tiny evaluation budget: the run is cut short mid-search and the last
  // (flagged) round lands in the checkpoint for inspection.
  FindAnglesOptions budgeted = quick_options();
  budgeted.checkpoint_file = tmp.path("budget.txt");
  budgeted.budget.max_evaluations = 60;
  auto partial = find_angles(mixer, table, 3, budgeted);
  ASSERT_FALSE(partial.empty());
  EXPECT_TRUE(partial.back().stopped_early());

  // Resume without a budget: flagged rounds are re-run from their own RNG
  // streams, so the final result is bit-identical to never having been
  // interrupted at all.
  FindAnglesOptions resume = quick_options();
  resume.checkpoint_file = tmp.path("budget.txt");
  auto resumed = find_angles(mixer, table, 3, resume);
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(resumed[i].betas, reference[i].betas);
    EXPECT_EQ(resumed[i].gammas, reference[i].gammas);
    EXPECT_DOUBLE_EQ(resumed[i].expectation, reference[i].expectation);
  }
}

TEST(BudgetedFindAngles, RandomStrategyHonoursBudget) {
  Rng rng(4);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(5);

  FindAnglesOptions opt = quick_options();
  opt.budget.max_evaluations = 30;
  AngleSchedule s = find_angles_random(mixer, table, 2, 16, opt);
  EXPECT_EQ(s.stop_reason, runtime::StopReason::MaxEvaluations);
  EXPECT_TRUE(std::isfinite(s.expectation));  // restart 0 always runs
}

TEST(BudgetedFindAngles, GridStrategyHonoursBudget) {
  Rng rng(4);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(5);

  runtime::CancelToken token;
  token.request_stop();
  FindAnglesOptions opt = quick_options();
  opt.budget.cancel = &token;
  AngleSchedule s = find_angles_grid(mixer, table, 1, 8, opt);
  EXPECT_EQ(s.stop_reason, runtime::StopReason::Cancelled);
}

// --- non-finite guardrails ---------------------------------------------

TEST(NonFinite, PlanRejectsPoisonedObjectiveTable) {
  XMixer mixer = XMixer::transverse_field(3);
  dvec table(8, 1.0);
  table[5] = std::numeric_limits<double>::quiet_NaN();
  expect_error_containing([&] { QaoaPlan(mixer, table, 1); }, "index 5");
  table[5] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(QaoaPlan(mixer, table, 1), Error);
}

TEST(NonFinite, PlanRejectsPoisonedPhaseTable) {
  XMixer mixer = XMixer::transverse_field(3);
  dvec table(8, 1.0);
  QaoaPlanOptions options;
  options.phase_values = dvec(8, 0.5);
  (*options.phase_values)[2] = std::numeric_limits<double>::quiet_NaN();
  expect_error_containing(
      [&] { QaoaPlan(mixer, table, 1, std::move(options)); },
      "phase-separator");
}

TEST(NonFinite, BfgsBacksAwayFromNonFiniteRegion) {
  // f = (x-1)^2 for x >= 0, NaN beyond the wall at x < 0: the line search
  // may probe the poisoned region, but the returned iterate stays finite.
  GradObjective fn = [](std::span<const double> x, std::span<double> grad) {
    if (x[0] < 0.0) {
      if (!grad.empty()) grad[0] = std::numeric_limits<double>::quiet_NaN();
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (!grad.empty()) grad[0] = 2.0 * (x[0] - 1.0);
    return (x[0] - 1.0) * (x[0] - 1.0);
  };
  OptResult res = bfgs_minimize(fn, {0.5}, {});
  EXPECT_TRUE(std::isfinite(res.f));
  EXPECT_NEAR(res.x[0], 1.0, 1e-5);
}

TEST(NonFinite, BfgsReportsFullyPoisonedObjective) {
  GradObjective fn = [](std::span<const double> x, std::span<double> grad) {
    (void)x;
    if (!grad.empty()) grad[0] = std::numeric_limits<double>::quiet_NaN();
    return std::numeric_limits<double>::quiet_NaN();
  };
  OptResult res = bfgs_minimize(fn, {0.5}, {});
  EXPECT_EQ(res.stop_reason, runtime::StopReason::NonFinite);
  EXPECT_FALSE(res.converged);
}

// --- checkpoint persistence --------------------------------------------

CheckpointFingerprint test_fingerprint() {
  return CheckpointFingerprint{32, Direction::Maximize, 1234,
                               "x-mixer(tf n=5)"};
}

std::vector<AngleSchedule> sample_schedules() {
  std::vector<AngleSchedule> schedules(2);
  schedules[0] = {1, {0.1}, {0.2}, 3.5, 10, 20};
  schedules[1] = {2, {0.1, 0.3}, {0.2, 0.4}, 4.25, 30, 60};
  return schedules;
}

TEST(Checkpoint, FingerprintRoundTrip) {
  TempDir tmp;
  const std::string path = tmp.path("fp.txt");
  save_checkpoint(path, sample_schedules(), test_fingerprint());
  auto loaded = load_checkpoint(path, test_fingerprint());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].optimizer_calls, 10u);
  EXPECT_EQ(loaded[1].evaluations, 60u);
  EXPECT_EQ(loaded[1].betas, sample_schedules()[1].betas);
}

TEST(Checkpoint, EachFingerprintFieldIsValidated) {
  TempDir tmp;
  const std::string path = tmp.path("fp.txt");
  save_checkpoint(path, sample_schedules(), test_fingerprint());

  CheckpointFingerprint wrong = test_fingerprint();
  wrong.dim = 64;
  expect_error_containing([&] { load_checkpoint(path, wrong); }, "dimension");

  wrong = test_fingerprint();
  wrong.direction = Direction::Minimize;
  expect_error_containing([&] { load_checkpoint(path, wrong); }, "direction");

  wrong = test_fingerprint();
  wrong.seed = 999;
  expect_error_containing([&] { load_checkpoint(path, wrong); }, "seed");

  wrong = test_fingerprint();
  wrong.mixer = "grover";
  expect_error_containing([&] { load_checkpoint(path, wrong); }, "mixer");

  // And without an expected fingerprint the same file loads fine (the
  // inspection-tool escape hatch).
  EXPECT_EQ(load_checkpoint(path).size(), 2u);
}

TEST(Checkpoint, UnfingerprintedFileRefusedWhenValidationRequested) {
  TempDir tmp;
  const std::string path = tmp.path("nofp.txt");
  save_checkpoint(path, sample_schedules());  // "fingerprint none"
  expect_error_containing([&] { load_checkpoint(path, test_fingerprint()); },
                          "predates fingerprinting");
}

TEST(Checkpoint, LegacyV1FilesAreAnUnrecognizedHeader) {
  TempDir tmp;
  const std::string path = tmp.path("v1.txt");
  std::ofstream(path) << "fastqaoa-angles v1\n1\n1 2.5\n0.1\n0.2\n";
  // The v1 reader is gone: with or without validation the file is refused.
  expect_error_containing([&] { load_checkpoint(path); },
                          "unrecognized header");
  expect_error_containing([&] { load_checkpoint(path, test_fingerprint()); },
                          "unrecognized header");
}

TEST(Checkpoint, CorruptionMatrixProducesDistinctErrors) {
  TempDir tmp;

  const std::string wrong_header = tmp.path("header.txt");
  std::ofstream(wrong_header) << "not a checkpoint at all\n";
  expect_error_containing([&] { load_checkpoint(wrong_header); },
                          "unrecognized header");

  const std::string bad_count = tmp.path("count.txt");
  std::ofstream(bad_count) << "fastqaoa-angles v2\nfingerprint none\nxyz\n";
  expect_error_containing([&] { load_checkpoint(bad_count); },
                          "corrupt schedule count");

  const std::string truncated = tmp.path("truncated.txt");
  std::ofstream(truncated)
      << "fastqaoa-angles v2\nfingerprint none\n2\n1 3.5 10 20 0\n0.1\n0.2\n";
  expect_error_containing([&] { load_checkpoint(truncated); },
                          "corrupt schedule entry");

  const std::string garbage_angles = tmp.path("angles.txt");
  std::ofstream(garbage_angles)
      << "fastqaoa-angles v2\nfingerprint none\n1\n1 3.5 10 20 0\nxyz\n0.2\n";
  expect_error_containing([&] { load_checkpoint(garbage_angles); },
                          "corrupt angles");

  const std::string bad_stop = tmp.path("stop.txt");
  std::ofstream(bad_stop)
      << "fastqaoa-angles v2\nfingerprint none\n1\n1 3.5 10 20 99\n0.1\n0.2\n";
  expect_error_containing([&] { load_checkpoint(bad_stop); },
                          "corrupt stop reason");

  expect_error_containing([&] { load_checkpoint(tmp.path("missing.txt")); },
                          "cannot open");
}

TEST(Checkpoint, FindAnglesRefusesForeignCheckpoint) {
  TempDir tmp;
  Rng rng(4);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(5);

  FindAnglesOptions opt = quick_options();
  opt.checkpoint_file = tmp.path("resume.txt");
  find_angles(mixer, table, 1, opt);

  // Same file, different seed: resuming would silently splice two distinct
  // runs together — must be rejected, loudly, naming the culprit.
  FindAnglesOptions other = quick_options();
  other.checkpoint_file = opt.checkpoint_file;
  other.seed = 4321;
  expect_error_containing(
      [&] { find_angles(mixer, table, 2, other); }, "seed");
}

TEST(Checkpoint, AtomicWriteCleansUpOnOpenFailure) {
  TempDir tmp;
  const std::string path = tmp.path("no_such_dir/angles.txt");
  expect_error_containing(
      [&] { runtime::atomic_write_file(path, "data", "test_writer"); },
      "test_writer");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Checkpoint, AtomicWriteCleansUpOnRenameFailure) {
  TempDir tmp;
  // The destination is an existing *directory*, so the final rename must
  // fail — the error carries the OS message and no .tmp file is left.
  const std::string path = tmp.path("target_dir");
  std::filesystem::create_directories(path);
  try {
    runtime::atomic_write_file(path, "data", "save_checkpoint");
    FAIL() << "expected rename failure";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("save_checkpoint"),
              std::string::npos);
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Checkpoint, ReadFileIfExists) {
  TempDir tmp;
  EXPECT_FALSE(runtime::read_file_if_exists(tmp.path("nope")).has_value());
  runtime::atomic_write_file(tmp.path("yes"), "payload", "test");
  auto contents = runtime::read_file_if_exists(tmp.path("yes"));
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(*contents, "payload");
}

// --- crash-safe ensembles ----------------------------------------------

EnsembleConfig small_ensemble(int threads) {
  EnsembleConfig config;
  config.instances = 4;
  config.max_rounds = 2;
  config.seed = 777;
  config.threads = threads;
  config.angle_options.hopping.hops = 3;
  config.angle_options.hopping.local.max_iterations = 40;
  return config;
}

InstanceFactory maxcut_factory(int n) {
  return [n](Rng& rng) {
    Graph g = erdos_renyi(n, 0.5, rng);
    return tabulate(StateSpace::full(n),
                    [&g](state_t x) { return maxcut(g, x); });
  };
}

TEST(EnsembleCheckpoint, SecondRunLoadsEverythingBitIdentically) {
  TempDir tmp;
  XMixer mixer = XMixer::transverse_field(5);
  EnsembleConfig config = small_ensemble(1);
  config.checkpoint_dir = tmp.path("study");

  EnsembleResult first = run_ensemble(mixer, maxcut_factory(5), config);
  EXPECT_EQ(first.completed_instances, config.instances);
  EXPECT_FALSE(first.stopped_early());
  ASSERT_TRUE(std::filesystem::exists(
      std::filesystem::path(config.checkpoint_dir) / "manifest.txt"));

  // Every instance is on disk, so the re-run computes nothing new and the
  // results are bit-identical.
  EnsembleResult second = run_ensemble(mixer, maxcut_factory(5), config);
  EXPECT_EQ(second.completed_instances, config.instances);
  for (int i = 0; i < config.instances; ++i) {
    ASSERT_EQ(second.ratios[i].size(), first.ratios[i].size());
    for (std::size_t p = 0; p < first.ratios[i].size(); ++p) {
      EXPECT_DOUBLE_EQ(second.ratios[i][p], first.ratios[i][p]);
    }
    for (std::size_t p = 0; p < first.schedules[i].size(); ++p) {
      EXPECT_EQ(second.schedules[i][p].betas, first.schedules[i][p].betas);
      EXPECT_EQ(second.schedules[i][p].gammas, first.schedules[i][p].gammas);
    }
  }
}

TEST(EnsembleCheckpoint, PartialDirectoryResumesOnlyMissingInstances) {
  TempDir tmp;
  XMixer mixer = XMixer::transverse_field(5);

  EnsembleConfig plain = small_ensemble(1);
  EnsembleResult reference = run_ensemble(mixer, maxcut_factory(5), plain);

  EnsembleConfig config = small_ensemble(1);
  config.checkpoint_dir = tmp.path("study");
  run_ensemble(mixer, maxcut_factory(5), config);
  // Simulate a study that died before instances 1 and 3 finished.
  std::filesystem::remove(
      std::filesystem::path(config.checkpoint_dir) / "instance_1.txt");
  std::filesystem::remove(
      std::filesystem::path(config.checkpoint_dir) / "instance_3.txt");

  // Resume at a different thread count: the recomputed instances replay
  // their serially forked streams, so everything matches the uninterrupted
  // no-checkpoint reference bit for bit.
  config.threads = 4;
  EnsembleResult resumed = run_ensemble(mixer, maxcut_factory(5), config);
  EXPECT_EQ(resumed.completed_instances, config.instances);
  for (int i = 0; i < config.instances; ++i) {
    for (std::size_t p = 0; p < reference.schedules[i].size(); ++p) {
      EXPECT_EQ(resumed.schedules[i][p].betas,
                reference.schedules[i][p].betas);
      EXPECT_EQ(resumed.schedules[i][p].gammas,
                reference.schedules[i][p].gammas);
    }
  }
}

TEST(EnsembleCheckpoint, ManifestMismatchIsRejectedPerField) {
  TempDir tmp;
  XMixer mixer = XMixer::transverse_field(5);
  EnsembleConfig config = small_ensemble(1);
  config.checkpoint_dir = tmp.path("study");
  run_ensemble(mixer, maxcut_factory(5), config);

  EnsembleConfig other = config;
  other.seed = 42;
  expect_error_containing(
      [&] { run_ensemble(mixer, maxcut_factory(5), other); }, "seed");

  other = config;
  other.instances = 7;
  expect_error_containing(
      [&] { run_ensemble(mixer, maxcut_factory(5), other); },
      "instance count");

  other = config;
  other.max_rounds = 5;
  expect_error_containing(
      [&] { run_ensemble(mixer, maxcut_factory(5), other); }, "max_rounds");
}

TEST(EnsembleCheckpoint, GarbageManifestFailsLoudly) {
  TempDir tmp;
  XMixer mixer = XMixer::transverse_field(5);
  EnsembleConfig config = small_ensemble(1);
  config.checkpoint_dir = tmp.path("study");
  std::filesystem::create_directories(config.checkpoint_dir);
  std::ofstream(std::filesystem::path(config.checkpoint_dir) /
                "manifest.txt")
      << "someone else's file\n";
  expect_error_containing(
      [&] { run_ensemble(mixer, maxcut_factory(5), config); },
      "unrecognized manifest header");
}

TEST(EnsembleBudget, TrippedBudgetReturnsPartialStudyWithoutThrowing) {
  XMixer mixer = XMixer::transverse_field(5);
  EnsembleConfig config = small_ensemble(1);
  config.budget.max_evaluations = 50;  // roughly one instance's first steps
  EnsembleResult result = run_ensemble(mixer, maxcut_factory(5), config);
  EXPECT_EQ(result.stop_reason, runtime::StopReason::MaxEvaluations);
  EXPECT_LT(result.completed_instances, config.instances);
  // Aggregation is guarded: rounds nobody reached report count == 0.
  ASSERT_EQ(result.per_round.size(), 2u);
  EXPECT_LE(result.per_round[1].count,
            static_cast<std::size_t>(config.instances));
}

TEST(EnsembleBudget, PreCancelledStudyCompletesNothing) {
  XMixer mixer = XMixer::transverse_field(5);
  runtime::CancelToken token;
  token.request_stop();
  EnsembleConfig config = small_ensemble(1);
  config.budget.cancel = &token;
  EnsembleResult result = run_ensemble(mixer, maxcut_factory(5), config);
  EXPECT_EQ(result.stop_reason, runtime::StopReason::Cancelled);
  EXPECT_EQ(result.completed_instances, 0);
}

}  // namespace
}  // namespace fastqaoa
