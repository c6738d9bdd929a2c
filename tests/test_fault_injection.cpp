// Failure-path tests driven by the deterministic fault-injection harness
// (src/runtime/fault.hpp). Every test is skipped unless the build was
// configured with -DFASTQAOA_FAULT_INJECTION=ON — the dedicated CI job runs
// them; release/TSan builds compile this file to a row of skips.
//
// The crash-kill tests fork(): the child arms a crash fault, runs, and dies
// with _Exit(137) at the instrumented site; the parent reaps it and then
// resumes from the checkpoint the child left behind. gtest_discover_tests
// runs each TEST in its own process, so the fork happens before this
// process ever enters an OpenMP region (forking an initialized OpenMP
// runtime is undefined; a fresh child is fine).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "anglefind/strategies.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "mixers/x_mixer.hpp"
#include "mps/mps_strategies.hpp"
#include "obs/metrics.hpp"
#include "problems/cost_functions.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "study/ensemble.hpp"

namespace fastqaoa {
namespace {

#define SKIP_WITHOUT_FAULT_INJECTION()                                   \
  if (!fault::compiled_in()) {                                           \
    GTEST_SKIP() << "build configured with FASTQAOA_FAULT_INJECTION=OFF"; \
  }

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("fastqaoa_fault_" + std::to_string(::getpid()) + "_" +
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

struct FaultReset {
  ~FaultReset() { fault::reset(); }
};

dvec maxcut_table(const Graph& g) {
  return tabulate(StateSpace::full(g.num_vertices()),
                  [&g](state_t x) { return maxcut(g, x); });
}

FindAnglesOptions quick_options() {
  FindAnglesOptions opt;
  opt.hopping.hops = 3;
  opt.hopping.local.max_iterations = 40;
  opt.seed = 1234;
  return opt;
}

/// Fork, run `child` (which must terminate the process itself), and return
/// the child's exit status as seen by waitpid.
template <typename Fn>
int run_in_child(Fn&& child) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    child();
    std::_Exit(0);  // reached only if the armed crash fault did NOT fire
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// --- quarantine-and-reseed ---------------------------------------------

TEST(FaultInjection, PoisonedChainIsQuarantinedAndBestStaysFinite) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultReset cleanup;
  Rng rng(4);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(6);

  FindAnglesOptions opt = quick_options();
  opt.parallel_starts = 8;
  const std::vector<double> x0 = {0.3, 0.3, 0.7, 0.7};

  // Poison chain 3's objective once: the chain diverges, gets quarantined,
  // and re-runs on a reseeded stream — the best-of-chains answer must come
  // out finite.
  fault::arm("anglefind.chain_nan", /*index=*/3);
  AngleSchedule injected = find_angles_at(mixer, table, 2, x0, opt);
  EXPECT_EQ(fault::fired_count("anglefind.chain_nan"), 1);
  EXPECT_TRUE(std::isfinite(injected.expectation));
  EXPECT_FALSE(injected.betas.empty());

#ifdef FASTQAOA_PROFILING_ENABLED
  const obs::MetricsSnapshot snap = obs::global_snapshot();
  const auto it = snap.counters.find("runtime.quarantine.chains");
  ASSERT_NE(it, snap.counters.end())
      << "quarantine events missing from the metrics snapshot";
  EXPECT_GE(it->second, 1u);
#endif
}

TEST(FaultInjection, PoisonedMpsChainIsQuarantinedAndBestStaysFinite) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultReset cleanup;
  // The MPS engine runs the same guarded chains as the exact engine.
  mps::MpsPlan plan(mps::maxcut_hamiltonian(ring_graph(8)), {.max_bond = 8});
  FindAnglesOptions opt = quick_options();
  opt.hopping.hops = 1;
  opt.hopping.local.max_iterations = 10;
  opt.parallel_starts = 4;
  const std::vector<double> x0 = {0.3, 0.3, 0.7, 0.7};

#ifdef FASTQAOA_PROFILING_ENABLED
  const auto quarantined = [] {
    const obs::MetricsSnapshot snap = obs::global_snapshot();
    const auto it = snap.counters.find("runtime.quarantine.chains");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t before = quarantined();
#endif
  fault::arm("anglefind.chain_nan", /*index=*/3);
  AngleSchedule injected = mps::find_angles_at_mps(plan, 2, x0, opt);
  EXPECT_EQ(fault::fired_count("anglefind.chain_nan"), 1);
  EXPECT_TRUE(std::isfinite(injected.expectation));
  EXPECT_FALSE(injected.betas.empty());
#ifdef FASTQAOA_PROFILING_ENABLED
  EXPECT_EQ(quarantined() - before, 1u);
#endif
}

TEST(FaultInjection, QuarantineIsDeterministicAcrossThreadCounts) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultReset cleanup;
  Rng rng(4);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(6);

  FindAnglesOptions opt = quick_options();
  opt.parallel_starts = 8;
  const std::vector<double> x0 = {0.3, 0.3, 0.7, 0.7};

  set_num_threads(1);
  fault::arm("anglefind.chain_nan", 1);
  AngleSchedule serial = find_angles_at(mixer, table, 2, x0, opt);
  fault::reset();

  set_num_threads(4);
  fault::arm("anglefind.chain_nan", 1);
  AngleSchedule parallel = find_angles_at(mixer, table, 2, x0, opt);
  fault::reset();
  set_num_threads(1);

  // The fault is keyed on the chain index (not the executing thread), and
  // reseed attempt k is a pure function of the chain's own stream, so the
  // injected run is bit-identical at any thread count.
  EXPECT_EQ(serial.betas, parallel.betas);
  EXPECT_EQ(serial.gammas, parallel.gammas);
  EXPECT_DOUBLE_EQ(serial.expectation, parallel.expectation);
  EXPECT_TRUE(std::isfinite(serial.expectation));
}

// --- injected factory / checkpoint failures ----------------------------

TEST(FaultInjection, ThrowingInstanceFactoryPropagatesCleanly) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultReset cleanup;
  XMixer mixer = XMixer::transverse_field(5);
  EnsembleConfig config;
  config.instances = 4;
  config.max_rounds = 1;
  config.threads = 2;
  config.angle_options = quick_options();

  fault::arm("study.factory_throw", /*index=*/2);
  try {
    run_ensemble(mixer,
                 [](Rng& inner) {
                   Graph g = erdos_renyi(5, 0.5, inner);
                   return tabulate(StateSpace::full(5), [&g](state_t x) {
                     return maxcut(g, x);
                   });
                 },
                 config);
    FAIL() << "expected the injected factory error to propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected factory failure"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("instance 2"), std::string::npos);
  }
}

TEST(FaultInjection, FailedCheckpointWriteCleansUpTmpFile) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultReset cleanup;
  TempDir tmp;
  const std::string path = tmp.path("angles.txt");

  std::vector<AngleSchedule> schedules(1);
  schedules[0] = {1, {0.1}, {0.2}, 3.5};
  save_checkpoint(path, schedules);  // a good version lands first

  fault::arm("runtime.checkpoint_write_fail");
  schedules[0].expectation = 9.9;
  EXPECT_THROW(save_checkpoint(path, schedules), Error);
  // The failed write removed its temporary and left the previous version
  // intact — the resume file is never corrupted by a failed save.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto loaded = load_checkpoint(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].expectation, 3.5);
}

// --- crash-kill and resume ---------------------------------------------

TEST(FaultInjection, KilledFindAnglesResumesBitIdentically) {
  SKIP_WITHOUT_FAULT_INJECTION();
  TempDir tmp;
  const std::string checkpoint = tmp.path("resume.txt");

  // The child is killed (simulated SIGKILL) right after round 2's
  // checkpoint lands. Fork before any OpenMP usage in this process.
  const int status = run_in_child([&] {
    fault::arm("crash.after_round", /*index=*/2);
    Rng rng(4);
    Graph g = erdos_renyi(5, 0.5, rng);
    dvec table = maxcut_table(g);
    XMixer mixer = XMixer::transverse_field(5);
    FindAnglesOptions opt = quick_options();
    opt.checkpoint_file = checkpoint;
    find_angles(mixer, table, 4, opt);
  });
  ASSERT_EQ(status, 137) << "the armed crash fault did not fire";
  ASSERT_TRUE(std::filesystem::exists(checkpoint));
  ASSERT_EQ(load_checkpoint(checkpoint).size(), 2u);

  Rng rng(4);
  Graph g = erdos_renyi(5, 0.5, rng);
  dvec table = maxcut_table(g);
  XMixer mixer = XMixer::transverse_field(5);

  FindAnglesOptions opt = quick_options();
  opt.checkpoint_file = checkpoint;
  auto resumed = find_angles(mixer, table, 4, opt);

  FindAnglesOptions fresh = quick_options();
  auto reference = find_angles(mixer, table, 4, fresh);

  // Per-round RNG streams make the resumed run replay the uninterrupted
  // one exactly: every surviving round loads bit-identical angles and the
  // re-run rounds draw the same randomness they would have drawn.
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(resumed[i].betas, reference[i].betas);
    EXPECT_EQ(resumed[i].gammas, reference[i].gammas);
    EXPECT_DOUBLE_EQ(resumed[i].expectation, reference[i].expectation);
  }
}

EnsembleConfig crash_config(const std::string& dir, int threads) {
  EnsembleConfig config;
  config.instances = 4;
  config.max_rounds = 2;
  config.seed = 777;
  config.threads = threads;
  config.checkpoint_dir = dir;
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

void killed_ensemble_resumes_bit_identically(int threads) {
  TempDir tmp;
  const std::string dir = tmp.path("study");

  // Child: dies right after instance 1's checkpoint file lands.
  const int status = run_in_child([&] {
    fault::arm("study.crash_after_instance", /*index=*/1);
    XMixer mixer = XMixer::transverse_field(5);
    run_ensemble(mixer, maxcut_factory(5), crash_config(dir, threads));
  });
  ASSERT_EQ(status, 137) << "the armed crash fault did not fire";
  ASSERT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / "instance_1.txt"));

  // Parent: resume the study, then compare with an uninterrupted run.
  XMixer mixer = XMixer::transverse_field(5);
  EnsembleResult resumed =
      run_ensemble(mixer, maxcut_factory(5), crash_config(dir, threads));
  EXPECT_EQ(resumed.completed_instances, 4);
  EXPECT_FALSE(resumed.stopped_early());

  EnsembleConfig plain = crash_config("", threads);
  EnsembleResult reference = run_ensemble(mixer, maxcut_factory(5), plain);

  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(resumed.schedules[i].size(), reference.schedules[i].size());
    for (std::size_t p = 0; p < reference.schedules[i].size(); ++p) {
      EXPECT_EQ(resumed.schedules[i][p].betas,
                reference.schedules[i][p].betas);
      EXPECT_EQ(resumed.schedules[i][p].gammas,
                reference.schedules[i][p].gammas);
      EXPECT_DOUBLE_EQ(resumed.schedules[i][p].expectation,
                       reference.schedules[i][p].expectation);
    }
    for (std::size_t p = 0; p < reference.ratios[i].size(); ++p) {
      EXPECT_DOUBLE_EQ(resumed.ratios[i][p], reference.ratios[i][p]);
    }
  }
}

TEST(FaultInjection, KilledEnsembleResumesBitIdenticallySerial) {
  SKIP_WITHOUT_FAULT_INJECTION();
  killed_ensemble_resumes_bit_identically(/*threads=*/1);
}

TEST(FaultInjection, KilledEnsembleResumesBitIdenticallyParallel) {
  SKIP_WITHOUT_FAULT_INJECTION();
  killed_ensemble_resumes_bit_identically(/*threads=*/4);
}

// --- env-var arming -----------------------------------------------------

TEST(FaultInjection, ArmFromEnvParsesPointIndexAfter) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultReset cleanup;
  ::setenv("FASTQAOA_FAULTS", "anglefind.chain_nan:5:2,crash.after_round:1",
           1);
  fault::arm_from_env();
  ::unsetenv("FASTQAOA_FAULTS");

  EXPECT_FALSE(fault::fire("anglefind.chain_nan", 4));  // wrong index
  EXPECT_FALSE(fault::fire("anglefind.chain_nan", 5));  // after=2: hit 1
  EXPECT_TRUE(fault::fire("anglefind.chain_nan", 5));   // fires on hit 2
  EXPECT_FALSE(fault::fire("anglefind.chain_nan", 5));  // fire-once
  EXPECT_TRUE(fault::fire("crash.after_round", 1));
  EXPECT_EQ(fault::fired_count("anglefind.chain_nan"), 1);
}

// --- network fault points -----------------------------------------------

TEST(FaultInjection, NetFaultPointsExerciseEvictionAndCleanup) {
  SKIP_WITHOUT_FAULT_INJECTION();
  FaultReset cleanup;
  TempDir tmp;

  // Arm one fault per accepted connection (index = accept sequence), then
  // fork the daemon: the child inherits the armed table.
  fault::arm("net.accept_fail", 1);      // conn 1 dropped at accept
  fault::arm("net.short_write", 2);      // conn 2 flushed one byte at a time
  fault::arm("net.drop_connection", 3);  // conn 3 cut mid-frame
  fault::arm("net.stall_reader", 4);     // conn 4 writes never drain

  service::DaemonOptions options;
  options.socket_path = tmp.path("qaoa.sock");
  options.verbose = false;
  options.write_timeout_seconds = 0.3;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::_Exit(service::run_daemon(options));
  }
  fault::reset();  // parent side: only the daemon keeps the armed table

  // Reap the daemon on every exit path so a failing assertion cannot orphan
  // it (an orphan keeps the test's stdout pipe open and hangs the harness).
  struct DaemonGuard {
    pid_t pid;
    ~DaemonGuard() {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  } guard{pid};

  // A connection the daemon drops may end in a clean EOF or, when our last
  // request is still unread in its receive buffer, an RST (recv fails with
  // ECONNRESET and Client::read_line throws). Both count as "disconnected".
  auto disconnected = [](service::Client& c) {
    try {
      std::string line;
      while (c.read_line(line)) {
      }
      return true;  // clean EOF
    } catch (const std::exception&) {
      return true;  // connection reset
    }
  };

  auto connect = [&] {
    for (int attempt = 0; attempt < 200; ++attempt) {
      try {
        return service::Client::connect_unix(options.socket_path);
      } catch (const std::exception&) {
        ::usleep(25 * 1000);
      }
    }
    throw Error("daemon did not come up");
  };
  service::Json ping = service::Json::object();
  ping.set("op", service::Json("ping"));

  // conn 1: accepted then immediately dropped, as if accept() had failed.
  {
    service::Client c1 = connect();
    try {
      c1.send(ping);
    } catch (const std::exception&) {
      // Already closed before our send — also a valid "accept failed" shape.
    }
    EXPECT_TRUE(disconnected(c1));
  }
  // conn 2: one-byte flush passes still deliver a complete response.
  {
    service::Client c2 = connect();
    EXPECT_TRUE(c2.request(ping).at("ok").as_bool());
  }
  // conn 3: abrupt mid-frame close after its next read.
  {
    service::Client c3 = connect();
    c3.send(ping);
    EXPECT_TRUE(disconnected(c3));
  }
  // conn 4: a reader that never drains — evicted within the write timeout.
  {
    service::Client c4 = connect();
    c4.send(ping);
    EXPECT_TRUE(disconnected(c4));
  }
  // conn 5: a healthy connection confirms the daemon shrugged it all off
  // and counted the stalled-reader eviction.
  {
    service::Client c5 = connect();
    service::Json req = service::Json::object();
    req.set("op", service::Json("stats"));
    const service::Json stats = c5.request(req).at("stats");
    EXPECT_GE(stats.at("frontend").at("evicted_slow").as_uint64(), 1u);
  }

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  guard.pid = -1;  // reaped gracefully; nothing left for the guard
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace fastqaoa
