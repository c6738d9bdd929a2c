#pragma once
/// \file e2e.hpp
/// Shared types of `qaoa_e2e`, the end-to-end benchmark of `qaoa_serve`.
///
/// One run = one workload against one freshly exec'd `qaoa_serve`: set-up
/// (exec -> first ping -> pre-warm the hot set, repeated), an unmeasured
/// warm-up, the timed window (closed loop on one connection; hits on the hot
/// set with misses mixed in), a short run on a second daemon that measures
/// memory (untraced runs only), correctness oracles, and (traced runs only)
/// an in-process stage replay plus layer and kernel probes. Every request is
/// a pure function of (workload, seed, index), so the same seed always sends
/// the same inputs.
///
/// Times are read from the daemon's CPU clock: with one request in flight
/// and one OpenMP thread per worker, the CPU time the daemon spends between
/// a request's send and its reply is that request's work. The kernel leaves
/// time stolen by the hypervisor out of a process's CPU clock, and on a
/// shared host that steal moved wall-clock latency by up to 2.8x between
/// runs minutes apart (README.md).

#include <cstddef>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "service/job.hpp"
#include "service/json.hpp"

namespace e2e {

using fastqaoa::service::JobSpec;
using fastqaoa::service::Json;

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  int hot = 0;             ///< hot instances pre-warmed at set-up
  int miss_every = 1;      ///< every Nth request is a fixed cold instance
  int ratio_prefix = 0;    ///< approx_ratio over request indices < this
  int oracle_stride = 1;   ///< oracle checks indices that are multiples ...
  int oracle_cap = 1;      ///< ... up to this many
  int replay_requests = 0; ///< traced run: first N requests replayed
  /// Quantile level of the `*_tail` metrics: the highest that leaves ten
  /// hits of a window beyond it (see workloads()). Fixed per workload, so a
  /// parent and a change always compare the same quantile.
  double tail_level = 0.9;
};

/// The four workloads, in run order.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Request `index` of the timed window.
JobSpec window_request(const Workload& w, std::uint64_t seed,
                       std::uint64_t index);
/// Warm-up requests come from their own stream, so the window's inputs do
/// not depend on how many warm-up requests fit before it.
JobSpec warmup_request(const Workload& w, std::uint64_t seed,
                       std::uint64_t index);
/// Pre-warm request for hot instance `i` (builds its plan in the daemon).
/// Seed-independent, like the hot instances, so set-up does the same work
/// in every run.
JobSpec prewarm_request(const Workload& w, int i);

// --- one request's record ---------------------------------------------------

struct Sample {
  std::uint64_t index = 0;
  double rtt_ms = 0.0;      ///< send -> reply, wall clock
  double cpu_ms = 0.0;      ///< daemon CPU time from send to reply
  double lag_ms = 0.0;      ///< previous reply -> send
  double server_s = 0.0;    ///< response result.seconds (wall clock)
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  bool ok = false;
  bool cache_hit = false;
  Json response;  ///< kept for the oracle sample and ratio prefix only
};

// --- daemon ------------------------------------------------------------------

/// A `qaoa_serve` child process on a Unix socket; SIGTERM + reap on stop()
/// or destruction.
class Daemon {
 public:
  /// `pinned_malloc` fixes glibc's mmap threshold at 32 KiB in the child, so
  /// every buffer of 32 KiB or more it frees goes back to the OS and its
  /// VmHWM follows live memory rather than allocator history.
  Daemon(const std::string& serve_path, const std::string& socket_path,
         const std::string& log_path, bool pinned_malloc = false);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Block until the socket answers a ping (throws after 20 s).
  void wait_ready();
  [[nodiscard]] const std::string& socket() const { return socket_; }
  /// CPU time the daemon has used so far, all its threads, in seconds (its
  /// process CPU clock, which counts no time stolen by the hypervisor).
  [[nodiscard]] double cpu_seconds() const;
  /// Peak resident set (VmHWM) in MB, read from /proc.
  [[nodiscard]] double peak_rss_mb() const;
  /// SIGTERM, then reap (SIGKILL after 10 s). Returns the exit status.
  int stop();

 private:
  std::string socket_;
  int pid_ = -1;
  clockid_t cpu_clock_{};
};

// --- load --------------------------------------------------------------------

struct LoadResult {
  std::vector<Sample> samples;  ///< by completion, any order
  double elapsed_s = 0.0;       ///< window start -> last reply
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// What one load phase sends: request `index` is make(index); `keep`
/// decides which responses are retained (oracle sample, ratio prefix).
struct Stream {
  std::function<JobSpec(std::uint64_t)> make;
  std::function<bool(std::uint64_t)> keep = [](std::uint64_t) {
    return false;
  };
};

/// Closed loop on one connection to `daemon` until `seconds` have passed or
/// `max_requests` (0 = no limit) requests have been sent: the next request
/// goes out as soon as the previous reply arrives.
LoadResult run_closed(const Daemon& daemon, double seconds,
                      std::uint64_t max_requests, const Stream& stream);

// --- oracles -----------------------------------------------------------------

struct OracleResult {
  int checked = 0;
  int mismatched = 0;
  std::vector<double> ratios;  ///< served / reference, ratio-prefix requests
  std::vector<std::string> notes;
};

/// Rebuild the sampled requests in-process and compare bit for bit; compute
/// approximation ratios for the ratio prefix.
OracleResult run_oracles(const Workload& w, std::uint64_t seed,
                         const std::vector<Sample>& samples);

// --- traced replay and probes ------------------------------------------------

using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct ReplayResult {
  double coverage_ms_median = 0.0;  ///< execute-equivalent time per request
  Metrics metrics;
  std::string selftime_table;
};

/// Replay the window's first w.replay_requests requests in-process, one at a
/// time on one OpenMP thread; spans written to `trace_path`.
ReplayResult run_replay(const Workload& w, std::uint64_t seed,
                        const std::string& trace_path);

/// Per-layer probes (objective, key, builds, evaluate, gradient,
/// find_angles, MPS) plus the kernel-table probe and the STREAM triads at
/// the kernels' footprints and at DRAM scale.
Metrics run_probes(const Workload& w, std::uint64_t seed);

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v);
/// Percentile q in [0,1] by linear interpolation.
double percentile(std::vector<double> v, double q);
/// Python statistics.quantiles(v, n=4) (exclusive method): {q1, q2, q3}.
std::vector<double> quartiles(std::vector<double> v);

}  // namespace e2e
