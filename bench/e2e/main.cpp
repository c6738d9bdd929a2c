// qaoa_e2e — end-to-end benchmark of the qaoa_serve daemon.
//
// Usage (normally through bench/e2e/run.sh, from the repository root):
//   qaoa_e2e --serve=PATH [--workload=NAME|all] [--seed=N] [--seconds=S]
//            [--trace=0|1] [--sets=K] [--work=DIR] [--commit=SHA]
//
// Prints every metric as "<workload> <metric> <value> <unit>" and, as the
// last line, one JSON object {"correct","attempted","failed","metrics"}.
// Exit code 0 only when every request succeeded and every oracle matched.
// See README.md for the workloads, the metrics and how to read a trace.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/threading.hpp"
#include "e2e.hpp"
#include "service/client.hpp"

namespace {

using namespace e2e;
using clk = std::chrono::steady_clock;
using fastqaoa::service::Client;

/// Fresh daemons started per untraced run (setup_s is their median): at
/// least kMinSetups, and more until kSetupSeconds have been spent, so that
/// millisecond-scale set-ups get a steady median too.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 1.0;
/// Unmeasured load before the window: lazy allocation and first-touch page
/// faults of the workers' workspaces happen here.
constexpr double kWarmupSeconds = 1.0;
/// Traffic the memory daemon serves after its set-up (see run_workload).
constexpr double kMemorySeconds = 1.0;
constexpr std::uint64_t kMemoryRequests = 64;

struct Args {
  std::string serve;
  std::string workload = "all";
  std::string work = ".bench_build/e2e/run";
  std::string commit = "unknown";
  std::uint64_t seed = 1;
  double seconds = 22.0;
  bool trace = false;
  int sets = 1;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--serve") a.serve = value;
    else if (key == "--workload") a.workload = value;
    else if (key == "--work") a.work = value;
    else if (key == "--commit") a.commit = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value.empty() || value == "1";
    else if (key == "--sets") a.sets = std::stoi(value);
    else throw fastqaoa::Error("unknown argument '" + arg + "'");
  }
  FASTQAOA_CHECK(!a.serve.empty(), "--serve=PATH is required");
  FASTQAOA_CHECK(a.seconds > 0.0 && a.sets >= 1, "bad --seconds or --sets");
  FASTQAOA_CHECK(a.workload == "all" || find_workload(a.workload) != nullptr,
                 "unknown workload '" + a.workload + "'");
  return a;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Host and build fingerprint stamped on every result.
std::string fingerprint(const Args& a, const std::string& backend) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  int numa = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(
           "/sys/devices/system/node", ec)) {
    if (e.path().filename().string().rfind("node", 0) == 0) ++numa;
  }
  const char* omp = std::getenv("OMP_NUM_THREADS");
  std::ostringstream s;
  s << "cpu=\"" << cpu << "\" nproc=" << std::thread::hardware_concurrency()
    << " numa_nodes=" << numa << " llc="
    << read_first_line("/sys/devices/system/cpu/cpu0/cache/index3/size")
    << " gxx=" << __VERSION__ << " build=" << E2E_BUILD_TYPE
#ifdef FASTQAOA_PROFILING_ENABLED
    << " profiling=ON"
#else
    << " profiling=OFF"
#endif
    << " kernel_backend=" << backend << " omp_threads=" << (omp ? omp : "unset")
    << " commit=" << a.commit;
  return s.str();
}

struct RunOutput {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  std::string backend = "unknown";
};

void tally(RunOutput& out, const LoadResult& r) {
  out.attempted += r.attempted;
  out.failed += r.failed;
}

Json control(const std::string& socket, const char* op) {
  Client c = Client::connect_unix(socket);
  Json req = Json::object();
  req.set("op", Json(op));
  return c.request(req);
}

RunOutput run_workload(const Args& a, const Workload& w, std::uint64_t seed,
                       bool trace) {
  RunOutput out;
  const clk::time_point t_start = clk::now();
  auto phase = [&](const char* name) {
    std::fprintf(stderr, "qaoa_e2e: %s %s done at %.2f s\n", w.name.c_str(),
                 name,
                 std::chrono::duration<double>(clk::now() - t_start).count());
  };
  const std::string sock = a.work + "/" + w.name + ".sock";
  const std::string log = a.work + "/" + w.name + ".log";

  // Set-up: exec -> first ping -> one pre-warm request per hot instance,
  // timed as the daemon's CPU seconds at its end.
  Stream prewarm;
  prewarm.make = [&](std::uint64_t i) {
    return prewarm_request(w, static_cast<int>(i));
  };
  const auto hot = static_cast<std::uint64_t>(w.hot);
  std::vector<double> setup_s;
  double setup_wall_s = 0.0;
  std::unique_ptr<Daemon> daemon;
  while (setup_s.empty() ||
         (!trace && setup_s.size() < kMaxSetups &&
          (setup_s.size() < kMinSetups || setup_wall_s < kSetupSeconds))) {
    if (daemon != nullptr && daemon->stop() != 0) {
      out.notes.push_back("qaoa_serve did not drain cleanly");
      ++out.failed;
    }
    const clk::time_point t0 = clk::now();
    daemon = std::make_unique<Daemon>(a.serve, sock, log);
    daemon->wait_ready();
    tally(out, run_closed(*daemon, 1e9, hot, prewarm));
    setup_s.push_back(daemon->cpu_seconds());
    setup_wall_s += std::chrono::duration<double>(clk::now() - t0).count();
  }

  phase("setup");
  Stream warm;
  warm.make = [&](std::uint64_t k) { return warmup_request(w, seed, k); };
  tally(out, run_closed(*daemon, kWarmupSeconds, 0, warm));
  phase("warmup");
  Stream window;
  window.make = [&](std::uint64_t k) { return window_request(w, seed, k); };
  window.keep = [&](std::uint64_t k) {
    return k < static_cast<std::uint64_t>(w.ratio_prefix) ||
           (k % static_cast<std::uint64_t>(w.oracle_stride) == 0 &&
            k / static_cast<std::uint64_t>(w.oracle_stride) <
                static_cast<std::uint64_t>(w.oracle_cap));
  };
  const LoadResult win = run_closed(*daemon, a.seconds, 0, window);
  tally(out, win);
  phase("window");
  {
    std::ofstream csv(a.work + "/samples_" + w.name + ".csv");
    csv << "index,cpu_ms,rtt_ms,server_ms,lag_ms,ok,cache_hit\n";
    for (const Sample& s : win.samples) {
      csv << s.index << ',' << s.cpu_ms << ',' << s.rtt_ms << ','
          << s.server_s * 1e3 << ',' << s.lag_ms << ',' << s.ok << ','
          << s.cache_hit << '\n';
    }
  }
  const Json stats = control(sock, "stats").at("stats");
  out.backend = stats.at("kernel_backend").as_string();
  if (daemon->stop() != 0) {
    out.notes.push_back("qaoa_serve did not drain cleanly");
    ++out.failed;
  }

  // daemon_peak_rss_mb comes from a second daemon, with a pinned mmap
  // threshold, that serves the set-up and a short burst of the warm-up
  // stream: its VmHWM follows live memory. The daemon measured above keeps
  // glibc's defaults, under which identical eval_hot runs peaked anywhere
  // from 62 to 131 MB; pinned, its eval_hot median was 3-6% slower
  // (README.md).
  double rss_mb = 0.0;
  if (!trace) {
    Daemon mem(a.serve, sock, log, /*pinned_malloc=*/true);
    mem.wait_ready();
    tally(out, run_closed(mem, 1e9, hot, prewarm));
    tally(out, run_closed(mem, kMemorySeconds, kMemoryRequests, warm));
    rss_mb = mem.peak_rss_mb();
    if (mem.stop() != 0) {
      out.notes.push_back("qaoa_serve did not drain cleanly");
      ++out.failed;
    }
    phase("memory");
  }

  const OracleResult oracle = run_oracles(w, seed, win.samples);
  out.failed += static_cast<std::uint64_t>(oracle.mismatched);
  for (const std::string& n : oracle.notes) out.notes.push_back(n);
  if (oracle.checked == 0 || oracle.ratios.empty()) {
    out.notes.push_back("oracle sample is empty");
    ++out.failed;
  }

  phase("oracles");
  std::vector<double> hit_cpu;
  std::vector<double> miss_cpu;
  std::vector<double> rtt;
  std::vector<double> residual;
  std::vector<double> lag;
  std::vector<double> server_ms;
  std::vector<double> req_bytes;
  std::vector<double> resp_bytes;
  double cpu_ms = 0.0;
  for (const Sample& s : win.samples) {
    if (!s.ok) continue;
    (s.cache_hit ? hit_cpu : miss_cpu).push_back(s.cpu_ms);
    cpu_ms += s.cpu_ms;
    rtt.push_back(s.rtt_ms);
    residual.push_back(s.rtt_ms - s.server_s * 1e3);
    lag.push_back(s.lag_ms);
    server_ms.push_back(s.server_s * 1e3);
    req_bytes.push_back(static_cast<double>(s.request_bytes));
    resp_bytes.push_back(static_cast<double>(s.response_bytes));
  }
  FASTQAOA_CHECK(!hit_cpu.empty() && !miss_cpu.empty(),
                 w.name + ": the window produced too few samples");
  const double hit_ratio = static_cast<double>(hit_cpu.size()) /
                           static_cast<double>(rtt.size());

  Metrics& m = out.metrics;
  if (!trace) {
    std::printf("# %s wall clock: %zu requests, %.4g req/s, round trip p50 "
                "%.4g ms, p90 %.4g ms; set-up mean %.4g s\n",
                w.name.c_str(), rtt.size(),
                static_cast<double>(rtt.size()) / win.elapsed_s,
                percentile(rtt, 0.5), percentile(rtt, 0.9),
                setup_wall_s / static_cast<double>(setup_s.size()));
    m["setup_s"] = {median(setup_s), "s"};
    m["reqs_per_cpu_s"] = {static_cast<double>(rtt.size()) / (cpu_ms / 1e3),
                           "1/s"};
    m["hit_cpu_ms_p50"] = {percentile(hit_cpu, 0.5), "ms"};
    m["hit_cpu_ms_tail"] = {percentile(hit_cpu, w.tail_level), "ms"};
    m["miss_cpu_ms_p50"] = {median(miss_cpu), "ms"};
    m["approx_ratio"] = {median(oracle.ratios), "ratio"};
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(1, out.attempted));
    m["success_frac"] = {1.0 - static_cast<double>(out.failed) / attempted,
                         "fraction"};
    m["daemon_peak_rss_mb"] = {rss_mb, "MB"};
    return out;
  }

  // Traced run: daemon-side and client-side layer numbers from the window,
  // then the in-process replay and the layer probes.
  m["frontend.residual_ms_p50"] = {percentile(residual, 0.5), "ms"};
  m["frontend.residual_ms_tail"] = {percentile(residual, w.tail_level), "ms"};
  m["protocol.request_bytes"] = {median(req_bytes), "B"};
  m["protocol.response_bytes"] = {median(resp_bytes), "B"};
  m["plan_cache.hit_ratio"] = {hit_ratio, "fraction"};
  m["plan_cache.resident_mb"] = {
      static_cast<double>(stats.at("plan_cache").at("bytes").as_uint64()) / 1e6,
      "MB"};
  m["bench.generator_lag_ms_tail"] = {percentile(lag, w.tail_level), "ms"};

  const std::string trace_path = a.work + "/trace_" + w.name + ".json";
  const ReplayResult replay = run_replay(w, seed, trace_path);
  for (const auto& [name, value] : replay.metrics) m[name] = value;
  m["replay.coverage"] = {replay.coverage_ms_median / median(server_ms),
                          "ratio"};
  phase("replay");
  for (const auto& [name, value] : run_probes(w, seed)) m[name] = value;
  phase("probes");
  std::ofstream(a.work + "/selftime_" + w.name + ".txt")
      << replay.selftime_table;
  std::printf("# %s self time per span (%s)\n%s", w.name.c_str(),
              trace_path.c_str(), replay.selftime_table.c_str());
  return out;
}

Json metric_json(double value, const std::string& unit) {
  Json j = Json::object();
  j.set("value", Json(value));
  j.set("unit", Json(unit));
  return j;
}

Json result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Json& metrics) {
  Json j = Json::object();
  j.set("correct", Json(correct));
  j.set("attempted", Json(attempted));
  j.set("failed", Json(failed));
  j.set("metrics", metrics);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qaoa_e2e: %s\n", e.what());
    return 2;
  }
  std::filesystem::create_directories(a.work);
  fastqaoa::set_num_threads(2);

  std::vector<const Workload*> selected;
  for (const Workload& w : workloads()) {
    if (a.workload == "all" || a.workload == w.name) selected.push_back(&w);
  }

  // values[workload][metric] across sets
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::map<std::string, std::string> units;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool printed_host = false;
  for (int set = 0; set < a.sets; ++set) {
    const std::uint64_t seed = a.seed + static_cast<std::uint64_t>(set);
    for (const Workload* w : selected) {
      RunOutput r;
      try {
        r = run_workload(a, *w, seed, a.trace);
      } catch (const std::exception& e) {
        r.notes.push_back(std::string("run aborted: ") + e.what());
        ++r.failed;
      }
      if (!printed_host) {
        std::printf("# host %s\n", fingerprint(a, r.backend).c_str());
        printed_host = true;
      }
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& n : r.notes) {
        std::fprintf(stderr, "qaoa_e2e: FAIL %s (seed %llu): %s\n",
                     w->name.c_str(), static_cast<unsigned long long>(seed),
                     n.c_str());
      }
      for (const auto& [name, vu] : r.metrics) {
        std::printf("%-12s %-44s %14.6g %s\n", w->name.c_str(), name.c_str(),
                    vu.first, vu.second.c_str());
        values[w->name][name].push_back(vu.first);
        units[name] = vu.second;
      }
      std::fflush(stdout);
    }
  }

  const bool correct = failed == 0;
  Json metrics = Json::object();
  const bool single = a.sets == 1 && selected.size() == 1;
  if (!single) {
    std::printf("# %-12s %-44s %12s %12s %8s\n", "workload", "metric", "median",
                "iqr", "spread");
  }
  for (const auto& [wname, by_metric] : values) {
    for (const auto& [name, v] : by_metric) {
      const double med = median(v);
      if (single) {
        metrics.set(name, metric_json(v.front(), units[name]));
        continue;
      }
      metrics.set(wname + "." + name, metric_json(med, units[name]));
      if (v.size() >= 2) {
        const std::vector<double> q = quartiles(v);
        std::printf("# %-12s %-44s %12.6g %12.6g %8.4f\n", wname.c_str(),
                    name.c_str(), q[1], q[2] - q[0],
                    q[1] != 0.0 ? (q[2] - q[0]) / q[1] : 0.0);
      }
    }
  }
  std::printf("%s\n",
              result_line(correct, std::max<std::uint64_t>(1, attempted),
                          failed, metrics)
                  .dump()
                  .c_str());
  return correct ? 0 : 1;
}
