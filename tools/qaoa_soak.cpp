// qaoa_soak — multi-tenant soak harness for the qaoa_serve front end.
//
// Forks a real daemon (run_daemon, same code path as qaoa_serve), then
// hammers it with a mixed population of clients for a fixed window:
//
//   * two "filler" tenants (weight 3 vs 1) keep the queue saturated with
//     identical async jobs so weighted fair share is measurable,
//   * a pool of request/response clients spread across three more tenants,
//     one of them rate-limited so over_quota rejections (and retry_after_ms
//     driven retries) actually happen,
//   * abrupt-disconnect clients that send a request and slam the
//     connection without reading the response,
//   * slow clients that pipeline large batch_evaluate jobs and then never
//     read — the daemon must evict them within its write timeout.
//
// At the end the harness asserts, against the daemon's own stats/metrics:
//
//   1. every response for the same spec was bit-identical (worker-count
//      and schedule invariance held under concurrency),
//   2. completed jobs split between the filler tenants within 20% of
//      their 3:1 weights,
//   3. over_quota and evicted_slow both fired and are visible in stats,
//   4. the Prometheus exposition still validates,
//   5. SIGTERM drains the daemon to exit code 0.
//
// Any violation (or a hang: the whole run is under an alarm) exits
// non-zero. CI runs this as the `service-soak` job.
//
// Usage:
//   qaoa_soak [--clients=300] [--slow=8] [--duration=10] [--workers=4]
//             [--dir=DIR] [--verbose]

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_flags.hpp"
#include "common/error.hpp"
#include "obs/prometheus.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/net.hpp"
#include "service/server.hpp"

namespace {

using namespace fastqaoa;
using namespace fastqaoa::cli;
using service::Client;
using service::Json;
using Clock = std::chrono::steady_clock;

struct Failures {
  std::atomic<int> count{0};
  std::mutex mu;

  void fail(const std::string& what) {
    count.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    std::fprintf(stderr, "qaoa_soak: FAIL: %s\n", what.c_str());
  }
};

/// The bit-identity ledger: first response value per spec wins; every
/// later response must match it exactly.
class ResultLedger {
 public:
  void check(int spec, double value, Failures& failures) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = first_.emplace(spec, value);
    if (!inserted && it->second != value) {
      failures.fail("bit-identity violated for spec " + std::to_string(spec) +
                    ": " + std::to_string(it->second) + " vs " +
                    std::to_string(value));
    }
  }

 private:
  std::mutex mu_;
  std::map<int, double> first_;
};

Json evaluate_request(int spec_index, const std::string& key) {
  Json req = Json::object();
  req.set("op", Json("evaluate"));
  req.set("problem", Json("maxcut"));
  req.set("mixer", Json("tf"));
  req.set("n", Json(12));
  req.set("p", Json(1));
  req.set("seed", Json(static_cast<std::uint64_t>(100 + spec_index)));
  Json betas = Json::array();
  betas.push_back(Json(0.35 + 0.01 * spec_index));
  Json gammas = Json::array();
  gammas.push_back(Json(0.55 + 0.01 * spec_index));
  req.set("betas", std::move(betas));
  req.set("gammas", std::move(gammas));
  req.set("key", Json(key));
  return req;
}

/// One filler tenant: post a deep backlog of identical (deliberately
/// heavy) async jobs, so this tenant's sub-queue stays non-empty for the
/// whole window and stride scheduling has something to arbitrate. Fair
/// share is only defined while both filler queues are backlogged — the
/// main thread snapshots completions just before the deadline, while
/// that still holds.
void filler_thread(const std::string& socket, const std::string& key,
                   int jobs, Clock::time_point deadline,
                   Failures& failures) {
  Json req = Json::object();
  req.set("op", Json("evaluate"));
  req.set("problem", Json("maxcut"));
  req.set("mixer", Json("tf"));
  req.set("n", Json(16));
  req.set("p", Json(2));
  req.set("seed", Json(std::uint64_t{7}));
  Json betas = Json::array();
  betas.push_back(Json(0.3));
  betas.push_back(Json(0.2));
  Json gammas = Json::array();
  gammas.push_back(Json(0.6));
  gammas.push_back(Json(0.4));
  req.set("betas", std::move(betas));
  req.set("gammas", std::move(gammas));
  req.set("key", Json(key));
  req.set("async", Json(true));
  try {
    Client client = Client::connect_unix(socket);
    int submitted = 0;
    while (submitted < jobs && Clock::now() < deadline) {
      const Json response = client.request(req);
      const Json* ok = response.find("ok");
      if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
        ++submitted;
        continue;
      }
      // overloaded: ease off just enough to let a worker drain one.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  } catch (const std::exception& e) {
    failures.fail(std::string("filler(") + key + "): " + e.what());
  }
}

/// One mixed request/response client: sync evaluates with bit-identity
/// checking, quota-aware retry, and a periodic abrupt disconnect (send a
/// request, close without reading — the daemon must shrug it off).
void mixed_thread(int index, const std::string& socket,
                  const std::string& key, Clock::time_point deadline,
                  ResultLedger& ledger, Failures& failures,
                  std::atomic<std::uint64_t>& completed,
                  std::atomic<std::uint64_t>& quota_rejections) {
  int iteration = 0;
  while (Clock::now() < deadline) {
    try {
      Client client = Client::connect_unix(socket);
      for (int burst = 0; burst < 8 && Clock::now() < deadline; ++burst) {
        ++iteration;
        const int spec = (index + burst) % 4;
        const Json req = evaluate_request(spec, key);
        if (iteration % 13 == 0) {
          // Abrupt disconnect: fire and slam the door mid-response.
          client.send(req);
          client.close();
          break;
        }
        const Json response = client.request(req);
        const Json* ok = response.find("ok");
        if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
          const Json* result = response.find("result");
          if (result != nullptr) {
            ledger.check(spec, result->at("expectation").as_double(),
                         failures);
            completed.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        const Json* err = response.find("error");
        const std::string code =
            err != nullptr && err->find("code") != nullptr
                ? err->at("code").as_string()
                : "?";
        if (code == "over_quota" || code == "overloaded") {
          if (code == "over_quota") {
            quota_rejections.fetch_add(1, std::memory_order_relaxed);
          }
          long long wait_ms = 20;
          if (err->find("retry_after_ms") != nullptr) {
            wait_ms = std::min<long long>(
                250, err->at("retry_after_ms").as_int64());
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
          continue;
        }
        failures.fail("unexpected rejection '" + code +
                      "': " + response.dump());
        return;
      }
    } catch (const std::exception&) {
      // Transport hiccup (e.g. our own abrupt close raced a response, or
      // the daemon shed this connection): reconnect and carry on.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

/// One slow client: pipeline big batch_evaluate responses and never read.
/// The daemon must evict this connection within its write timeout instead
/// of buffering without bound or stalling anyone else.
void slow_thread(const std::string& socket, const std::string& key,
                 Clock::time_point deadline, Failures& failures,
                 std::atomic<std::uint64_t>& evictions_seen) {
  try {
    const int fd = service::connect_unix(socket);
    // A large batch_evaluate: the ~80 KB response cannot fit the daemon's
    // shrunken SO_SNDBUF, so unread responses pile up in its write buffer.
    constexpr int kLanes = 4000;
    std::string betas = "[";
    std::string gammas = "[";
    for (int lane = 0; lane < kLanes; ++lane) {
      if (lane > 0) {
        betas += ',';
        gammas += ',';
      }
      betas += "[0.3]";
      gammas += "[0.6]";
    }
    betas += ']';
    gammas += ']';
    const std::string line =
        "{\"op\":\"batch_evaluate\",\"problem\":\"maxcut\",\"mixer\":\"tf\","
        "\"n\":8,\"p\":1,\"seed\":9,\"key\":\"" + key + "\",\"betas\":" +
        betas + ",\"gammas\":" + gammas + "}\n";
    for (int i = 0; i < 4; ++i) service::write_all(fd, line);

    // Stall well past the daemon's write timeout (2s) without reading a
    // byte — this is what gets us evicted — then drain whatever the kernel
    // buffered. Because the daemon already closed its end, the drain ends
    // in EOF (or a reset) quickly; a connection that were still open would
    // instead park in the receive timeout until the extended deadline.
    std::this_thread::sleep_for(std::chrono::seconds(4));
    timeval tv{};
    tv.tv_sec = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char sink[65536];
    bool evicted = false;
    const auto give_up = deadline + std::chrono::seconds(15);
    while (Clock::now() < give_up) {
      const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
      if (n == 0) {
        evicted = true;  // daemon hung up on us: the eviction
        break;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;  // still open, nothing pending: keep probing
        }
        evicted = true;  // ECONNRESET and friends also mean eviction
        break;
      }
    }
    service::close_fd(fd);
    if (evicted) {
      evictions_seen.fetch_add(1, std::memory_order_relaxed);
    } else {
      failures.fail("slow client was not evicted before the deadline");
    }
  } catch (const std::exception& e) {
    failures.fail(std::string("slow client: ") + e.what());
  }
}

Client connect_with_retry(const std::string& socket) {
  for (int attempt = 0; attempt < 400; ++attempt) {
    try {
      return Client::connect_unix(socket);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  throw Error("daemon did not come up at " + socket);
}

std::uint64_t u64_field(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->as_uint64() : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const long long clients = int_option(argc, argv, "--clients", 300);
  const long long slow_clients = int_option(argc, argv, "--slow", 8);
  const long long duration_s = int_option(argc, argv, "--duration", 10);
  const long long workers = int_option(argc, argv, "--workers", 4);
  const bool verbose = has_flag(argc, argv, "--verbose");
  std::string dir = string_option(argc, argv, "--dir", "");
  if (dir.empty()) {
    char tmpl[] = "/tmp/qaoa_soak.XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "qaoa_soak: mkdtemp: %s\n", std::strerror(errno));
      return 2;
    }
    dir = made;
  }
  const std::string socket = dir + "/qaoa.sock";

  // Hang detection: if anything deadlocks, the alarm kills the whole run
  // (non-zero exit) instead of wedging CI.
  ::alarm(static_cast<unsigned>(duration_s * 4 + 120));
  ::signal(SIGPIPE, SIG_IGN);

  service::DaemonOptions options;
  options.socket_path = socket;
  options.verbose = verbose;
  options.service.workers = static_cast<int>(workers);
  // Deep queue: the fillers park a couple thousand jobs so their tenants
  // stay backlogged for the whole window (fair share is only defined while
  // everyone has work queued); the mixed clients never see "overloaded".
  options.service.queue_high_water = 8192;
  options.service.cache_bytes = 64u << 20;
  options.max_connections = static_cast<std::size_t>(clients) + 64;
  options.write_timeout_seconds = 2.0;
  options.idle_timeout_seconds = 120.0;
  options.sndbuf_bytes = 16 * 1024;  // make slow-client eviction testable
  {
    using service::TenantConfig;
    TenantConfig heavy;  // fair-share measurement pair: 3x vs 1x
    heavy.name = "heavy";
    heavy.key = "k-heavy";
    heavy.weight = 3.0;
    TenantConfig light;
    light.name = "light";
    light.key = "k-light";
    light.weight = 1.0;
    TenantConfig acme;
    acme.name = "acme";
    acme.key = "k-acme";
    acme.weight = 2.0;
    TenantConfig widgets;
    widgets.name = "widgets";
    widgets.key = "k-widgets";
    widgets.weight = 1.0;
    TenantConfig free_tier;  // rate-limited: over_quota must fire
    free_tier.name = "free";
    free_tier.key = "k-free";
    free_tier.weight = 1.0;
    free_tier.rate_per_sec = 25.0;
    free_tier.burst = 25.0;
    // The concurrency quota trips deterministically under load: with
    // ~clients/3 concurrent sync submitters on this key, inflight > 2
    // rejects with over_quota regardless of queue depth or token timing.
    free_tier.max_inflight = 2;
    TenantConfig slow;
    slow.name = "slow";
    slow.key = "k-slow";
    slow.weight = 1.0;
    options.service.tenants = {heavy, light, acme, widgets, free_tier, slow};
  }

  const pid_t daemon_pid = ::fork();
  if (daemon_pid < 0) {
    std::fprintf(stderr, "qaoa_soak: fork: %s\n", std::strerror(errno));
    return 2;
  }
  if (daemon_pid == 0) {
    std::_Exit(service::run_daemon(options));
  }

  Failures failures;
  ResultLedger ledger;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> quota_rejections{0};
  std::atomic<std::uint64_t> evictions_seen{0};
  int exit_code = 0;

  try {
    {
      Client probe = connect_with_retry(socket);
      Json ping = Json::object();
      ping.set("op", Json("ping"));
      if (!probe.request(ping).at("ok").as_bool()) {
        throw Error("daemon ping failed");
      }
    }
    const auto deadline = Clock::now() + std::chrono::seconds(duration_s);

    // Sized so the workers cannot drain either filler backlog before the
    // fairness snapshot: generous multiple of worst-case throughput.
    const int fill_jobs =
        static_cast<int>(duration_s * workers * 40);

    std::vector<std::thread> threads;
    threads.emplace_back(filler_thread, socket, "k-heavy", fill_jobs,
                         deadline, std::ref(failures));
    threads.emplace_back(filler_thread, socket, "k-light", fill_jobs,
                         deadline, std::ref(failures));
    static const char* kMixedKeys[] = {"k-acme", "k-widgets", "k-free"};
    for (long long i = 0; i < clients; ++i) {
      threads.emplace_back(mixed_thread, static_cast<int>(i), socket,
                           kMixedKeys[i % 3], deadline, std::ref(ledger),
                           std::ref(failures), std::ref(completed),
                           std::ref(quota_rejections));
    }
    for (long long i = 0; i < slow_clients; ++i) {
      threads.emplace_back(slow_thread, socket, "k-slow", deadline,
                           std::ref(failures), std::ref(evictions_seen));
    }

    // Fairness snapshot just before the deadline, while both filler
    // backlogs are still queued (afterwards the queues drain and the
    // completed ratio washes out toward the submitted ratio).
    std::this_thread::sleep_until(deadline - std::chrono::seconds(1));
    std::uint64_t heavy_done = 0;
    std::uint64_t light_done = 0;
    std::uint64_t heavy_queued = 0;
    std::uint64_t light_queued = 0;
    {
      Client fair = Client::connect_unix(socket);
      Json stats_req = Json::object();
      stats_req.set("op", Json("stats"));
      stats_req.set("key", Json("k-acme"));
      const Json stats = fair.request(stats_req).at("stats");
      if (const Json* tenants = stats.find("tenants"); tenants != nullptr) {
        for (const Json& t : tenants->as_array()) {
          if (t.at("name").as_string() == "heavy") {
            heavy_done = u64_field(t, "completed");
            heavy_queued = u64_field(t, "queued");
          } else if (t.at("name").as_string() == "light") {
            light_done = u64_field(t, "completed");
            light_queued = u64_field(t, "queued");
          }
        }
      }
    }
    if (heavy_queued == 0 || light_queued == 0) {
      failures.fail("a filler backlog ran dry before the snapshot "
                    "(heavy_queued=" + std::to_string(heavy_queued) +
                    ", light_queued=" + std::to_string(light_queued) +
                    "): fairness not measurable, raise --duration");
    } else if (heavy_done < 50 || light_done < 15) {
      failures.fail("fillers completed too few jobs to judge fairness "
                    "(heavy=" + std::to_string(heavy_done) +
                    ", light=" + std::to_string(light_done) + ")");
    } else {
      const double ratio = static_cast<double>(heavy_done) /
                           static_cast<double>(light_done);
      if (ratio < 3.0 * 0.8 || ratio > 3.0 * 1.2) {
        failures.fail("fair-share ratio " + std::to_string(ratio) +
                      " outside 3.0 +/- 20%");
      } else if (verbose) {
        std::fprintf(stderr, "qaoa_soak: fair-share ratio %.2f (target 3)\n",
                     ratio);
      }
    }

    for (std::thread& t : threads) t.join();

    // Post-window verification against the daemon's own accounting.
    Client verifier = Client::connect_unix(socket);
    Json stats_req = Json::object();
    stats_req.set("op", Json("stats"));
    stats_req.set("key", Json("k-acme"));
    const Json stats = verifier.request(stats_req).at("stats");

    if (u64_field(stats, "over_quota") == 0 || quota_rejections.load() == 0) {
      failures.fail("rate-limited tenant never saw over_quota");
    }
    const Json& frontend = stats.at("frontend");
    if (u64_field(frontend, "evicted_slow") == 0) {
      failures.fail("no slow-client evictions recorded by the daemon");
    }
    if (evictions_seen.load() == 0) {
      failures.fail("no slow client observed its own eviction");
    }
    if (completed.load() == 0) {
      failures.fail("mixed clients completed zero jobs");
    }

    Json metrics_req = Json::object();
    metrics_req.set("op", Json("metrics"));
    metrics_req.set("key", Json("k-acme"));
    const Json metrics = verifier.request(metrics_req);
    const std::string text = metrics.at("text").as_string();
    std::string error;
    if (!obs::validate_prometheus_text(text, &error)) {
      failures.fail("prometheus exposition invalid: " + error);
    }
    for (const char* family :
         {"fastqaoa_frontend_evicted_slow_total",
          "fastqaoa_tenant_jobs_completed_total",
          "fastqaoa_tenant_over_quota_total",
          "fastqaoa_service_queue_depth_at_admission_bucket"}) {
      if (text.find(family) == std::string::npos) {
        failures.fail(std::string("metrics family missing: ") + family);
      }
    }

    std::fprintf(stderr,
                 "qaoa_soak: %llu sync jobs ok, %llu quota rejections, "
                 "%llu slow evictions, heavy/light=%llu/%llu\n",
                 static_cast<unsigned long long>(completed.load()),
                 static_cast<unsigned long long>(quota_rejections.load()),
                 static_cast<unsigned long long>(evictions_seen.load()),
                 static_cast<unsigned long long>(heavy_done),
                 static_cast<unsigned long long>(light_done));
  } catch (const std::exception& e) {
    failures.fail(std::string("harness: ") + e.what());
  }

  // Graceful drain must be exit code 0 even right after the storm.
  if (::kill(daemon_pid, SIGTERM) != 0) {
    failures.fail("kill(SIGTERM) failed");
  }
  int status = 0;
  ::waitpid(daemon_pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    failures.fail("daemon did not drain to exit 0 (status " +
                  std::to_string(status) + ")");
  }

  ::unlink(socket.c_str());
  ::rmdir(dir.c_str());
  if (failures.count.load() != 0) exit_code = 1;
  std::fprintf(stderr, "qaoa_soak: %s\n",
               exit_code == 0 ? "PASS" : "FAIL");
  return exit_code;
}
