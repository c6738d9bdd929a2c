// qaoa_client — command-line client for the qaoa_serve daemon.
//
// Usage:
//   qaoa_client --socket=PATH|--tcp=PORT VERB [options]
//
// Verbs:
//   evaluate | gradient | sample   --problem --mixer --n [--k] [--p]
//                                  --betas=a,b,.. --gammas=a,b,..
//                                  [--seed] [--density] [--minimize]
//                                  [--shots] [--opt-seed]
//   batch_evaluate                 like evaluate, but --betas/--gammas take
//                                  ';'-separated lanes of ','-separated
//                                  angles (--betas=0.1;0.2;0.3 sweeps three
//                                  p=1 angle sets in ONE job / one
//                                  admission decision); result carries one
//                                  expectation per lane. [--deadline]
//                                  [--max-evals] (one eval per lane) stop
//                                  the sweep early with the lanes done
//   find_angles                    --problem --mixer --n [--k] [--p]
//                                  [--hops] [--starts] [--opt-seed]
//                                  [--checkpoint] [--deadline] [--max-evals]
//   status | cancel                --id=N
//   stats | ping
//   stats --watch[=SECS]           poll stats on a cadence and print a
//                                  delta line per tick (jobs/s, cache hit
//                                  rate, queue depth); --count=N stops
//                                  after N ticks (default: run forever)
//   metrics [--validate]           print the daemon's Prometheus text
//                                  exposition; --validate also runs the
//                                  format checker (exit 1 on violations)
//   watch --id=N [--throttle=MS]   stream per-round progress events for a
//                                  running find_angles job as NDJSON until
//                                  the terminal "done" event; --throttle
//                                  simulates a slow consumer (testing aid)
//   raw                            --json='{"op":...}'  (send verbatim)
//
// Job verbs block until the result arrives unless --async is given (then
// the response carries the job id for later `status` polling).
//
// Multi-tenant daemons require an API key: --key=K authenticates every
// request (it rides along as the protocol's "key" field).
//
// Backoff: --retries=N re-sends a request rejected with "overloaded" or
// "over_quota" up to N times, sleeping a jittered exponential backoff
// between attempts — and at least the server's retry_after_ms hint when
// the rejection carries one. --retry-max-ms caps one sleep (default
// 30000). `watch --id=N` with --retries also reconnects transparently
// when the daemon drops the stream mid-watch (a finished job's terminal
// event is latched server-side, so a reconnect never hangs).
//
// Exit codes: 0 = ok response; 4 = rejected "overloaded"/"over_quota"
// (back off and retry); 1 = any other protocol error ("draining",
// "bad_request", failed job, ...); 2 = usage or transport failure (daemon
// unreachable/gone).
//
// The response object is printed to stdout as one JSON line either way —
// scripts parse stdout and branch on the exit code.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/cli_flags.hpp"
#include "obs/prometheus.hpp"
#include "service/client.hpp"
#include "service/json.hpp"

namespace {

using namespace fastqaoa;
using namespace fastqaoa::cli;
using service::Json;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "qaoa_client: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: qaoa_client --socket=PATH|--tcp=PORT "
               "evaluate|batch_evaluate|gradient|find_angles|sample|status|"
               "cancel|stats|metrics|watch|ping|raw "
               "[--problem=..] [--mixer=..] [--n=..] [--k=..] "
               "[--p=..] [--betas=a,b,..] [--gammas=a,b,..] [--seed=..] "
               "[--density=..] [--degree=..] [--engine=exact|mps] "
               "[--max-bond=..] [--fidelity-budget=..] [--trunc-tol=..] "
               "[--minimize] [--shots=..] [--hops=..] "
               "[--starts=..] [--opt-seed=..] [--checkpoint=..] "
               "[--deadline=..] [--max-evals=..] [--id=..] [--async] "
               "[--watch[=SECS]] [--count=N] [--validate] [--throttle=MS] "
               "[--key=K] [--retries=N] [--retry-max-ms=MS] "
               "[--json='{...}']\n");
  std::exit(2);
}

Json csv_doubles(const std::string& csv) {
  Json arr = Json::array();
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string field = csv.substr(start, comma - start);
    if (!field.empty()) {
      arr.push_back(Json(std::strtod(field.c_str(), nullptr)));
    }
    start = comma + 1;
  }
  return arr;
}

/// batch_evaluate angle lists: ';' separates lanes, ',' separates the
/// angles within one lane — "0.1,0.2;0.3,0.4" -> [[0.1,0.2],[0.3,0.4]].
Json csv_lanes(const std::string& csv) {
  Json outer = Json::array();
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t semi = csv.find(';', start);
    if (semi == std::string::npos) semi = csv.size();
    const std::string lane = csv.substr(start, semi - start);
    if (!lane.empty()) outer.push_back(csv_doubles(lane));
    start = semi + 1;
  }
  return outer;
}

const char* find_verb(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') return argv[i];
  }
  return nullptr;
}

std::uint64_t stat_u64(const Json& stats, const char* key) {
  const Json* v = stats.find(key);
  return (v != nullptr && v->is_number()) ? v->as_uint64() : 0;
}

/// Retry policy for "overloaded"/"over_quota" rejections: jittered
/// exponential backoff, floored at the server's retry_after_ms hint.
struct Backoff {
  long long retries = 0;       ///< additional attempts after the first
  long long max_sleep_ms = 30'000;
  long long base_ms = 50;
  std::mt19937 rng{static_cast<std::uint32_t>(
      std::chrono::steady_clock::now().time_since_epoch().count() ^
      (static_cast<long long>(::getpid()) << 16))};

  /// Sleep before attempt `attempt` (1-based retry count). `hint_ms` is the
  /// server's retry_after_ms (0 = none).
  void sleep(long long attempt, long long hint_ms) {
    const long long shift = std::min<long long>(attempt - 1, 20);
    long long ms = std::min(max_sleep_ms, base_ms << shift);
    // Full jitter: uniform in [ms/2, ms] so a burst of rejected clients
    // does not come back in lockstep.
    std::uniform_real_distribution<double> dist(0.5, 1.0);
    ms = static_cast<long long>(static_cast<double>(ms) * dist(rng));
    ms = std::min(max_sleep_ms, std::max(ms, hint_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
};

/// When `response` is a retryable rejection, returns true and surfaces the
/// server's retry_after_ms hint.
bool retryable_rejection(const Json& response, long long* hint_ms) {
  const Json* err = response.find("error");
  if (err == nullptr) return false;
  const Json* code = err->find("code");
  if (code == nullptr || !code->is_string()) return false;
  const std::string c = code->as_string();
  if (c != "overloaded" && c != "over_quota") return false;
  *hint_ms = 0;
  if (const Json* hint = err->find("retry_after_ms");
      hint != nullptr && hint->is_number()) {
    *hint_ms = hint->as_int64();
  }
  return true;
}

/// `metrics [--validate]`: print the Prometheus exposition verbatim so the
/// output can be piped straight into promtool or a file scrape target.
int run_metrics(service::Client& client, bool validate,
                const std::string& key) {
  const Json response = client.request([&key] {
    Json req = Json::object();
    req.set("op", Json("metrics"));
    if (!key.empty()) req.set("key", Json(key));
    return req;
  }());
  const Json* ok = response.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    std::printf("%s\n", response.dump().c_str());
    return 1;
  }
  const std::string text = response.at("text").as_string();
  std::fputs(text.c_str(), stdout);
  if (validate) {
    std::string error;
    if (!obs::validate_prometheus_text(text, &error)) {
      std::fprintf(stderr, "qaoa_client: invalid prometheus text: %s\n",
                   error.c_str());
      return 1;
    }
    std::fprintf(stderr, "qaoa_client: prometheus text valid\n");
  }
  return 0;
}

/// `watch --id=N`: stream progress events, one JSON line each, until the
/// terminal "done" event (exit 0) or the daemon closes the stream (exit 1).
/// With retries, a stream dropped before "done" reconnects transparently:
/// the replacement subscription picks up live events (or the latched
/// terminal event when the job already finished), and the duplicate ack is
/// not re-printed.
int run_watch(service::Client client,
              const std::function<service::Client()>& reconnect,
              const Json& req, Backoff backoff) {
  bool ack_printed = false;
  for (long long attempt = 0;; ++attempt) {
    std::string line;
    bool stream_open = true;
    try {
      client.send(req);
      if (!client.read_line(line)) {
        stream_open = false;
      } else {
        if (!ack_printed) {
          std::printf("%s\n", line.c_str());
          std::fflush(stdout);
          ack_printed = true;
        }
        const Json ack = Json::parse(line);
        const Json* ok = ack.find("ok");
        if (ok != nullptr && ok->is_bool() && !ok->as_bool()) return 1;
        while (client.read_line(line)) {
          std::printf("%s\n", line.c_str());
          std::fflush(stdout);
          try {
            const Json event = Json::parse(line);
            const Json* kind = event.find("event");
            if (kind != nullptr && kind->is_string() &&
                kind->as_string() == "done") {
              return 0;
            }
          } catch (const std::exception&) {
            // Not JSON? Keep relaying; the daemon ends the stream.
          }
        }
        stream_open = false;
      }
    } catch (const std::exception&) {
      stream_open = false;  // transport error: same recovery as a clean EOF
    }
    if (stream_open) continue;
    if (attempt >= backoff.retries) break;
    backoff.sleep(attempt + 1, 0);
    try {
      client = reconnect();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "qaoa_client: reconnect failed: %s\n", e.what());
      return 2;
    }
  }
  std::fprintf(stderr, "qaoa_client: stream ended without a terminal event\n");
  return 1;
}

/// `stats --watch[=SECS]`: poll the stats verb and print one delta line per
/// tick — the 30-second "is it healthy" view without a metrics stack.
int run_stats_watch(service::Client& client, double interval_seconds,
                    long long max_ticks, const std::string& key) {
  Json req = Json::object();
  req.set("op", Json("stats"));
  if (!key.empty()) req.set("key", Json(key));

  Json first = client.request(req);
  const Json* stats = first.find("stats");
  if (stats == nullptr) {
    std::printf("%s\n", first.dump().c_str());
    return 1;
  }
  std::uint64_t prev_done = stat_u64(*stats, "completed") +
                            stat_u64(*stats, "failed") +
                            stat_u64(*stats, "cancelled");
  const Json* cache = stats->find("plan_cache");
  std::uint64_t prev_hits = cache != nullptr ? stat_u64(*cache, "hits") : 0;
  std::uint64_t prev_misses =
      cache != nullptr ? stat_u64(*cache, "misses") : 0;
  auto prev_time = std::chrono::steady_clock::now();

  for (long long tick = 0; max_ticks <= 0 || tick < max_ticks; ++tick) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interval_seconds));
    const Json response = client.request(req);
    stats = response.find("stats");
    if (stats == nullptr) {
      std::printf("%s\n", response.dump().c_str());
      return 1;
    }
    const auto now = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(now - prev_time).count();
    const std::uint64_t done = stat_u64(*stats, "completed") +
                               stat_u64(*stats, "failed") +
                               stat_u64(*stats, "cancelled");
    cache = stats->find("plan_cache");
    const std::uint64_t hits = cache != nullptr ? stat_u64(*cache, "hits") : 0;
    const std::uint64_t misses =
        cache != nullptr ? stat_u64(*cache, "misses") : 0;
    const double jobs_per_s =
        dt > 0.0 ? static_cast<double>(done - prev_done) / dt : 0.0;
    const std::uint64_t lookups = (hits - prev_hits) + (misses - prev_misses);
    const double hit_rate =
        lookups > 0
            ? 100.0 * static_cast<double>(hits - prev_hits) /
                  static_cast<double>(lookups)
            : 0.0;
    std::printf("jobs/s=%.2f queue=%llu running=%llu cache_hit%%=%.1f "
                "dropped_events=%llu total_done=%llu\n",
                jobs_per_s,
                static_cast<unsigned long long>(
                    stat_u64(*stats, "queue_depth")),
                static_cast<unsigned long long>(stat_u64(*stats, "running")),
                hit_rate,
                static_cast<unsigned long long>(
                    stat_u64(*stats, "subscribe_dropped")),
                static_cast<unsigned long long>(done));
    std::fflush(stdout);
    prev_done = done;
    prev_hits = hits;
    prev_misses = misses;
    prev_time = now;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--help") || has_flag(argc, argv, "-h")) {
    usage_error("help requested");
  }
  const char* verb_cstr = find_verb(argc, argv);
  if (verb_cstr == nullptr) usage_error("missing verb");
  const std::string verb = verb_cstr;

  Json req = Json::object();
  if (verb == "raw") {
    const std::string raw = string_option(argc, argv, "--json", "");
    if (raw.empty()) usage_error("raw needs --json='{...}'");
    try {
      req = Json::parse(raw);
    } catch (const std::exception& e) {
      usage_error(std::string("bad --json: ") + e.what());
    }
  } else if (verb == "status" || verb == "cancel") {
    if (!has_option(argc, argv, "--id")) usage_error(verb + " needs --id=N");
    req.set("op", Json(verb));
    req.set("id", Json(static_cast<std::uint64_t>(
                      int_option(argc, argv, "--id", 0))));
  } else if (verb == "stats" || verb == "ping" || verb == "metrics") {
    req.set("op", Json(verb));
  } else if (verb == "watch") {
    if (!has_option(argc, argv, "--id")) usage_error("watch needs --id=N");
    req.set("op", Json("subscribe"));
    req.set("id", Json(static_cast<std::uint64_t>(
                      int_option(argc, argv, "--id", 0))));
    if (has_option(argc, argv, "--throttle")) {
      req.set("throttle_ms",
              Json(int_option(argc, argv, "--throttle", 0)));
    }
  } else if (verb == "evaluate" || verb == "batch_evaluate" ||
             verb == "gradient" || verb == "find_angles" ||
             verb == "sample") {
    req.set("op", Json(verb));
    req.set("problem", Json(string_option(argc, argv, "--problem", "maxcut")));
    req.set("mixer", Json(string_option(argc, argv, "--mixer", "tf")));
    req.set("n", Json(int_option(argc, argv, "--n", 8)));
    if (has_option(argc, argv, "--k")) {
      req.set("k", Json(int_option(argc, argv, "--k", -1)));
    }
    if (has_option(argc, argv, "--density")) {
      req.set("density", Json(double_option(argc, argv, "--density", 6.0)));
    }
    if (has_option(argc, argv, "--seed")) {
      req.set("seed", Json(static_cast<std::uint64_t>(
                          int_option(argc, argv, "--seed", 42))));
    }
    if (has_option(argc, argv, "--degree")) {
      req.set("degree", Json(int_option(argc, argv, "--degree", 0)));
    }
    if (has_option(argc, argv, "--engine")) {
      req.set("engine", Json(string_option(argc, argv, "--engine", "exact")));
    }
    if (has_option(argc, argv, "--max-bond")) {
      req.set("max_bond", Json(int_option(argc, argv, "--max-bond", 64)));
    }
    if (has_option(argc, argv, "--fidelity-budget")) {
      req.set("fidelity_budget",
              Json(double_option(argc, argv, "--fidelity-budget", 1e-3)));
    }
    if (has_option(argc, argv, "--trunc-tol")) {
      req.set("trunc_tol",
              Json(double_option(argc, argv, "--trunc-tol", 1e-12)));
    }
    req.set("p", Json(int_option(argc, argv, "--p", 1)));
    if (has_flag(argc, argv, "--minimize")) req.set("minimize", Json(true));
    const bool lanes = verb == "batch_evaluate";
    if (has_option(argc, argv, "--betas")) {
      const std::string csv = string_option(argc, argv, "--betas", "");
      req.set("betas", lanes ? csv_lanes(csv) : csv_doubles(csv));
    }
    if (has_option(argc, argv, "--gammas")) {
      const std::string csv = string_option(argc, argv, "--gammas", "");
      req.set("gammas", lanes ? csv_lanes(csv) : csv_doubles(csv));
    }
    if (has_option(argc, argv, "--shots")) {
      req.set("shots", Json(static_cast<std::uint64_t>(
                           int_option(argc, argv, "--shots", 1024))));
    }
    if (has_option(argc, argv, "--hops")) {
      req.set("hops", Json(int_option(argc, argv, "--hops", 8)));
    }
    if (has_option(argc, argv, "--starts")) {
      req.set("starts", Json(int_option(argc, argv, "--starts", 1)));
    }
    if (has_option(argc, argv, "--opt-seed")) {
      req.set("opt_seed", Json(static_cast<std::uint64_t>(
                              int_option(argc, argv, "--opt-seed", 0))));
    }
    if (has_option(argc, argv, "--checkpoint")) {
      req.set("checkpoint",
              Json(string_option(argc, argv, "--checkpoint", "")));
    }
    if (has_option(argc, argv, "--deadline")) {
      req.set("deadline", Json(double_option(argc, argv, "--deadline", 0.0)));
    }
    if (has_option(argc, argv, "--max-evals")) {
      req.set("max_evals", Json(static_cast<std::uint64_t>(
                               int_option(argc, argv, "--max-evals", 0))));
    }
    if (has_flag(argc, argv, "--async")) req.set("async", Json(true));
  } else {
    usage_error("unknown verb '" + verb + "'");
  }

  // Multi-tenant daemons: --key authenticates every request.
  const std::string key = string_option(argc, argv, "--key", "");
  if (!key.empty() && req.find("key") == nullptr) req.set("key", Json(key));

  Backoff backoff;
  backoff.retries = int_option(argc, argv, "--retries", 0);
  if (backoff.retries < 0) usage_error("--retries must be >= 0");
  backoff.max_sleep_ms = int_option(argc, argv, "--retry-max-ms", 30'000);
  if (backoff.max_sleep_ms < 1) usage_error("--retry-max-ms must be >= 1");

  const std::string socket_path = string_option(argc, argv, "--socket", "");
  const long long tcp_port = int_option(argc, argv, "--tcp", -1);
  if (socket_path.empty() && tcp_port < 0) {
    usage_error("need --socket=PATH or --tcp=PORT");
  }
  const auto connect = [&socket_path, tcp_port] {
    return socket_path.empty()
               ? service::Client::connect_tcp(static_cast<int>(tcp_port))
               : service::Client::connect_unix(socket_path);
  };

  try {
    service::Client client = connect();
    if (verb == "metrics") {
      return run_metrics(client, has_flag(argc, argv, "--validate"), key);
    }
    if (verb == "watch") {
      return run_watch(std::move(client), connect, req, backoff);
    }
    if (verb == "stats" &&
        (has_flag(argc, argv, "--watch") ||
         has_option(argc, argv, "--watch"))) {
      double secs = double_option(argc, argv, "--watch", 2.0);
      if (secs <= 0.0) secs = 2.0;
      return run_stats_watch(client, secs,
                             int_option(argc, argv, "--count", 0), key);
    }

    Json response = client.request(req);
    for (long long attempt = 1; attempt <= backoff.retries; ++attempt) {
      long long hint_ms = 0;
      if (!retryable_rejection(response, &hint_ms)) break;
      backoff.sleep(attempt, hint_ms);
      response = client.request(req);
    }
    std::printf("%s\n", response.dump().c_str());

    const Json* ok = response.find("ok");
    if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
      // "ok" covers the request, not the job: a sync job that ran and
      // failed comes back ok:true with state "failed" — surface as exit 1.
      const Json* state = response.find("state");
      if (state != nullptr && state->as_string() == "failed") return 1;
      return 0;
    }
    const Json* err = response.find("error");
    if (err != nullptr) {
      const Json* code = err->find("code");
      if (code != nullptr && (code->as_string() == "overloaded" ||
                              code->as_string() == "over_quota")) {
        return 4;
      }
    }
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qaoa_client: %s\n", e.what());
    return 2;
  }
}
