// qaoa_serve — the shared-plan evaluation daemon.
//
// Hosts a service::Service (bounded job queue + worker pool + spec-keyed
// plan cache) behind a Unix-domain socket speaking newline-
// delimited JSON; see src/service/protocol.hpp for the wire format and
// docs/TUTORIAL.md for a walkthrough.
//
// Usage:
//   qaoa_serve --socket=/tmp/qaoa.sock
//              [--tcp=PORT] [--workers=2] [--queue=64]
//              [--cache-bytes=N] [--cache-dir=DIR]
//              [--tenants=FILE] [--idle-timeout=SECS] [--write-timeout=SECS]
//              [--max-conns=N] [--max-line=BYTES] [--write-buf=BYTES]
//              [--max-pipeline=N] [--sndbuf=BYTES]
//              [--metrics=out.json] [--metrics-file=out.prom]
//              [--metrics-interval=SECS] [--sub-queue=N] [--quiet]
//
// --tcp adds a loopback TCP listener (port 0 = kernel-assigned, printed on
// startup). --cache-bytes bounds the plan cache (0 = unlimited);
// --cache-dir adds a disk tier for expensive constrained-mixer
// eigendecompositions. --queue is the admission high-water mark: submits
// past it are rejected with the structured "overloaded" error.
//
// Multi-tenancy: --tenants names a JSON file of {name, key, weight,
// max_inflight, rate_per_sec, burst, cache_bytes} entries (see
// src/service/tenant.hpp). Clients then authenticate with a key; worker
// time is shared by weight, quotas trip structured "over_quota" rejections
// with a retry_after_ms hint, and the plan cache is partitioned per tenant.
//
// Robustness knobs (all per connection): --idle-timeout / --write-timeout
// evict idle and stalled-reader clients, --max-line bounds one request
// line, --write-buf bounds buffered output, --max-pipeline bounds parsed-
// but-unserved requests, --max-conns caps concurrent connections, and
// --sndbuf overrides SO_SNDBUF (testing aid for eviction timing).
//
// Telemetry: the `metrics` verb serves Prometheus text on demand;
// --metrics-file additionally rewrites the same text atomically every
// --metrics-interval seconds (and once at drain) for file-based scrapers.
// --sub-queue bounds each `subscribe` watcher's event queue; a slow
// watcher drops its oldest events (counted in stats) instead of ever
// blocking a worker.
//
// SIGTERM/SIGINT drain: the daemon stops accepting, cancels queued jobs,
// lets running ones deliver (and checkpoint) best-so-far results, flushes
// --metrics, and exits 0. SIGTERM is "please finish", not a failure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "linalg/kernels/kernels.hpp"
#include "service/server.hpp"

namespace {

using namespace fastqaoa;

std::string string_option(int argc, char** argv, const char* key,
                          const std::string& fallback) {
  const std::size_t len = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return std::string(argv[i] + len + 1);
    }
  }
  return fallback;
}

long long int_option(int argc, char** argv, const char* key,
                     long long fallback) {
  const std::string v = string_option(argc, argv, key, "");
  return v.empty() ? fallback : std::strtoll(v.c_str(), nullptr, 10);
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

double double_option(int argc, char** argv, const char* key,
                     double fallback) {
  const std::string v = string_option(argc, argv, key, "");
  return v.empty() ? fallback : std::strtod(v.c_str(), nullptr);
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "qaoa_serve: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: qaoa_serve --socket=PATH [--tcp=PORT] [--workers=2] "
               "[--queue=64] [--cache-bytes=N] [--cache-dir=DIR] "
               "[--tenants=FILE] [--idle-timeout=SECS] "
               "[--write-timeout=SECS] [--max-conns=N] [--max-line=BYTES] "
               "[--write-buf=BYTES] [--max-pipeline=N] [--sndbuf=BYTES] "
               "[--backend=auto|scalar|avx2|avx512] "
               "[--metrics=out.json] [--metrics-file=out.prom] "
               "[--metrics-interval=SECS] [--sub-queue=N] [--quiet]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (has_flag(argc, argv, "--help") || has_flag(argc, argv, "-h")) {
    usage_error("help requested");
  }

  service::DaemonOptions options;
  options.socket_path = string_option(argc, argv, "--socket", "");
  if (options.socket_path.empty()) usage_error("--socket=PATH is required");
  options.tcp_port =
      static_cast<int>(int_option(argc, argv, "--tcp", -1));
  options.metrics_path = string_option(argc, argv, "--metrics", "");
  options.prometheus_path = string_option(argc, argv, "--metrics-file", "");
  options.metrics_interval_seconds =
      double_option(argc, argv, "--metrics-interval", 5.0);
  if (options.metrics_interval_seconds <= 0.0) {
    usage_error("--metrics-interval must be > 0");
  }
  // Kernel backend override (beats the FASTQAOA_KERNEL env var).
  const std::string backend = string_option(argc, argv, "--backend", "");
  if (!backend.empty() && !linalg::kernels::select(backend)) {
    usage_error("unknown or unsupported --backend '" + backend + "'");
  }
  options.verbose = !has_flag(argc, argv, "--quiet");

  options.service.workers =
      static_cast<int>(int_option(argc, argv, "--workers", 2));
  if (options.service.workers < 1) usage_error("--workers must be >= 1");
  const long long queue = int_option(argc, argv, "--queue", 64);
  if (queue < 1) usage_error("--queue must be >= 1");
  options.service.queue_high_water = static_cast<std::size_t>(queue);
  const long long cache_bytes = int_option(argc, argv, "--cache-bytes", 0);
  if (cache_bytes < 0) {
    usage_error("--cache-bytes must be >= 0 (0 = unlimited)");
  }
  options.service.cache_bytes = static_cast<std::size_t>(cache_bytes);
  options.service.cache_dir = string_option(argc, argv, "--cache-dir", "");
  const long long sub_queue = int_option(argc, argv, "--sub-queue", 256);
  if (sub_queue < 1) usage_error("--sub-queue must be >= 1");
  options.service.subscriber_queue_cap = static_cast<std::size_t>(sub_queue);

  options.tenants_path = string_option(argc, argv, "--tenants", "");
  options.idle_timeout_seconds =
      double_option(argc, argv, "--idle-timeout",
                    options.idle_timeout_seconds);
  if (options.idle_timeout_seconds < 0.0) {
    usage_error("--idle-timeout must be >= 0 (0 disables)");
  }
  options.write_timeout_seconds =
      double_option(argc, argv, "--write-timeout",
                    options.write_timeout_seconds);
  if (options.write_timeout_seconds < 0.0) {
    usage_error("--write-timeout must be >= 0 (0 disables)");
  }
  const long long max_conns =
      int_option(argc, argv, "--max-conns",
                 static_cast<long long>(options.max_connections));
  if (max_conns < 1) usage_error("--max-conns must be >= 1");
  options.max_connections = static_cast<std::size_t>(max_conns);
  const long long max_line =
      int_option(argc, argv, "--max-line",
                 static_cast<long long>(options.max_line_bytes));
  if (max_line < 1024) usage_error("--max-line must be >= 1024");
  options.max_line_bytes = static_cast<std::size_t>(max_line);
  const long long write_buf =
      int_option(argc, argv, "--write-buf",
                 static_cast<long long>(options.write_buffer_cap));
  if (write_buf < 4096) usage_error("--write-buf must be >= 4096");
  options.write_buffer_cap = static_cast<std::size_t>(write_buf);
  const long long max_pipeline =
      int_option(argc, argv, "--max-pipeline",
                 static_cast<long long>(options.max_pipeline));
  if (max_pipeline < 1) usage_error("--max-pipeline must be >= 1");
  options.max_pipeline = static_cast<std::size_t>(max_pipeline);
  options.sndbuf_bytes =
      static_cast<int>(int_option(argc, argv, "--sndbuf", 0));
  if (options.sndbuf_bytes < 0) usage_error("--sndbuf must be >= 0");

  return service::run_daemon(options);
}
