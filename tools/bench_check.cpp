// bench_check — regression gate for the benchmark baselines.
//
// Compares a freshly-produced benchmark JSON (ablation_kernels --json,
// batch_eval --json, ...) against the checked-in snapshot under
// bench/baselines/ and fails when a headline speedup regressed past the
// allowed threshold.
//
// Usage:
//   bench_check --fresh=run.json --baseline=bench/baselines/x.json
//               [--threshold=0.30] [--out=report.json]
//
// What is compared: every TOP-LEVEL numeric field whose key contains
// "speedup". Those are the headline figures each bench tool publishes
// exactly so this gate stays insensitive to per-row noise (row timings
// shuffle between machines; the headline ratios are the contract).
//
// A field regresses when fresh < baseline * (1 - threshold). The default
// threshold of 0.30 is deliberately loose: CI runners are noisy, and this
// gate exists to catch "the blocked WHT stopped being faster", not 5%
// jitter. A baseline key missing from the fresh run is also a failure —
// silently dropping a headline metric is how regressions hide.
//
// Output: one JSON report line on stdout (also written to --out when
// given) with a per-field verdict. Exit codes: 0 = all fields within
// threshold, 1 = regression or missing field, 2 = usage/IO error.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli_flags.hpp"
#include "service/json.hpp"

namespace {

using fastqaoa::service::Json;
using namespace fastqaoa::cli;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "bench_check: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: bench_check --fresh=run.json --baseline=base.json "
               "[--threshold=0.30] [--out=report.json]\n");
  std::exit(2);
}

Json load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return Json::parse(buf.str());
  } catch (const std::exception& e) {
    usage_error("cannot parse '" + path + "': " + e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string fresh_path = string_option(argc, argv, "--fresh", "");
  const std::string base_path = string_option(argc, argv, "--baseline", "");
  if (fresh_path.empty() || base_path.empty()) {
    usage_error("--fresh and --baseline are both required");
  }
  const double threshold = double_option(argc, argv, "--threshold", 0.30);
  if (threshold < 0.0 || threshold >= 1.0) {
    usage_error("--threshold must be in [0, 1)");
  }

  const Json fresh = load_json(fresh_path);
  const Json baseline = load_json(base_path);
  if (!fresh.is_object() || !baseline.is_object()) {
    usage_error("both inputs must be JSON objects");
  }

  Json checks = Json::array();
  int compared = 0;
  int failures = 0;
  for (const auto& [key, value] : baseline.as_object()) {
    if (!value.is_number()) continue;
    if (key.find("speedup") == std::string::npos) continue;
    ++compared;
    Json row = Json::object();
    row.set("field", Json(key));
    row.set("baseline", Json(value.as_double()));
    const Json* got = fresh.find(key);
    if (got == nullptr || !got->is_number()) {
      row.set("status", Json("missing"));
      ++failures;
      checks.push_back(std::move(row));
      continue;
    }
    const double base_v = value.as_double();
    const double fresh_v = got->as_double();
    row.set("fresh", Json(fresh_v));
    row.set("ratio", Json(base_v != 0.0 ? fresh_v / base_v : 0.0));
    const bool regressed = fresh_v < base_v * (1.0 - threshold);
    row.set("status", Json(regressed ? "regressed" : "ok"));
    if (regressed) ++failures;
    checks.push_back(std::move(row));
  }

  Json report = Json::object();
  report.set("fresh", Json(fresh_path));
  report.set("baseline", Json(base_path));
  report.set("threshold", Json(threshold));
  report.set("compared", Json(compared));
  report.set("failures", Json(failures));
  report.set("ok", Json(failures == 0 && compared > 0));
  report.set("checks", std::move(checks));

  const std::string text = report.dump();
  std::printf("%s\n", text.c_str());
  const std::string out_path = string_option(argc, argv, "--out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) usage_error("cannot write '" + out_path + "'");
    out << text << "\n";
  }

  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_check: baseline has no top-level *speedup* fields\n");
    return 2;
  }
  return failures == 0 ? 0 : 1;
}
