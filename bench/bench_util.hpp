#pragma once
/// Shared helpers for the figure-reproduction harnesses: tiny argument
/// parsing (every binary accepts --full for the paper-size sweep and
/// defaults to a reduced sweep sized for CI), repetition-based timing,
/// table printing, and a structured --json=path results sink shared by all
/// harnesses (the human-readable tables stay on stdout either way).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli_flags.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace fastqaoa::benchutil {

// Every harness parses its flags through the shared tool parser.
using cli::double_option;
using cli::has_flag;
using cli::int_option;
using cli::string_option;

/// Median wall-clock seconds of `reps` calls to fn (after one warmup call).
template <typename Fn>
double time_median(Fn&& fn, int reps = 5) {
  fn();  // warmup
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    times.push_back(timer.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Print a banner for a figure harness.
inline void banner(const char* figure, const char* description, bool full) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("mode: %s (pass --full for the paper-size sweep)\n",
              full ? "FULL" : "reduced");
  std::printf("==========================================================\n");
}

/// Append `s` to `out` as a JSON string literal.
inline void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

inline std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Structured results behind the shared --json=path flag: top-level
/// metadata, a flat list of measurement rows, and (optionally) the merged
/// engine metrics snapshot. Does nothing unless --json was passed, so every
/// harness can call it unconditionally.
class JsonReport {
 public:
  JsonReport(int argc, char** argv, std::string tool)
      : tool_(std::move(tool)),
        path_(string_option(argc, argv, "--json", "")) {}

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  void meta(const std::string& key, const std::string& value) {
    std::string v;
    append_json_string(v, value);
    meta_.emplace_back(key, std::move(v));
  }
  void meta(const std::string& key, double value) {
    meta_.emplace_back(key, json_number(value));
  }
  void meta(const std::string& key, long long value) {
    meta_.emplace_back(key, std::to_string(value));
  }

  /// Start a new measurement row; field() calls land in the latest row.
  void row() { rows_.emplace_back(); }
  void field(const std::string& key, double value) {
    rows_.back().emplace_back(key, json_number(value));
  }
  void field(const std::string& key, long long value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }
  void field(const std::string& key, const std::string& value) {
    std::string v;
    append_json_string(v, value);
    rows_.back().emplace_back(key, std::move(v));
  }

  /// Embed the current global metrics snapshot (call after the sweep).
  void attach_metrics() { metrics_ = obs::global_snapshot().to_json(); }

  /// Write the report to the --json path. Returns false (silently) when the
  /// flag was not passed; aborts with a message when the file cannot be
  /// written so CI never mistakes a missing artifact for success.
  bool write() const {
    if (path_.empty()) return false;
    std::string out = "{\"tool\":";
    append_json_string(out, tool_);
    for (const auto& [key, value] : meta_) {
      out += ',';
      append_json_string(out, key);
      out += ':';
      out += value;
    }
    out += ",\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r) out += ',';
      out += '{';
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        if (f) out += ',';
        append_json_string(out, rows_[r][f].first);
        out += ':';
        out += rows_[r][f].second;
      }
      out += '}';
    }
    out += ']';
    if (!metrics_.empty()) {
      out += ",\"metrics\":";
      out += metrics_;
    }
    out += "}\n";
    std::ofstream file(path_);
    if (!file.good()) {
      std::fprintf(stderr, "error: cannot open --json file %s\n",
                   path_.c_str());
      std::exit(1);
    }
    file << out;
    return true;
  }

 private:
  std::string tool_;
  std::string path_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  std::string metrics_;
};

}  // namespace fastqaoa::benchutil
