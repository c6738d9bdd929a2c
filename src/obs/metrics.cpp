#include "obs/metrics.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace fastqaoa::obs {

namespace {

/// Append-only name registry. Counter and histogram names live in separate
/// id spaces (a sink indexes two separate vectors).
struct Registry {
  std::mutex mutex;
  std::vector<std::string> counter_names;
  std::vector<std::string> histogram_names;
  std::unordered_map<std::string, MetricId> counter_ids;
  std::unordered_map<std::string, MetricId> histogram_ids;
};

Registry& registry() {
  static Registry r;
  return r;
}

MetricId intern(std::string_view name, std::vector<std::string>& names,
                std::unordered_map<std::string, MetricId>& ids) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::string key(name);
  auto it = ids.find(key);
  if (it != ids.end()) return it->second;
  const MetricId id = names.size();
  names.push_back(key);
  ids.emplace(std::move(key), id);
  return id;
}

std::string counter_name(MetricId id) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.counter_names[id];
}

std::string histogram_name(MetricId id) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.histogram_names[id];
}

std::atomic<bool> g_metrics_enabled{true};

thread_local MetricsSink* t_active_sink = nullptr;

/// Global aggregate, written only through the mutex-protected entry points.
struct GlobalSink {
  std::mutex mutex;
  MetricsSink sink;
  std::map<std::string, std::string> labels;
};

GlobalSink& global_sink() {
  static GlobalSink g;
  return g;
}

void append_json_escaped(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void append_double(std::ostringstream& os, double v) {
  // min of an empty HistogramStat is +inf, which JSON cannot represent.
  if (v == std::numeric_limits<double>::infinity()) {
    os << "0";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

MetricId counter_id(std::string_view name) {
  Registry& r = registry();
  return intern(name, r.counter_names, r.counter_ids);
}

MetricId histogram_id(std::string_view name) {
  Registry& r = registry();
  return intern(name, r.histogram_names, r.histogram_ids);
}

std::size_t HistogramStat::bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;  // non-positive and NaN samples
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp with m in [0.5, 1)
  const int idx = exp + 20;  // v in [2^(idx-21), 2^(idx-20))
  if (idx < 0) return 0;
  if (idx >= static_cast<int>(kBuckets)) return kBuckets - 1;
  return static_cast<std::size_t>(idx);
}

double HistogramStat::bucket_upper(std::size_t i) noexcept {
  if (i + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i) - 20);
}

double HistogramStat::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Smallest bucket whose cumulative count reaches ceil(q * count).
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cum += buckets[i];
    if (static_cast<double>(cum) >= target) {
      double upper = bucket_upper(i);
      if (upper > max) upper = max;  // incl. the +inf last bucket
      if (upper < min) upper = min;
      return upper;
    }
  }
  return max;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.labels) labels[name] = value;
  for (const auto& [name, count] : other.counters) counters[name] += count;
  for (const auto& [name, hist] : other.histograms) {
    histograms[name].merge(hist);
  }
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << '{';
  if (!labels.empty()) {
    os << "\"labels\":{";
    bool lfirst = true;
    for (const auto& [name, value] : labels) {
      if (!lfirst) os << ',';
      lfirst = false;
      append_json_escaped(os, name);
      os << ':';
      append_json_escaped(os, value);
    }
    os << "},";
  }
  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, count] : counters) {
    if (!first) os << ',';
    first = false;
    append_json_escaped(os, name);
    os << ':' << count;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) os << ',';
    first = false;
    append_json_escaped(os, name);
    os << ":{\"count\":" << hist.count << ",\"sum\":";
    append_double(os, hist.sum);
    os << ",\"min\":";
    append_double(os, hist.min);
    os << ",\"max\":";
    append_double(os, hist.max);
    os << ",\"p50\":";
    append_double(os, hist.quantile(0.50));
    os << ",\"p95\":";
    append_double(os, hist.quantile(0.95));
    os << ",\"p99\":";
    append_double(os, hist.quantile(0.99));
    os << ",\"buckets\":{";
    bool bfirst = true;
    for (std::size_t i = 0; i < HistogramStat::kBuckets; ++i) {
      if (hist.buckets[i] == 0) continue;
      if (!bfirst) os << ',';
      bfirst = false;
      os << '"' << i << "\":" << hist.buckets[i];
    }
    os << "}}";
  }
  os << "}}";
  return os.str();
}

void MetricsSink::merge(const MetricsSink& other) {
  if (other.counters_.size() > counters_.size()) {
    counters_.resize(other.counters_.size(), 0);
  }
  for (std::size_t i = 0; i < other.counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  if (other.histograms_.size() > histograms_.size()) {
    histograms_.resize(other.histograms_.size());
  }
  for (std::size_t i = 0; i < other.histograms_.size(); ++i) {
    histograms_[i].merge(other.histograms_[i]);
  }
}

bool MetricsSink::empty() const noexcept {
  for (const std::uint64_t c : counters_) {
    if (c != 0) return false;
  }
  for (const HistogramStat& h : histograms_) {
    if (h.count != 0) return false;
  }
  return true;
}

MetricsSnapshot MetricsSink::snapshot() const {
  MetricsSnapshot snap;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] != 0) snap.counters[counter_name(i)] = counters_[i];
  }
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    if (histograms_[i].count != 0) {
      snap.histograms[histogram_name(i)] = histograms_[i];
    }
  }
  return snap;
}

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

MetricsSink* active_sink() noexcept { return t_active_sink; }

SinkScope::SinkScope(MetricsSink& sink) noexcept
    : previous_(t_active_sink) {
  t_active_sink = metrics_enabled() ? &sink : nullptr;
}

SinkScope::~SinkScope() { t_active_sink = previous_; }

void merge_global(const MetricsSink& sink) {
  if (sink.empty()) return;
  GlobalSink& g = global_sink();
  std::lock_guard<std::mutex> lock(g.mutex);
  g.sink.merge(sink);
}

void count_global(MetricId id, std::uint64_t delta) {
  GlobalSink& g = global_sink();
  std::lock_guard<std::mutex> lock(g.mutex);
  g.sink.add_count(id, delta);
}

void hist_global(MetricId id, double value) {
  GlobalSink& g = global_sink();
  std::lock_guard<std::mutex> lock(g.mutex);
  g.sink.add_histogram(id, value);
}

MetricsSnapshot global_snapshot() {
  GlobalSink& g = global_sink();
  std::lock_guard<std::mutex> lock(g.mutex);
  MetricsSnapshot snap = g.sink.snapshot();
  snap.labels = g.labels;
  return snap;
}

void reset_global() {
  GlobalSink& g = global_sink();
  std::lock_guard<std::mutex> lock(g.mutex);
  g.sink.clear();  // labels survive: they are configuration, not counts
}

void set_global_label(std::string_view name, std::string_view value) {
  GlobalSink& g = global_sink();
  std::lock_guard<std::mutex> lock(g.mutex);
  g.labels[std::string(name)] = std::string(value);
}

}  // namespace fastqaoa::obs
