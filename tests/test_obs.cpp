// Tests for the observability layer (src/obs/): per-thread counter sinks
// and their merge semantics, scoped trace spans and the Chrome trace-event
// JSON they serialize to, and the thread-count invariance of merged
// evaluation counts coming out of the instrumented angle-finding loops.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "anglefind/strategies.hpp"
#include "common/threading.hpp"
#include "mixers/x_mixer.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "problems/cost_functions.hpp"

namespace fastqaoa {
namespace {

// --- minimal JSON syntax validator -----------------------------------------
// Recursive-descent checker for the JSON the obs layer emits. Accepts any
// syntactically valid document; no semantics, no number parsing beyond shape.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool literal(const char* lit) {
    for (const char* c = lit; *c != '\0'; ++c, ++i_) {
      if (i_ >= s_.size() || s_[i_] != *c) return false;
    }
    return true;
  }
  bool string() {
    if (s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
    bool digits = false;
    while (i_ < s_.size() &&
           ((s_[i_] >= '0' && s_[i_] <= '9') || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '-' ||
            s_[i_] == '+')) {
      if (s_[i_] >= '0' && s_[i_] <= '9') digits = true;
      ++i_;
    }
    return digits && i_ > start;
  }
  bool object() {
    ++i_;  // '{'
    skip_ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      if (!value()) return false;
      skip_ws();
      if (i_ >= s_.size()) return false;
      if (s_[i_] == '}') {
        ++i_;
        return true;
      }
      if (s_[i_] != ',') return false;
      ++i_;
    }
  }
  bool array() {
    ++i_;  // '['
    skip_ws();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (i_ >= s_.size()) return false;
      if (s_[i_] == ']') {
        ++i_;
        return true;
      }
      if (s_[i_] != ',') return false;
      ++i_;
    }
  }
  bool value() {
    skip_ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// --- counter / histogram sinks ----------------------------------------------

TEST(Metrics, InterningIsStableAndDistinct) {
  const obs::MetricId a1 = obs::counter_id("obs_test.alpha");
  const obs::MetricId a2 = obs::counter_id("obs_test.alpha");
  const obs::MetricId b = obs::counter_id("obs_test.beta");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  // Counter and histogram namespaces are independent.
  const obs::MetricId h = obs::histogram_id("obs_test.alpha");
  const obs::MetricId h2 = obs::histogram_id("obs_test.alpha");
  EXPECT_EQ(h, h2);
}

TEST(Metrics, CountersMergeAcrossSixThreads) {
  const obs::MetricId count_id = obs::counter_id("obs_test.merge.count");
  const obs::MetricId time_id = obs::histogram_id("obs_test.merge.seconds");

  constexpr int kThreads = 6;
  std::vector<obs::MetricsSink> sinks(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Thread t adds (t+1)*100 counts and (t+1) duration samples of t+1 ms.
      for (int i = 0; i < (t + 1) * 100; ++i) {
        sinks[static_cast<std::size_t>(t)].add_count(count_id);
      }
      for (int i = 0; i <= t; ++i) {
        sinks[static_cast<std::size_t>(t)].add_histogram(time_id,
                                                         1e-3 * (t + 1));
      }
    });
  }
  for (auto& w : workers) w.join();

  obs::MetricsSink total;
  for (const auto& sink : sinks) total.merge(sink);
  const obs::MetricsSnapshot snap = total.snapshot();

  // 100 + 200 + ... + 600 = 2100 counts; 1 + 2 + ... + 6 = 21 samples.
  ASSERT_EQ(snap.counters.count("obs_test.merge.count"), 1u);
  EXPECT_EQ(snap.counters.at("obs_test.merge.count"), 2100u);
  ASSERT_EQ(snap.histograms.count("obs_test.merge.seconds"), 1u);
  const obs::HistogramStat& stat = snap.histograms.at("obs_test.merge.seconds");
  EXPECT_EQ(stat.count, 21u);
  EXPECT_NEAR(stat.min, 1e-3, 1e-12);
  EXPECT_NEAR(stat.max, 6e-3, 1e-12);
  // sum = sum over t of (t+1) samples of (t+1) ms = 1+4+9+...+36 ms.
  EXPECT_NEAR(stat.sum, 91e-3, 1e-9);
}

TEST(Metrics, SnapshotMergeAddsAndJsonIsValid) {
  const obs::MetricId id = obs::counter_id("obs_test.snapshot.count");
  const obs::MetricId hid = obs::histogram_id("obs_test.snapshot.seconds");

  obs::MetricsSink a;
  a.add_count(id, 3);
  a.add_histogram(hid, 0.5);
  obs::MetricsSink b;
  b.add_count(id, 4);
  b.add_histogram(hid, 1.5);

  obs::MetricsSnapshot sa = a.snapshot();
  const obs::MetricsSnapshot sb = b.snapshot();
  sa.merge(sb);
  EXPECT_EQ(sa.counters.at("obs_test.snapshot.count"), 7u);
  const obs::HistogramStat& h = sa.histograms.at("obs_test.snapshot.seconds");
  EXPECT_EQ(h.count, 2u);
  EXPECT_NEAR(h.sum, 2.0, 1e-12);
  EXPECT_NEAR(h.min, 0.5, 1e-12);
  EXPECT_NEAR(h.max, 1.5, 1e-12);

  const std::string json = sa.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"obs_test.snapshot.count\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.snapshot.seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"sum\""), std::string::npos);
  EXPECT_EQ(json.find("\"timings\""), std::string::npos);

  // An empty snapshot still serializes to a valid document.
  const obs::MetricsSnapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(JsonValidator(empty.to_json()).valid()) << empty.to_json();
}

TEST(Metrics, SinkScopeBindsNestsAndHonorsRuntimeToggle) {
  EXPECT_EQ(obs::active_sink(), nullptr);
  obs::MetricsSink outer;
  obs::MetricsSink inner;
  {
    obs::SinkScope bind_outer(outer);
    EXPECT_EQ(obs::active_sink(), &outer);
    {
      obs::SinkScope bind_inner(inner);
      EXPECT_EQ(obs::active_sink(), &inner);
    }
    EXPECT_EQ(obs::active_sink(), &outer);
  }
  EXPECT_EQ(obs::active_sink(), nullptr);

  obs::set_metrics_enabled(false);
  {
    obs::SinkScope bind(outer);
    EXPECT_EQ(obs::active_sink(), nullptr);
  }
  obs::set_metrics_enabled(true);
  EXPECT_TRUE(obs::metrics_enabled());
}

TEST(Metrics, GlobalMergeAndReset) {
  obs::reset_global();
  const obs::MetricId id = obs::counter_id("obs_test.global.count");
  obs::MetricsSink sink;
  sink.add_count(id, 5);
  obs::merge_global(sink);
  obs::count_global(id, 2);
  EXPECT_EQ(obs::global_snapshot().counters.at("obs_test.global.count"), 7u);
  obs::reset_global();
  EXPECT_EQ(obs::global_snapshot().counters.count("obs_test.global.count"),
            0u);
}

// --- trace spans -------------------------------------------------------------

TEST(Trace, NestedSpansSerializeToValidChromeTraceJson) {
  obs::trace_begin();
  {
    obs::TraceSpan outer("obs_test_outer");
    {
      obs::TraceSpan inner("obs_test_inner");
    }
    {
      obs::TraceSpan inner2("obs_test_inner2");
    }
  }
  EXPECT_EQ(obs::trace_span_count(), 3u);
  const std::string json = obs::trace_end_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_FALSE(obs::tracing_enabled());
}

TEST(Trace, SpansFromMultipleThreadsAllLand) {
  obs::trace_begin();
  constexpr int kThreads = 6;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] { obs::TraceSpan span("obs_test_worker"); });
  }
  for (auto& w : workers) w.join();
  const std::string json = obs::trace_end_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  // All six spans appear, even though their threads have exited.
  std::size_t found = 0;
  for (std::size_t pos = json.find("obs_test_worker");
       pos != std::string::npos; pos = json.find("obs_test_worker", pos + 1)) {
    ++found;
  }
  EXPECT_EQ(found, 6u);
}

TEST(Trace, DisarmedSpansCostNothingAndRecordNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  {
    obs::TraceSpan span("obs_test_disarmed");
  }
  obs::trace_begin();
  const std::string json = obs::trace_end_json();
  EXPECT_EQ(json.find("obs_test_disarmed"), std::string::npos);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
}

// --- end-to-end: instrumented angle finding ---------------------------------

TEST(ObsIntegration, FindAnglesEvalCountsThreadCountInvariant) {
  Rng rng(31);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = tabulate(StateSpace::full(6),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(6);
  FindAnglesOptions opt;
  opt.seed = 13;
  opt.hopping.hops = 3;
  opt.parallel_starts = 8;

  set_num_threads(1);
  obs::reset_global();
  const std::vector<AngleSchedule> serial = find_angles(mixer, table, 2, opt);
  const obs::MetricsSnapshot snap_serial = obs::global_snapshot();

  set_num_threads(4);
  obs::reset_global();
  const std::vector<AngleSchedule> parallel =
      find_angles(mixer, table, 2, opt);
  const obs::MetricsSnapshot snap_parallel = obs::global_snapshot();
  set_num_threads(1);
  obs::reset_global();

  // The schedule-level totals are part of the public API and must be
  // identical at any thread count (and non-zero: the chains did real work).
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GT(serial[i].optimizer_calls, 0u);
    EXPECT_GT(serial[i].evaluations, 0u);
    EXPECT_GE(serial[i].evaluations, serial[i].optimizer_calls);
    EXPECT_EQ(serial[i].optimizer_calls, parallel[i].optimizer_calls);
    EXPECT_EQ(serial[i].evaluations, parallel[i].evaluations);
    EXPECT_EQ(serial[i].expectation, parallel[i].expectation);
  }

  // The merged global counters must also be identical, and so must every
  // histogram's sample count: per-chain sinks merged at join points record
  // the same deterministic work regardless of scheduling. (Durations
  // differ, of course — only counts are invariant.)
  EXPECT_FALSE(snap_serial.counters.empty());
  EXPECT_EQ(snap_serial.counters, snap_parallel.counters);
  ASSERT_FALSE(snap_serial.histograms.empty());
  ASSERT_EQ(snap_serial.histograms.size(), snap_parallel.histograms.size());
  for (const auto& [name, hist] : snap_serial.histograms) {
    ASSERT_EQ(snap_parallel.histograms.count(name), 1u) << name;
    EXPECT_EQ(hist.count, snap_parallel.histograms.at(name).count) << name;
  }
  EXPECT_GT(snap_serial.histograms.at("core.evaluate.latency_seconds").count,
            0u);
  EXPECT_GT(snap_serial.counters.at("anglefind.chains"), 0u);
  EXPECT_EQ(snap_serial.histograms.at("anglefind.round_latency_seconds").count,
            2u);
}

TEST(ObsIntegration, RandomAndGridSchedulesCarryEvalCounts) {
  Rng rng(32);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = tabulate(StateSpace::full(6),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(6);
  FindAnglesOptions opt;
  opt.seed = 5;

  set_num_threads(1);
  const AngleSchedule random = find_angles_random(mixer, table, 2, 4, opt);
  EXPECT_GT(random.optimizer_calls, 0u);
  EXPECT_GE(random.evaluations, random.optimizer_calls);

  const AngleSchedule grid = find_angles_grid(mixer, table, 1, 6, opt);
  // 6^2 grid points plus the BFGS polish.
  EXPECT_GT(grid.optimizer_calls, 36u);
  EXPECT_GE(grid.evaluations, grid.optimizer_calls);
}

TEST(ObsIntegration, OnRoundCallbackFiresPerRound) {
  Rng rng(33);
  Graph g = erdos_renyi(6, 0.5, rng);
  dvec table = tabulate(StateSpace::full(6),
                        [&g](state_t x) { return maxcut(g, x); });
  XMixer mixer = XMixer::transverse_field(6);
  FindAnglesOptions opt;
  opt.seed = 4;
  opt.hopping.hops = 2;
  std::vector<int> rounds;
  opt.on_round = [&rounds](const AngleSchedule& s, double seconds) {
    EXPECT_GE(seconds, 0.0);
    rounds.push_back(s.p);
  };

  set_num_threads(1);
  const std::vector<AngleSchedule> schedules =
      find_angles(mixer, table, 3, opt);
  ASSERT_EQ(schedules.size(), 3u);
  EXPECT_EQ(rounds, (std::vector<int>{1, 2, 3}));
}

// --- histograms --------------------------------------------------------------

TEST(Histogram, BucketIndexIsAPureFunctionOfTheValue) {
  using H = obs::HistogramStat;
  // Non-positive and NaN land in bucket 0 (the "too small to resolve" bin).
  EXPECT_EQ(H::bucket_index(0.0), 0u);
  EXPECT_EQ(H::bucket_index(-1.0), 0u);
  EXPECT_EQ(H::bucket_index(std::numeric_limits<double>::quiet_NaN()), 0u);
  // Bucket i covers [2^(i-21), 2^(i-20)): 1.0 = 2^0 has binary exponent 1
  // under frexp, so it is the first value of bucket 21.
  EXPECT_EQ(H::bucket_index(1.0), 21u);
  EXPECT_EQ(H::bucket_index(0.5), 20u);
  EXPECT_EQ(H::bucket_index(2.0), 22u);
  // Every positive finite value sits strictly below its bucket's upper
  // bound and at-or-above the previous bucket's.
  for (const double v : {1e-9, 3e-7, 1e-4, 0.02, 0.75, 1.5, 3.0, 1e6}) {
    const std::size_t i = H::bucket_index(v);
    EXPECT_LT(v, H::bucket_upper(i)) << v;
    if (i > 0) {
      EXPECT_GE(v, H::bucket_upper(i - 1)) << v;
    }
  }
  // Upper bounds are strictly increasing and end at +inf.
  for (std::size_t i = 1; i < H::kBuckets; ++i) {
    EXPECT_GT(H::bucket_upper(i), H::bucket_upper(i - 1));
  }
  EXPECT_TRUE(std::isinf(H::bucket_upper(H::kBuckets - 1)));
  // The unbounded tail: anything enormous clamps to the last bucket.
  EXPECT_EQ(H::bucket_index(1e300), H::kBuckets - 1);
}

/// The fixed workload used by the invariance test: dyadic values so the
/// double-precision sums are exact (and thus bit-identical regardless of
/// the order the partial sums are merged in).
double workload_value(int i) {
  return std::ldexp(static_cast<double>((i % 31) + 1), (i % 13) - 8);
}

TEST(Histogram, MergeIsBitIdenticalAcrossThreadCounts) {
  const obs::MetricId id = obs::histogram_id("obs_test.hist.invariance");
  constexpr int kSamples = 4096;

  // Single-threaded reference: one sink records everything in order.
  obs::MetricsSink reference;
  for (int i = 0; i < kSamples; ++i) {
    reference.add_histogram(id, workload_value(i));
  }
  const obs::MetricsSnapshot ref = reference.snapshot();

  // 8 threads, each with a private sink, striped workload, merged at join.
  constexpr int kThreads = 8;
  std::vector<obs::MetricsSink> sinks(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = t; i < kSamples; i += kThreads) {
        sinks[static_cast<std::size_t>(t)].add_histogram(id,
                                                         workload_value(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  obs::MetricsSink merged;
  for (const auto& sink : sinks) merged.merge(sink);
  const obs::MetricsSnapshot par = merged.snapshot();

  ASSERT_EQ(ref.histograms.count("obs_test.hist.invariance"), 1u);
  ASSERT_EQ(par.histograms.count("obs_test.hist.invariance"), 1u);
  const obs::HistogramStat& a = ref.histograms.at("obs_test.hist.invariance");
  const obs::HistogramStat& b = par.histograms.at("obs_test.hist.invariance");
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.count, static_cast<std::uint64_t>(kSamples));
  // Dyadic workload -> exact sums -> full bit identity, not just tolerance.
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  for (std::size_t i = 0; i < obs::HistogramStat::kBuckets; ++i) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
  }
}

TEST(Histogram, QuantilesTrackBucketBoundsAndJsonIsValid) {
  const obs::MetricId id = obs::histogram_id("obs_test.hist.quantiles");
  obs::MetricsSink sink;
  // 90 fast samples around 1ms, 10 slow around 1s: p50 must stay in the
  // fast band, p99 in the slow band.
  for (int i = 0; i < 90; ++i) sink.add_histogram(id, 1e-3);
  for (int i = 0; i < 10; ++i) sink.add_histogram(id, 1.0);
  const obs::MetricsSnapshot snap = sink.snapshot();
  const obs::HistogramStat& h = snap.histograms.at("obs_test.hist.quantiles");
  EXPECT_EQ(h.count, 100u);
  EXPECT_NEAR(h.sum, 0.09 + 10.0, 1e-9);
  EXPECT_LE(h.quantile(0.50), 4e-3);
  EXPECT_GE(h.quantile(0.99), 0.5);
  // Quantiles are clamped to the observed range.
  EXPECT_GE(h.quantile(0.0), 1e-3 - 1e-15);
  EXPECT_LE(h.quantile(1.0), 1.0 + 1e-15);
  // Empty histogram: quantile is 0, not garbage.
  EXPECT_EQ(obs::HistogramStat{}.quantile(0.5), 0.0);

  const std::string json = snap.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"obs_test.hist.quantiles\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(Histogram, ScopedHistTimerAndGlobalRecord) {
  const obs::MetricId id = obs::histogram_id("obs_test.hist.scoped");
  obs::MetricsSink sink;
  {
    obs::SinkScope bind(sink);
    obs::ScopedHistTimer timer(id);
  }
  const obs::MetricsSnapshot snap = sink.snapshot();
  ASSERT_EQ(snap.histograms.count("obs_test.hist.scoped"), 1u);
  EXPECT_EQ(snap.histograms.at("obs_test.hist.scoped").count, 1u);

  obs::reset_global();
  obs::hist_global(id, 0.25);
  obs::hist_global(id, 0.75);
  EXPECT_EQ(obs::global_snapshot().histograms.at("obs_test.hist.scoped").count,
            2u);
  obs::reset_global();
}

// --- prometheus exposition ---------------------------------------------------

/// A snapshot exercising every series shape the renderer emits: counters,
/// histograms (a `X.seconds` duration among them), and the `name|key=value`
/// embedded-label convention.
obs::MetricsSnapshot prometheus_fixture() {
  obs::MetricsSink sink;
  sink.add_count(obs::counter_id("obs_test.prom.requests"), 41);
  sink.add_histogram(obs::histogram_id("obs_test.prom.latency.seconds"),
                     0.125);
  sink.add_histogram(obs::histogram_id("obs_test.prom.latency.seconds"),
                     0.375);
  const obs::MetricId hist = obs::histogram_id("obs_test.prom.job_seconds");
  for (int i = 0; i < 16; ++i) sink.add_histogram(hist, 1e-3 * (i + 1));
  sink.add_histogram(hist, 2.0);
  sink.add_count(obs::counter_id("obs_test.prom.jobs|kind=evaluate"), 3);
  sink.add_count(obs::counter_id("obs_test.prom.jobs|kind=find_angles"), 2);
  sink.add_histogram(
      obs::histogram_id("obs_test.prom.wait|kind=evaluate"), 0.5);
  return sink.snapshot();
}

TEST(Prometheus, RenderedSnapshotPassesTheValidator) {
  const std::string text = obs::to_prometheus(prometheus_fixture());
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error << "\n"
                                                           << text;
  // Counter family, with the _total convention.
  EXPECT_NE(text.find("# TYPE fastqaoa_obs_test_prom_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fastqaoa_obs_test_prom_requests_total 41"),
            std::string::npos);
  // A `X.seconds` duration -> histogram family `..._X_seconds` with
  // _sum/_count; no summary families remain.
  EXPECT_NE(
      text.find("# TYPE fastqaoa_obs_test_prom_latency_seconds histogram"),
      std::string::npos);
  EXPECT_NE(text.find("fastqaoa_obs_test_prom_latency_seconds_sum 0.5"),
            std::string::npos);
  EXPECT_NE(text.find("fastqaoa_obs_test_prom_latency_seconds_count 2"),
            std::string::npos);
  EXPECT_EQ(text.find(" summary"), std::string::npos);
  // Histogram -> cumulative buckets ending in +Inf.
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  // Embedded labels render as real Prometheus labels.
  EXPECT_NE(text.find("{kind=\"evaluate\"}"), std::string::npos);
  EXPECT_NE(text.find("{kind=\"find_angles\"}"), std::string::npos);
}

TEST(Prometheus, SnapshotLabelsAttachToEverySample) {
  obs::MetricsSink sink;
  sink.add_count(obs::counter_id("obs_test.prom.labeled"), 9);
  obs::MetricsSnapshot snap = sink.snapshot();
  snap.labels["kernel_backend"] = "scalar";
  const std::string text = obs::to_prometheus(snap);
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error << text;
  EXPECT_NE(text.find("fastqaoa_obs_test_prom_labeled_total"
                      "{kernel_backend=\"scalar\"} 9"),
            std::string::npos)
      << text;
}

TEST(Prometheus, HistogramBucketsAreCumulativeAndConsistent) {
  const std::string text = obs::to_prometheus(prometheus_fixture());
  // Walk the rendered lines of the job_seconds histogram by hand: `le`
  // values strictly increasing, cumulative counts non-decreasing, and the
  // final +Inf bucket equal to _count.
  const std::string bucket_prefix =
      "fastqaoa_obs_test_prom_job_seconds_bucket{le=\"";
  double prev_le = -1.0;
  std::uint64_t prev_cum = 0;
  std::uint64_t inf_value = 0;
  int buckets_seen = 0;
  std::size_t pos = 0;
  while ((pos = text.find(bucket_prefix, pos)) != std::string::npos) {
    const std::size_t le_start = pos + bucket_prefix.size();
    const std::size_t le_end = text.find('"', le_start);
    ASSERT_NE(le_end, std::string::npos);
    const std::string le_tok = text.substr(le_start, le_end - le_start);
    const std::size_t val_start = text.find(' ', le_end) + 1;
    const std::size_t val_end = text.find('\n', val_start);
    const std::uint64_t cum = std::strtoull(
        text.substr(val_start, val_end - val_start).c_str(), nullptr, 10);
    if (le_tok == "+Inf") {
      inf_value = cum;
    } else {
      const double le = std::strtod(le_tok.c_str(), nullptr);
      EXPECT_GT(le, prev_le);
      prev_le = le;
    }
    EXPECT_GE(cum, prev_cum);
    prev_cum = cum;
    ++buckets_seen;
    pos = val_end;
  }
  ASSERT_GT(buckets_seen, 1);
  // 16 samples in (0, 16ms] + one 2s outlier.
  EXPECT_EQ(inf_value, 17u);
  EXPECT_NE(text.find("fastqaoa_obs_test_prom_job_seconds_count 17"),
            std::string::npos)
      << text;
}

TEST(Prometheus, ValidatorRejectsMalformedExpositions) {
  std::string error;
  // Buckets that shrink are not cumulative.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE x histogram\n"
      "x_bucket{le=\"0.5\"} 5\n"
      "x_bucket{le=\"1\"} 3\n"
      "x_bucket{le=\"+Inf\"} 5\n"
      "x_sum 1\n"
      "x_count 5\n",
      &error))
      << error;
  // Missing the +Inf bucket.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE x histogram\n"
      "x_bucket{le=\"1\"} 3\n"
      "x_sum 1\n"
      "x_count 3\n",
      &error));
  // _count disagreeing with the +Inf bucket.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE x histogram\n"
      "x_bucket{le=\"+Inf\"} 3\n"
      "x_sum 1\n"
      "x_count 4\n",
      &error));
  // An empty exposition is trivially valid.
  EXPECT_TRUE(obs::validate_prometheus_text("", &error)) << error;
}

TEST(Prometheus, AppendHelpersEscapeLabelsAndSanitizeNames) {
  EXPECT_EQ(obs::sanitize_prometheus_name("core.evaluate.seconds"),
            "core_evaluate_seconds");
  EXPECT_EQ(obs::escape_prometheus_label_value("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd");
  std::string out;
  obs::append_prometheus_gauge(out, "fastqaoa_test_gauge", "help text", 2.5,
                               "kind=\"x\"");
  obs::append_prometheus_counter(out, "fastqaoa_test_ops_total", "ops", 7,
                                 "");
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(out, &error)) << error << out;
  EXPECT_NE(out.find("fastqaoa_test_gauge{kind=\"x\"} 2.5"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("fastqaoa_test_ops_total 7"), std::string::npos);
}

}  // namespace
}  // namespace fastqaoa
