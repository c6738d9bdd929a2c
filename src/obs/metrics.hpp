#pragma once
/// \file metrics.hpp
/// Engine-wide metrics: named counters and histograms with per-thread sinks
/// merged at join points.
///
/// The design mirrors the plan/workspace split: hot paths increment a
/// MetricsSink they own exclusively (the one embedded in their
/// EvalWorkspace, bound as the thread's *active sink* for the duration of a
/// call), so instrumentation never touches shared state on the hot path.
/// Outer loops merge each worker's sink into the process-global aggregate
/// exactly once, at their join point — which is why merged totals are
/// identical at any thread count: the same deterministic work produces the
/// same counts no matter how it was scheduled.
///
/// Metric names are interned once into dense ids (function-local statics at
/// each instrumentation site), so a hot-path increment is a vector index,
/// not a hash lookup.
///
/// Two metric kinds: counters (event counts) and histograms (value
/// distributions). A duration is a histogram: each instrumented scope
/// records exactly one, and its `count` is the number of times the scope
/// ran, so no separate call counter sits beside it. Instrumentation is
/// always compiled in; the only off switch is the runtime
/// set_metrics_enabled(), which the overhead bench toggles.

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/timer.hpp"

namespace fastqaoa::obs {

/// Dense handle for an interned metric name.
using MetricId = std::size_t;

/// Intern a counter / histogram name (process-global, append-only; safe to
/// call from any thread, but intended to run once per site via a local
/// static). The two kinds live in separate id spaces.
MetricId counter_id(std::string_view name);
MetricId histogram_id(std::string_view name);

/// Fixed log2-bucketed distribution for one named histogram.
///
/// The bucket index is a pure function of the recorded value (its binary
/// exponent), never of thread scheduling or insertion order — so merged
/// bucket counts are bit-identical at any worker/thread count on the same
/// workload, exactly like counters. Bucket i covers values in
/// [2^(i-21), 2^(i-20)): bucket 0 absorbs everything below ~0.95 µs (the
/// base resolution, chosen for second-denominated latencies; integer-valued
/// samples such as batch widths land in the exact power-of-two buckets),
/// and the last bucket absorbs the unbounded tail.
struct HistogramStat {
  static constexpr std::size_t kBuckets = 64;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Bucket index for a value: clamp(binary_exponent(v) + 20, 0, 63).
  /// Non-positive (and NaN) values land in bucket 0.
  [[nodiscard]] static std::size_t bucket_index(double v) noexcept;
  /// Inclusive upper bound of bucket i: 2^(i-20) seconds; +inf for the
  /// last bucket.
  [[nodiscard]] static double bucket_upper(std::size_t i) noexcept;

  void add(double v) noexcept {
    ++count;
    sum += v;
    if (v < min) min = v;
    if (v > max) max = v;
    ++buckets[bucket_index(v)];
  }
  void merge(const HistogramStat& other) noexcept {
    count += other.count;
    sum += other.sum;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
  }
  /// Quantile estimate derived from bucket upper bounds (clamped to the
  /// observed [min, max] so p100-ish queries never exceed real data).
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// Point-in-time view of a sink (or of the global aggregate) keyed by name.
/// Mergeable, and serializable to a stable (sorted-key) JSON object.
struct MetricsSnapshot {
  /// Process facts attached to the snapshot (e.g. kernel_backend). Labels
  /// describe configuration, not accumulation: merge() overwrites ours with
  /// the other side's values instead of combining them.
  std::map<std::string, std::string> labels;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramStat> histograms;

  void merge(const MetricsSnapshot& other);
  [[nodiscard]] bool empty() const noexcept {
    return labels.empty() && counters.empty() && histograms.empty();
  }
  /// {"labels": {name: value, ...},
  ///  "counters": {name: count, ...},
  ///  "histograms": {name: {"count": n, "sum": s, "min": a, "max": b,
  ///                        "p50": q1, "p95": q2, "p99": q3,
  ///                        "buckets": {"<index>": count, ...}}}}
  /// Bucket counts are exact (sparse: zero buckets omitted); the quantiles
  /// are derived from bucket upper bounds.
  [[nodiscard]] std::string to_json() const;
};

/// One thread's (or one workspace's) metric store. Not thread-safe — that
/// is the point: exactly one thread writes a given sink, and merges into
/// shared aggregates happen only at join points.
class MetricsSink {
 public:
  void add_count(MetricId id, std::uint64_t delta = 1) {
    if (id >= counters_.size()) counters_.resize(id + 1, 0);
    counters_[id] += delta;
  }
  void add_histogram(MetricId id, double value) {
    if (id >= histograms_.size()) histograms_.resize(id + 1);
    histograms_[id].add(value);
  }
  void merge(const MetricsSink& other);
  void clear() noexcept {
    counters_.clear();
    histograms_.clear();
  }
  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::vector<std::uint64_t> counters_;   ///< indexed by counter MetricId
  std::vector<HistogramStat> histograms_; ///< indexed by histogram MetricId
};

/// Runtime master switch (default on) — the one way to turn metrics off.
/// When off, SinkScope binds no active sink and the global recorders skip,
/// so every instrumentation site becomes a null-pointer or flag test; the
/// overhead bench toggles it to measure instrumented vs uninstrumented
/// evaluate() inside one binary.
void set_metrics_enabled(bool enabled) noexcept;
[[nodiscard]] bool metrics_enabled() noexcept;

/// The calling thread's active sink (nullptr when none is bound).
[[nodiscard]] MetricsSink* active_sink() noexcept;

/// RAII binding of a sink as the calling thread's active sink. evaluate()
/// binds its workspace's sink; optimizer outer loops bind their chain's
/// workspace sink around the whole chain so BFGS/basinhopping counters land
/// in the same per-thread store. Scopes nest (the previous binding is
/// restored on destruction).
class SinkScope {
 public:
  explicit SinkScope(MetricsSink& sink) noexcept;
  ~SinkScope();
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;

 private:
  MetricsSink* previous_;
};

/// Times a scope, in seconds, into a histogram of the active sink (captured
/// at construction).
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(MetricId id) noexcept
      : sink_(active_sink()), id_(id) {}
  ~ScopedHistTimer() {
    if (sink_ != nullptr) sink_->add_histogram(id_, timer_.seconds());
  }
  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

 private:
  MetricsSink* sink_;
  MetricId id_;
  WallTimer timer_;
};

/// Process-global aggregate. merge_global is the join-point primitive
/// (mutex-protected, called once per chain/instance — never per
/// evaluation); count_global/hist_global record cold-path events that have
/// no per-thread sink (find_angles rounds, ensemble instances, service job
/// bookkeeping).
void merge_global(const MetricsSink& sink);
void count_global(MetricId id, std::uint64_t delta = 1);
void hist_global(MetricId id, double value);
[[nodiscard]] MetricsSnapshot global_snapshot();
void reset_global();

/// Attach a label to every global snapshot (the kernel dispatch layer sets
/// "kernel_backend" here). Labels describe process configuration and survive
/// reset_global(), which clears accumulated counts only.
void set_global_label(std::string_view name, std::string_view value);

}  // namespace fastqaoa::obs

// ---------------------------------------------------------------------------
// Instrumentation macros: each interns its metric name once per site (a
// function-local static id), so a hot-path record is a vector index.
// ---------------------------------------------------------------------------

#define FASTQAOA_OBS_CONCAT_IMPL(a, b) a##b
#define FASTQAOA_OBS_CONCAT(a, b) FASTQAOA_OBS_CONCAT_IMPL(a, b)

/// Add `delta` to the named counter in the active sink (no-op if none).
#define FASTQAOA_OBS_COUNT(name, delta)                                  \
  do {                                                                   \
    if (::fastqaoa::obs::MetricsSink* fq_obs_s =                         \
            ::fastqaoa::obs::active_sink()) {                            \
      static const ::fastqaoa::obs::MetricId fq_obs_id =                 \
          ::fastqaoa::obs::counter_id(name);                             \
      fq_obs_s->add_count(fq_obs_id, (delta));                           \
    }                                                                    \
  } while (false)

/// Record a value into the named histogram of the active sink.
#define FASTQAOA_OBS_HIST(name, value)                                    \
  do {                                                                    \
    if (::fastqaoa::obs::MetricsSink* fq_obs_s =                          \
            ::fastqaoa::obs::active_sink()) {                             \
      static const ::fastqaoa::obs::MetricId fq_obs_id =                  \
          ::fastqaoa::obs::histogram_id(name);                            \
      fq_obs_s->add_histogram(fq_obs_id, (value));                        \
    }                                                                     \
  } while (false)

/// Time the enclosing scope, in seconds, into the named histogram of the
/// active sink.
#define FASTQAOA_OBS_HIST_TIMED(name)                                     \
  static const ::fastqaoa::obs::MetricId FASTQAOA_OBS_CONCAT(             \
      fq_obs_hid_, __LINE__) = ::fastqaoa::obs::histogram_id(name);       \
  ::fastqaoa::obs::ScopedHistTimer FASTQAOA_OBS_CONCAT(fq_obs_htimer_,    \
                                                       __LINE__)(         \
      FASTQAOA_OBS_CONCAT(fq_obs_hid_, __LINE__))

/// Cold-path global counter/histogram (serial outer-loop bookkeeping).
#define FASTQAOA_OBS_COUNT_GLOBAL(name, delta)                           \
  do {                                                                   \
    if (::fastqaoa::obs::metrics_enabled()) {                            \
      static const ::fastqaoa::obs::MetricId fq_obs_id =                 \
          ::fastqaoa::obs::counter_id(name);                             \
      ::fastqaoa::obs::count_global(fq_obs_id, (delta));                 \
    }                                                                    \
  } while (false)

#define FASTQAOA_OBS_HIST_GLOBAL(name, value)                             \
  do {                                                                    \
    if (::fastqaoa::obs::metrics_enabled()) {                             \
      static const ::fastqaoa::obs::MetricId fq_obs_id =                  \
          ::fastqaoa::obs::histogram_id(name);                            \
      ::fastqaoa::obs::hist_global(fq_obs_id, (value));                   \
    }                                                                     \
  } while (false)
