#pragma once
/// \file trace.hpp
/// Scoped spans emitting Chrome-trace-event JSON, loadable in
/// chrome://tracing or https://ui.perfetto.dev.
///
/// Tracing is off by default and costs one relaxed atomic load per span
/// site while off. trace_begin() arms it; every TraceSpan constructed while
/// armed records a complete ("ph":"X") event into a per-thread buffer
/// (registered once per thread; appends never contend). trace_end_json()
/// disarms and merges all buffers into one JSON document.
///
/// Begin/end are quiescent-point operations: call them when no instrumented
/// work is in flight (before/after a run), exactly like reading the global
/// metrics aggregate. Span names must be string literals (or otherwise
/// outlive the session) — spans store the pointer, not a copy.

#include <string>

#include "obs/metrics.hpp"

namespace fastqaoa::obs {

/// Whether a tracing session is currently armed.
[[nodiscard]] bool tracing_enabled() noexcept;

/// Arm tracing: clears all span buffers and restarts the session clock.
void trace_begin();

/// Disarm tracing and serialize every recorded span as Chrome trace-event
/// JSON ({"traceEvents":[...],"displayTimeUnit":"ms"}). Timestamps are
/// microseconds since trace_begin(). Always returns a valid JSON document,
/// even when no spans were recorded.
[[nodiscard]] std::string trace_end_json();

/// trace_end_json() written to `path`; returns false if the file could not
/// be written.
bool write_trace(const std::string& path);

/// Spans recorded across all threads in the current session (diagnostic;
/// buffers are sampled the same way trace_end_json does, so call it at a
/// quiescent point).
[[nodiscard]] std::size_t trace_span_count();

/// RAII span: records [construction, destruction) under `name` on the
/// calling thread. Nested spans nest naturally in the trace viewer because
/// their intervals are contained in the parent's.
///
/// The two-argument form stamps a correlation id (e.g. a service job id)
/// into the event's "args" object as "id", so a Perfetto/Chrome trace can
/// be joined against the daemon's NDJSON log and histogram samples.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept;
  TraceSpan(const char* name, std::uint64_t id) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  double start_us_;  ///< < 0 when tracing was off at construction
  std::uint64_t id_ = 0;
  bool has_id_ = false;
};

}  // namespace fastqaoa::obs

/// Span over the enclosing scope (a uniquely named local TraceSpan).
#define FASTQAOA_TRACE_SPAN(name)                                  \
  ::fastqaoa::obs::TraceSpan FASTQAOA_OBS_CONCAT(fq_trace_span_,   \
                                                 __LINE__)(name)
/// Span carrying a correlation id (service job id) as a span argument.
#define FASTQAOA_TRACE_SPAN_ID(name, id)                           \
  ::fastqaoa::obs::TraceSpan FASTQAOA_OBS_CONCAT(fq_trace_span_,   \
                                                 __LINE__)(name, (id))
