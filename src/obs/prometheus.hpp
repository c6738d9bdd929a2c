#pragma once
/// \file prometheus.hpp
/// Prometheus text-format exposition for MetricsSnapshot, plus the
/// line-by-line format validator shared by the unit tests, qaoa_client
/// --validate, and the CI smoke job.
///
/// Mapping:
///   counters   -> `<prefix>_<name>_total` (TYPE counter)
///   histograms -> `<prefix>_<name>` (TYPE histogram: cumulative
///                 `_bucket{le="..."}` series ending at le="+Inf",
///                 plus `_sum`/`_count`)
///
/// Metric names may embed labels with the `name|key=value|key2=value2`
/// convention (the service layer interns per-job-kind series this way);
/// the renderer splits them back into proper Prometheus labels and groups
/// all series of a family under one `# TYPE` block. Snapshot labels
/// (e.g. kernel_backend) are attached to every sample.

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace fastqaoa::obs {

/// Render a snapshot as Prometheus text exposition format.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snap,
                                        std::string_view prefix = "fastqaoa");

/// Append one `# HELP`/`# TYPE`/sample triple for a standalone gauge
/// (the service layer uses this for queue depth, worker counts, ...).
/// `labels` is a pre-rendered label body like `kind="evaluate"` (may be
/// empty). `name` must already be a valid Prometheus metric name.
void append_prometheus_gauge(std::string& out, std::string_view name,
                             std::string_view help, double value,
                             std::string_view labels = {});

/// Same, for a monotone counter sample (`name` should end in `_total`).
void append_prometheus_counter(std::string& out, std::string_view name,
                               std::string_view help, std::uint64_t value,
                               std::string_view labels = {});

/// Turn an arbitrary metric name into a valid Prometheus name fragment
/// (dots and other invalid characters become underscores).
[[nodiscard]] std::string sanitize_prometheus_name(std::string_view name);

/// Escape a label value (backslash, quote, newline).
[[nodiscard]] std::string escape_prometheus_label_value(std::string_view v);

/// Strict line-by-line validation of Prometheus text exposition format:
///   - every sample belongs to a family with a preceding `# TYPE` line,
///     and TYPE lines are unique per family with a known type
///   - metric names and label syntax are well-formed, values parse
///   - histogram bucket series are cumulative and monotone in `le`,
///     terminate with le="+Inf", and `_count` equals the +Inf bucket
///   - histogram families carry `_sum` and `_count`
/// Returns true when valid; otherwise fills *error (if non-null) with a
/// message naming the offending line.
[[nodiscard]] bool validate_prometheus_text(const std::string& text,
                                            std::string* error = nullptr);

}  // namespace fastqaoa::obs
