#include "obs/prometheus.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

namespace fastqaoa::obs {

namespace {

using LabelList = std::vector<std::pair<std::string, std::string>>;

bool valid_name_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool valid_name_char(char c) {
  return valid_name_start(c) || (c >= '0' && c <= '9');
}

bool valid_label_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool valid_label_char(char c) {
  return valid_label_start(c) || (c >= '0' && c <= '9');
}

std::string format_sample_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Split a `name|key=value|...` metric name into base + embedded labels.
void split_embedded_labels(const std::string& raw, std::string& base,
                           LabelList& labels) {
  const std::size_t bar = raw.find('|');
  if (bar == std::string::npos) {
    base = raw;
    return;
  }
  base = raw.substr(0, bar);
  std::size_t pos = bar + 1;
  while (pos <= raw.size()) {
    std::size_t next = raw.find('|', pos);
    if (next == std::string::npos) next = raw.size();
    const std::string part = raw.substr(pos, next - pos);
    const std::size_t eq = part.find('=');
    if (eq != std::string::npos && eq > 0) {
      labels.emplace_back(part.substr(0, eq), part.substr(eq + 1));
    }
    pos = next + 1;
  }
}

/// Render `k="v",k2="v2"` from common + embedded labels.
std::string render_label_body(const LabelList& common,
                              const LabelList& extra) {
  std::string out;
  for (const LabelList* src : {&common, &extra}) {
    for (const auto& [k, v] : *src) {
      if (!out.empty()) out += ',';
      out += sanitize_prometheus_name(k);
      out += "=\"";
      out += escape_prometheus_label_value(v);
      out += '"';
    }
  }
  return out;
}

void append_sample(std::string& out, std::string_view name,
                   std::string_view labels, std::string_view value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

void append_header(std::string& out, std::string_view family,
                   std::string_view help, std::string_view type) {
  out += "# HELP ";
  out += family;
  out += ' ';
  out += help;
  out += '\n';
  out += "# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
}

/// One family's series: label body -> stat, in snapshot (sorted-name) order.
template <typename Stat>
using FamilyMap =
    std::map<std::string, std::vector<std::pair<std::string, const Stat*>>>;

template <typename Stat>
FamilyMap<Stat> group_families(const std::map<std::string, Stat>& metrics,
                               const LabelList& common) {
  FamilyMap<Stat> families;
  for (const auto& [raw, stat] : metrics) {
    std::string base;
    LabelList extra;
    split_embedded_labels(raw, base, extra);
    families[base].emplace_back(render_label_body(common, extra), &stat);
  }
  return families;
}

}  // namespace

std::string sanitize_prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (i == 0 && out.empty()) ? valid_name_start(c)
                                            : valid_name_char(c);
    out += ok ? c : '_';
  }
  if (out.empty()) out = "_";
  return out;
}

std::string escape_prometheus_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void append_prometheus_gauge(std::string& out, std::string_view name,
                             std::string_view help, double value,
                             std::string_view labels) {
  append_header(out, name, help, "gauge");
  append_sample(out, name, labels, format_sample_value(value));
}

void append_prometheus_counter(std::string& out, std::string_view name,
                               std::string_view help, std::uint64_t value,
                               std::string_view labels) {
  append_header(out, name, help, "counter");
  append_sample(out, name, labels, std::to_string(value));
}

std::string to_prometheus(const MetricsSnapshot& snap,
                          std::string_view prefix) {
  std::string out;
  LabelList common(snap.labels.begin(), snap.labels.end());
  const std::string pfx = std::string(prefix) + "_";

  for (const auto& [base, series] :
       group_families(snap.counters, common)) {
    const std::string family =
        pfx + sanitize_prometheus_name(base) + "_total";
    append_header(out, family, "fastqaoa counter " + base, "counter");
    for (const auto& [labels, stat] : series) {
      append_sample(out, family, labels, std::to_string(*stat));
    }
  }

  for (const auto& [base, series] :
       group_families(snap.histograms, common)) {
    const std::string family = pfx + sanitize_prometheus_name(base);
    append_header(out, family, "fastqaoa histogram " + base, "histogram");
    for (const auto& [labels, stat] : series) {
      // Cumulative buckets from the first nonzero bucket through the last,
      // then the mandatory +Inf bucket carrying the total count.
      std::size_t first = HistogramStat::kBuckets;
      std::size_t last = 0;
      for (std::size_t i = 0; i < HistogramStat::kBuckets; ++i) {
        if (stat->buckets[i] != 0) {
          if (first == HistogramStat::kBuckets) first = i;
          last = i;
        }
      }
      std::uint64_t cum = 0;
      for (std::size_t i = first; i <= last && i < HistogramStat::kBuckets;
           ++i) {
        cum += stat->buckets[i];
        const double upper = HistogramStat::bucket_upper(i);
        if (std::isinf(upper)) break;  // the +Inf line below covers it
        std::string le = labels;
        if (!le.empty()) le += ',';
        le += "le=\"" + format_sample_value(upper) + '"';
        append_sample(out, family + "_bucket", le, std::to_string(cum));
      }
      std::string le_inf = labels;
      if (!le_inf.empty()) le_inf += ',';
      le_inf += "le=\"+Inf\"";
      append_sample(out, family + "_bucket", le_inf,
                    std::to_string(stat->count));
      append_sample(out, family + "_sum", labels,
                    format_sample_value(stat->sum));
      append_sample(out, family + "_count", labels,
                    std::to_string(stat->count));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Validator
// ---------------------------------------------------------------------------

namespace {

struct LineError {
  std::size_t line_no;
  std::string message;
};

bool parse_label_body(const std::string& body, LabelList& labels,
                      std::string& err) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t start = pos;
    if (!valid_label_start(body[pos])) {
      err = "bad label name start";
      return false;
    }
    while (pos < body.size() && valid_label_char(body[pos])) ++pos;
    const std::string key = body.substr(start, pos - start);
    if (pos >= body.size() || body[pos] != '=') {
      err = "expected '=' after label name";
      return false;
    }
    ++pos;
    if (pos >= body.size() || body[pos] != '"') {
      err = "expected '\"' opening label value";
      return false;
    }
    ++pos;
    std::string value;
    bool closed = false;
    while (pos < body.size()) {
      const char c = body[pos];
      if (c == '\\') {
        if (pos + 1 >= body.size()) {
          err = "dangling backslash in label value";
          return false;
        }
        const char n = body[pos + 1];
        if (n == '\\') value += '\\';
        else if (n == '"') value += '"';
        else if (n == 'n') value += '\n';
        else {
          err = "bad escape in label value";
          return false;
        }
        pos += 2;
      } else if (c == '"') {
        ++pos;
        closed = true;
        break;
      } else {
        value += c;
        ++pos;
      }
    }
    if (!closed) {
      err = "unterminated label value";
      return false;
    }
    labels.emplace_back(key, value);
    if (pos < body.size()) {
      if (body[pos] != ',') {
        err = "expected ',' between labels";
        return false;
      }
      ++pos;
      if (pos >= body.size()) {
        err = "trailing ',' in label body";
        return false;
      }
    }
  }
  return true;
}

bool parse_double_token(const std::string& token, double& out) {
  if (token.empty()) return false;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

/// Normalized (sorted, le-stripped) label key for grouping bucket series.
std::string series_key(const std::string& family, const LabelList& labels) {
  LabelList rest;
  for (const auto& kv : labels) {
    if (kv.first != "le") rest.push_back(kv);
  }
  std::sort(rest.begin(), rest.end());
  std::string key = family;
  for (const auto& [k, v] : rest) {
    key += '\x01';
    key += k;
    key += '\x02';
    key += v;
  }
  return key;
}

}  // namespace

bool validate_prometheus_text(const std::string& text, std::string* error) {
  const auto fail = [&](std::size_t line_no, const std::string& msg) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + msg;
    }
    return false;
  };

  std::map<std::string, std::string> family_type;
  struct HistSeries {
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    bool has_count = false;
    double count = 0.0;
    bool has_sum = false;
    std::size_t first_line = 0;
  };
  std::map<std::string, HistSeries> hist_series;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) {
      if (pos > text.size()) break;  // trailing newline
      continue;
    }

    if (line[0] == '#') {
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      const bool is_help = line.rfind("# HELP ", 0) == 0;
      if (!is_type && !is_help) continue;  // free-form comment
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      if (sp == std::string::npos || sp == 0) {
        return fail(line_no, "malformed # TYPE/# HELP line");
      }
      const std::string name = rest.substr(0, sp);
      if (!valid_name_start(name[0]) ||
          !std::all_of(name.begin(), name.end(), valid_name_char)) {
        return fail(line_no, "invalid metric name '" + name + "'");
      }
      if (is_type) {
        const std::string type = rest.substr(sp + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return fail(line_no, "unknown metric type '" + type + "'");
        }
        if (!family_type.emplace(name, type).second) {
          return fail(line_no, "duplicate # TYPE for '" + name + "'");
        }
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    std::size_t np = 0;
    if (!valid_name_start(line[0])) {
      return fail(line_no, "sample does not start with a metric name");
    }
    while (np < line.size() && valid_name_char(line[np])) ++np;
    const std::string name = line.substr(0, np);
    LabelList labels;
    if (np < line.size() && line[np] == '{') {
      // Label bodies contain quoted values; find the closing brace outside
      // quotes.
      std::size_t lb = np + 1;
      std::size_t close = std::string::npos;
      bool in_quote = false;
      for (std::size_t i = lb; i < line.size(); ++i) {
        const char c = line[i];
        if (in_quote) {
          if (c == '\\') ++i;
          else if (c == '"') in_quote = false;
        } else if (c == '"') {
          in_quote = true;
        } else if (c == '}') {
          close = i;
          break;
        }
      }
      if (close == std::string::npos) {
        return fail(line_no, "unterminated label body");
      }
      std::string lerr;
      if (!parse_label_body(line.substr(lb, close - lb), labels, lerr)) {
        return fail(line_no, lerr);
      }
      np = close + 1;
    }
    if (np >= line.size() || line[np] != ' ') {
      return fail(line_no, "expected space before sample value");
    }
    while (np < line.size() && line[np] == ' ') ++np;
    std::size_t ve = line.find(' ', np);
    if (ve == std::string::npos) ve = line.size();
    const std::string value_tok = line.substr(np, ve - np);
    double value = 0.0;
    if (!parse_double_token(value_tok, value)) {
      return fail(line_no, "unparseable sample value '" + value_tok + "'");
    }

    // Resolve the family this sample belongs to.
    std::string family;
    std::string type;
    auto direct = family_type.find(name);
    if (direct != family_type.end()) {
      family = name;
      type = direct->second;
    } else {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::string s(suffix);
        if (name.size() > s.size() &&
            name.compare(name.size() - s.size(), s.size(), s) == 0) {
          const std::string candidate =
              name.substr(0, name.size() - s.size());
          auto it = family_type.find(candidate);
          if (it != family_type.end() &&
              (it->second == "histogram" ||
               (it->second == "summary" && s != "_bucket"))) {
            family = candidate;
            type = it->second;
            break;
          }
        }
      }
      if (family.empty()) {
        return fail(line_no, "sample '" + name + "' has no # TYPE");
      }
    }

    if (type == "histogram") {
      HistSeries& hs = hist_series[series_key(family, labels)];
      if (hs.first_line == 0) hs.first_line = line_no;
      if (name == family + "_bucket") {
        std::string le_raw;
        bool found = false;
        for (const auto& [k, v] : labels) {
          if (k == "le") {
            le_raw = v;
            found = true;
          }
        }
        if (!found) {
          return fail(line_no, "histogram bucket without 'le' label");
        }
        double le = 0.0;
        if (!parse_double_token(le_raw, le)) {
          return fail(line_no, "unparseable le '" + le_raw + "'");
        }
        hs.buckets.emplace_back(le, value);
      } else if (name == family + "_count") {
        hs.has_count = true;
        hs.count = value;
      } else if (name == family + "_sum") {
        hs.has_sum = true;
      }
    }
  }

  for (const auto& [key, hs] : hist_series) {
    const std::string family = key.substr(0, key.find('\x01'));
    const std::string at = " (series starting line " +
                           std::to_string(hs.first_line) + ")";
    if (hs.buckets.empty()) {
      return fail(hs.first_line,
                  "histogram '" + family + "' has no buckets" + at);
    }
    for (std::size_t i = 1; i < hs.buckets.size(); ++i) {
      if (!(hs.buckets[i].first > hs.buckets[i - 1].first)) {
        return fail(hs.first_line, "histogram '" + family +
                                       "' le values not increasing" + at);
      }
      if (hs.buckets[i].second < hs.buckets[i - 1].second) {
        return fail(hs.first_line,
                    "histogram '" + family +
                        "' cumulative bucket counts decrease" + at);
      }
    }
    if (!std::isinf(hs.buckets.back().first)) {
      return fail(hs.first_line, "histogram '" + family +
                                     "' missing le=\"+Inf\" bucket" + at);
    }
    if (!hs.has_count || !hs.has_sum) {
      return fail(hs.first_line, "histogram '" + family +
                                     "' missing _sum or _count" + at);
    }
    if (hs.count != hs.buckets.back().second) {
      return fail(hs.first_line,
                  "histogram '" + family +
                      "' _count != +Inf bucket count" + at);
    }
  }

  if (error != nullptr) error->clear();
  return true;
}

}  // namespace fastqaoa::obs
