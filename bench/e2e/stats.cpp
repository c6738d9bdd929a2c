#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "e2e.hpp"

namespace e2e {

double percentile(std::vector<double> v, double q) {
  FASTQAOA_CHECK(!v.empty(), "percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::vector<double> quartiles(std::vector<double> v) {
  FASTQAOA_CHECK(v.size() >= 2, "quartiles need at least two values");
  std::sort(v.begin(), v.end());
  // statistics.quantiles(data, n=4), method='exclusive'.
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    out.push_back((lo * static_cast<double>(4 - delta) +
                   hi * static_cast<double>(delta)) /
                  4.0);
  }
  return out;
}

}  // namespace e2e
