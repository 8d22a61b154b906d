// Metric collection for the vbench load generator: named values with
// units and sample counts, plus the order statistics every timing is
// reported as.

#ifndef VBENCH_REPORT_H_
#define VBENCH_REPORT_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // 0 = not a sample statistic
};

using Metrics = std::map<std::string, Metric>;

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[rank == 0 ? 0 : rank - 1];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// Percentile of the daemon's trace spans, which are whole microseconds
/// truncated: a sample k stands for [k, k + 1) us, so the percentile is
/// interpolated within its microsecond (the grouped-data percentile)
/// rather than read off as a whole number of microseconds.
inline double SpanPercentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double target = q * static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(target));
  double k = values[rank == 0 ? 0 : rank - 1];
  auto first = std::lower_bound(values.begin(), values.end(), k);
  auto last = std::upper_bound(values.begin(), values.end(), k);
  double below = static_cast<double>(first - values.begin());
  return k + (target - below) / static_cast<double>(last - first);
}

inline double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Wall time of one call of `fn`, in microseconds.
template <typename Fn>
double TimeUs(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace vbench

#endif  // VBENCH_REPORT_H_
