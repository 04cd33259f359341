// Clock, order statistics, peak RSS and result-line output of the
// end-to-end benchmark.
#ifndef PERFBENCH_STATS_UTIL_H_
#define PERFBENCH_STATS_UTIL_H_

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// q-quantile (0..1) by linear interpolation between order statistics;
/// 0 for an empty sample. `v` is reordered.
double Quantile(std::vector<double>* v, double q);
inline double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

/// Process peak resident set (VmHWM), MiB; 0 if unavailable.
double PeakRssMiB();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// {"name": {"value": v, "unit": u}, ...} with every digit of each value.
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_UTIL_H_
