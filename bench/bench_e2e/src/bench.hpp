// Shared pieces of the benchmark: clocks, order statistics and the
// result record every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <time.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system, all threads) in nanoseconds.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Element-wise median of metric lists that share one layout (one list
/// per traced window or round).
inline std::vector<Metric> median_metrics(
    const std::vector<const std::vector<Metric>*>& runs) {
  std::vector<Metric> out = *runs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const std::vector<Metric>* run : runs) {
      values.push_back((*run)[i].value);
    }
    out[i].value = median(std::move(values));
  }
  return out;
}

/// What one invocation reports. `end_to_end` and `per_layer` are the
/// machine-read metric sets (BENCHMARK.json); `report` holds the
/// workload-specific user metrics that are printed but not compared
/// (recall, first-match and index-lag quantiles, failed_share).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // one line per failed check
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> report;

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// How long one invocation may measure, and whether it is the traced run.
struct RunOptions {
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
};

Result run_sim_workload(const std::string& workload, const RunOptions& opts);
Result run_ring_workload(const RunOptions& opts);

}  // namespace perfbench
