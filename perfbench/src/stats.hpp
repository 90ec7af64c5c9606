// stats.hpp — clocks, order statistics, the latency histogram and the
// result line of the benchmark.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t to_ns(const Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

[[nodiscard]] inline double seconds_between(const Clock::time_point a,
                                            const Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (the same rule as numpy's default).  Empty input gives 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Fixed-memory latency histogram: 10 ns buckets up to 4 ms, exact
/// samples above.  Quantiles interpolate inside a bucket, so a reported
/// latency keeps sub-bucket digits.  Memory does not grow with the
/// number of requests, so peak RSS does not track throughput.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(std::int64_t ns);
  void merge(const LatencyHistogram& other);
  void clear();
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Quantile in nanoseconds.
  [[nodiscard]] double quantile_ns(double q) const;

 private:
  static constexpr std::int64_t kBucketNs = 10;
  static constexpr std::size_t kBuckets = 400000;
  std::vector<std::uint32_t> buckets_;
  std::vector<std::int64_t> overflow_;
  std::uint64_t count_ = 0;
};

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The last line of standard output: the result object.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
