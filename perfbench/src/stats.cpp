#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> values, const double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::add(const std::int64_t ns) {
  ++count_;
  const std::int64_t bucket = std::max<std::int64_t>(ns, 0) / kBucketNs;
  if (bucket < static_cast<std::int64_t>(kBuckets)) {
    ++buckets_[static_cast<std::size_t>(bucket)];
  } else {
    overflow_.push_back(ns);
  }
}

void LatencyHistogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  overflow_.clear();
  count_ = 0;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  count_ += other.count_;
}

double LatencyHistogram::quantile_ns(const double q) const {
  if (count_ == 0) return 0;
  // Target rank in [0, count): the sample below which a fraction q lies.
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double in_bucket = buckets_[i];
    if (in_bucket > 0 && seen + in_bucket > rank) {
      const double frac = (rank - seen + 0.5) / in_bucket;
      return (static_cast<double>(i) + frac) * kBucketNs;
    }
    seen += in_bucket;
  }
  std::vector<double> tail(overflow_.begin(), overflow_.end());
  const double tail_q =
      tail.size() <= 1
          ? 0
          : (rank - seen) / static_cast<double>(tail.size() - 1);
  return quantile(std::move(tail), std::clamp(tail_q, 0.0, 1.0));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string result_json(const bool correct, const std::uint64_t attempted,
                        const std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
