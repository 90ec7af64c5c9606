// spans.hpp — the traced run's span log and self-time arithmetic.
//
// A span is one call into a layer, timed from the benchmark's side of
// the boundary: name, start, end, parent, request id and a small tag
// (the fault regime of a wire_cold request).  Spans stay in memory
// until the run ends.  A span's self time is its duration minus the part
// of it its children cover; children may overlap (parallel rows), so the
// covered part is the length of the union of their intervals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  const char* name = "";
  std::int64_t parent = kNoParent;  ///< index into the same log
  std::int64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int tag = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Spans of one thread.  Times are nanoseconds since the log's epoch,
/// which all logs of a run share.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  [[nodiscard]] std::int64_t now_ns() const {
    return to_ns(Clock::now() - epoch_);
  }
  /// Open a span now; returns its index for close() and for children.
  std::size_t open(const char* name, std::int64_t request,
                   std::int64_t parent = kNoParent, int tag = 0);
  void close(std::size_t index);
  /// Append a span timed elsewhere (a worker thread's row); returns its
  /// index.
  std::size_t add(const Span& span);

  [[nodiscard]] Span& at(std::size_t index) { return spans_[index]; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Append `other`'s spans, re-basing its parent indices.
  void absorb(const SpanLog& other);

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Self time of every span, in the log's order: its duration minus the
/// length of the union of its children's intervals clipped to it.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Per-name aggregate of a log.
struct SpanSummary {
  std::size_t count = 0;
  double median_duration_ns = 0;
  double median_self_ns = 0;
};
[[nodiscard]] std::map<std::string, SpanSummary> summarize(
    const std::vector<Span>& spans);

/// Write the log as CSV (index,name,parent,request,tag,start_ns,end_ns,
/// self_ns).  Returns false if the file cannot be written.
bool write_spans_csv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
