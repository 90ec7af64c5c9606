#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::size_t SpanLog::open(const char* name, const std::int64_t request,
                          const std::int64_t parent, const int tag) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.tag = tag;
  span.start_ns = now_ns();
  span.end_ns = span.start_ns;
  spans_.push_back(span);
  return spans_.size() - 1;
}

void SpanLog::close(const std::size_t index) {
  spans_[index].end_ns = now_ns();
}

std::size_t SpanLog::add(const Span& span) {
  spans_.push_back(span);
  return spans_.size() - 1;
}

void SpanLog::absorb(const SpanLog& other) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != kNoParent) span.parent += offset;
    spans_.push_back(span);
  }
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  // Children's intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == kNoParent) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open_run = false;
    for (const auto& [lo, hi] : intervals) {
      if (open_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open_run = true;
    }
    if (open_run) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::map<std::string, SpanSummary> summarize(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [durations, selfs] = by_name[spans[i].name];
    durations.push_back(static_cast<double>(spans[i].duration_ns()));
    selfs.push_back(static_cast<double>(self[i]));
  }
  std::map<std::string, SpanSummary> out;
  for (auto& [name, samples] : by_name) {
    SpanSummary summary;
    summary.count = samples.first.size();
    summary.median_duration_ns = median(std::move(samples.first));
    summary.median_self_ns = median(std::move(samples.second));
    out[name] = summary;
  }
  return out;
}

bool write_spans_csv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::fprintf(file, "index,name,parent,request,tag,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file, "%zu,%s,%lld,%lld,%d,%lld,%lld,%lld\n", i, s.name,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.tag,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
