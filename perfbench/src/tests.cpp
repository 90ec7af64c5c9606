// tests.cpp — the benchmark's own tests: seeded generators and the
// span self-time arithmetic.  Exit 0 when every check passes.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gen.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "svc/query.hpp"
#include "svc/server.hpp"

namespace {

namespace svc = linesearch::svc;
using namespace perfbench;

int failures = 0;

void check(const bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<std::string> cold_stream(const std::uint64_t seed, const int conn,
                                     const std::uint64_t count) {
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < count; ++i) {
    lines.push_back(
        render_line(request_id(conn, i), cold_query(seed, conn, i)));
  }
  return lines;
}

std::vector<std::string> hot_stream(const std::uint64_t seed, const int conn,
                                    const std::uint64_t count) {
  const std::vector<svc::CrQuery> hot = hot_queries();
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < count; ++i) {
    lines.push_back(render_line(request_id(conn, i),
                                hot[hot_draw(seed, conn, i, hot.size())]));
  }
  return lines;
}

void test_streams_are_seeded() {
  for (int conn = 0; conn < 2; ++conn) {
    check(cold_stream(7, conn, 500) == cold_stream(7, conn, 500),
          "wire_cold: same seed, same stream");
    check(cold_stream(7, conn, 500) != cold_stream(8, conn, 500),
          "wire_cold: different seed, different stream");
    check(hot_stream(7, conn, 500) == hot_stream(7, conn, 500),
          "wire_hot: same seed, same stream");
    check(hot_stream(7, conn, 500) != hot_stream(8, conn, 500),
          "wire_hot: different seed, different stream");
  }
  check(cold_stream(7, 0, 200) != cold_stream(7, 1, 200),
        "wire_cold: connections draw different streams");
  check(grid_windows(3, 0) == grid_windows(3, 0) &&
            grid_windows(3, 0) != grid_windows(4, 0) &&
            grid_windows(3, 0) != grid_windows(3, 1),
        "grid_sweep: windows are seeded per request");
  const auto rows_a = expected_rows(3, 0);
  const auto rows_b = expected_rows(4, 0);
  bool same = true;
  bool differ = false;
  for (std::size_t i = 0; i < rows_a.size(); ++i) {
    same = same && rows_a[i].p == expected_rows(3, 0)[i].p;
    differ = differ || rows_a[i].p != rows_b[i].p;
    check(rows_a[i].p >= 0.05L && rows_a[i].p < 0.5L,
          "grid_expected: p in [0.05, 0.5)");
  }
  check(same && differ, "grid_expected: p draws are seeded");
}

void test_cold_keys_never_repeat() {
  // The parsed, canonical key of every request, as the server sees it.
  std::set<std::string> keys;
  std::size_t total = 0;
  std::map<int, int> regimes;
  for (int conn = 0; conn < 2; ++conn) {
    for (const std::string& line : cold_stream(11, conn, 40000)) {
      const svc::WireRequest request = svc::parse_request(line);
      const svc::CrQuery canonical = svc::canonicalize_query(request.query);
      keys.insert(svc::query_key(canonical));
      ++regimes[static_cast<int>(canonical.regime)];
      check(canonical.window_hi >= 256 && canonical.window_hi <= 4096,
            "wire_cold: window_hi in [256, 4096]");
      ++total;
    }
  }
  check(keys.size() == total, "wire_cold: a query_key repeated (" +
                                  std::to_string(total - keys.size()) + ")");
  check(regimes.size() == 3, "wire_cold: none, byzantine and crash all drawn");
}

void test_hot_set_fits_every_shard() {
  const svc::QueryServiceOptions defaults;
  std::map<std::size_t, std::size_t> per_shard;
  std::set<std::string> keys;
  for (const svc::CrQuery& query : hot_queries()) {
    const svc::CrQuery canonical = svc::canonicalize_query(query);
    ++per_shard[svc::query_shard(canonical, defaults.shard_count)];
    keys.insert(svc::query_key(canonical));
  }
  check(keys.size() == 41 * kHotWindows, "wire_hot: 328 distinct hot queries");
  std::size_t largest = 0;
  for (const auto& [shard, count] : per_shard) {
    largest = std::max(largest, count);
    check(count <= defaults.shard_capacity,
          "wire_hot: shard " + std::to_string(shard) + " holds " +
              std::to_string(count) + " > capacity");
  }
  check(largest == 11 * kHotWindows,
        "wire_hot: the fullest shard holds 11 pairs x 8 windows");
}

void test_id_splice() {
  const std::string line = render_line(42, hot_queries().front());
  check(line_with_id(42, tail_after_id(line)) == line, "id splice round trip");
  check(line_with_id(-3, tail_after_id(line)).rfind("{\"id\":-3,", 0) == 0,
        "id splice with a negative id");
}

Span span(const char* name, std::int64_t parent, std::int64_t start,
          std::int64_t end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_time() {
  // root [0, 100): children a [10, 30), b [20, 50) overlap -> cover
  // [10, 50); c [60, 70); d [90, 120) sticks out -> clipped to [90, 100).
  // a has a child [12, 18).
  std::vector<Span> spans = {
      span("root", kNoParent, 0, 100), span("a", 0, 10, 30),
      span("b", 0, 20, 50),            span("c", 0, 60, 70),
      span("d", 0, 90, 120),           span("a.child", 1, 12, 18),
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  check(self[0] == 100 - 40 - 10 - 10, "self time: root");
  check(self[1] == 20 - 6, "self time: a minus its child");
  check(self[2] == 30 && self[3] == 10 && self[4] == 30 && self[5] == 6,
        "self time: leaves are their duration");
  // Identical children count once; a child covering the parent leaves 0.
  std::vector<Span> same = {span("p", kNoParent, 0, 10), span("x", 0, 0, 10),
                            span("y", 0, 0, 10)};
  check(self_times_ns(same)[0] == 0, "self time: fully covered parent");
  const auto summary = summarize(spans);
  check(summary.at("a").count == 1 && summary.at("a").median_self_ns == 14,
        "summary: per-name self time");

  // absorb re-bases parents.
  const auto epoch = Clock::now();
  SpanLog first(epoch);
  SpanLog second(epoch);
  first.add(span("r1", kNoParent, 0, 5));
  second.add(span("r2", kNoParent, 0, 5));
  second.add(span("c2", 0, 1, 2));
  first.absorb(second);
  check(first.spans()[2].parent == 1, "absorb re-bases parent indices");
}

void test_histogram_quantiles() {
  LatencyHistogram histogram;
  std::vector<double> samples;
  for (int us = 1; us <= 1000; ++us) {
    histogram.add(us * 1000);
    samples.push_back(us * 1000.0);
  }
  histogram.add(9'000'000);  // beyond the buckets: kept exactly
  check(histogram.count() == 1001, "histogram: sample count");
  const double p50 = histogram.quantile_ns(0.5);
  check(p50 > 500'000 && p50 < 502'000, "histogram: median of 1..1000 us");
  check(histogram.quantile_ns(1.0) == 9'000'000, "histogram: overflow max");
  check(quantile(samples, 0.25) == 250'750 && median(samples) == 500'500,
        "quantile: linear interpolation between order statistics");
}

}  // namespace

int main() {
  test_streams_are_seeded();
  test_cold_keys_never_repeat();
  test_hot_set_fits_every_shard();
  test_id_splice();
  test_self_time();
  test_histogram_quantiles();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
