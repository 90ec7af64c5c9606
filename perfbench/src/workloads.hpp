// workloads.hpp — the benchmark's workloads and the metric catalogue
// every run reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;  ///< sockets and span files go here
};

/// What one run produced.  `values` maps metric names of the catalogue
/// below to their measured value; a name the workload does not reach is
/// absent and reported as 0.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  ///< oracle mismatches (a subset of failed)
  bool guard_ok = true;
  std::string guard;        ///< the layer-separation guard, human-readable
  std::map<std::string, double> values;
};

[[nodiscard]] RunResult run_wire(const RunOptions& options);
[[nodiscard]] RunResult run_grid(const RunOptions& options);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"p50_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

/// Per-layer metrics, reported by every traced run.
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"qps", "req/s"},
      {"p99_us", "us"},
      {"svc.client.call_us", "us"},
      {"svc.wire.self_us", "us"},
      {"svc.client.retries_per_call", "ratio"},
      {"svc.server.handle_line_us", "us"},
      {"svc.server.parse_us", "us"},
      {"svc.server.render_us", "us"},
      {"svc.server.rejected_frac", "ratio"},
      {"svc.query.canonicalize_us", "us"},
      {"svc.query.key_us", "us"},
      {"svc.query.hit_us", "us"},
      {"svc.query.miss_us", "us"},
      {"svc.query.hit_ratio", "ratio"},
      {"svc.query.evictions_per_query", "ratio"},
      {"svc.query.backend_hit_ratio", "ratio"},
      {"svc.query.coalesced_frac", "ratio"},
      {"sim.backend_build_us", "us"},
      {"sim.truncate_us", "us"},
      {"eval.scan_us.none", "us"},
      {"eval.scan_us.byzantine", "us"},
      {"eval.scan_us.crash", "us"},
      {"eval.probes_per_query", "count"},
      {"sim.fleet_build_ms", "ms"},
      {"eval.batch_ms", "ms"},
      {"eval.batch_serial_ms", "ms"},
      {"eval.batch_speedup", "x"},
      {"eval.expected_row_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

/// Relative tolerance of the independent check against Lemma 5 /
/// Theorem 1: a measured plain-regime CR must lie in
/// [cr * (1 - tol), cr * (1 + kTheoremAbove)].
inline constexpr double kTheoremRelTol = 1e-6;
inline constexpr double kTheoremAbove = 1e-12;

/// True if `measured` passes the independent check against `theory`.
[[nodiscard]] bool matches_theorem(long double measured, long double theory);

}  // namespace perfbench
