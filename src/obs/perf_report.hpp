// obs/perf_report.hpp — the machine-readable perf artifact, as a library.
//
// bench_perf's JSON output (BENCH_perf.json) used to live inside the
// bench binary, which made two things impossible: tests could not pin
// its schema (satellite: schema-stability regression), and the
// `--timings-only` flag could not actually skip the checksum work — the
// heavyweight dense counterpart of the analytic sweep (hundreds of dense
// A(12, 11) builds out to 4 * 2^20) ran unconditionally, defeating the
// flag's stated purpose of being cheap enough for every CI push.
//
// This module owns the workload now.  bench_perf delegates here;
// tests/obs/perf_report_test runs it with scaled-down options and
// asserts on the schema.  Semantics of the two modes:
//
//   full (timings_only = false): every workload runs, deterministic
//     checksums are folded, serial-vs-parallel and dense-vs-analytic
//     identity is verified, and the dense sweep counterpart is timed.
//   timings only: everything whose ONLY purpose is checksum
//     verification is skipped — the checksum folds, the element-wise
//     identity comparisons, and the entire dense counterpart of the
//     analytic sweep.  "checksum" fields and the two *_identical_* flags
//     are omitted; everything else keeps its name and shape.
//
// Both modes emit schema kPerfReportSchema (below) and embed the obs
// metric registry ("metrics": [...], see obs/export.hpp) folded over
// exactly the workloads this report ran (the registry is reset first).
// Schema /3 added the degraded_sweep workload (runtime/supervisor.hpp:
// crash -> detect -> re-plan -> re-measure CR over the regime grid) and
// its summary object; in full mode that object also reports the worst
// relative gap to Theorem 1 over the valid reductions.  Schema /4 added
// the kernel_sweep workloads — the SoA kernel path (eval/kernels) raced
// against the scalar reference scan on a dense leg (the deep wide
// regimes A(12, 11) and A(12, 10) built dense at 4x the race window)
// and the analytic A(12, 11) window sweep — plus the kernel_sweep
// summary object (simd_compiled, the two speedups, and in full mode the
// bitwise kernel-vs-scalar identity flag).  Each kernel_sweep leg is
// timed best-of-kernel_reps (single passes are noise-bound).  Schema /5
// added the byzantine_sweep workload (eval/byzantine: quorum CR of
// every regime pair vs the arXiv:1611.08209 closed form) and its
// summary object; full mode reports worst_gap_to_theory over the
// feasible diagonal.  Schema /6 added the svc_load workloads — a
// closed-loop client driving the query service's wire path
// (svc/server handle_line) over the proportional-regime grid, one cold
// pass against an empty cache and svc_warm_passes hot replays — plus
// the svc_load summary object (cold/warm qps, the warm speedup, warm
// p50/p99 latency, and the cache hit rate).  Schema /7 added the
// probabilistic_sweep workload — the exact expected-CR engine
// (eval/expectation) over the regime grid times a p grid — and its
// summary object (divergent row count plus, in full mode, the
// closed-form-vs-Monte-Carlo agreement check and the measured speedup
// of the exact series over a seeded MC estimate of the same
// expectations).  Schema /8 added the svc_restart workload — the
// crash-safe warm-restart round trip (svc/snapshot: save the warmed
// svc_load cache, restore it into a fresh server, replay the hot set)
// — and its summary object (entries/bytes saved, restore verdict,
// save/load/replay timings, replay qps, and the restored-cache hit
// rate the robustness docs pin at >= 0.9).
#pragma once

#include <iosfwd>

#include "util/real.hpp"

namespace linesearch::obs {

/// Schema tag emitted by write_perf_report (bumped from /1 when the
/// report moved into the library, gained the metrics array and made
/// timings-only actually skip the checksum workloads; from /2 when the
/// degraded-mode supervisor sweep joined the workload list; from /3 when
/// the SoA kernel_sweep workloads and summary joined it; from /4 when
/// the Byzantine quorum sweep joined it; from /5 when the closed-loop
/// query-service load workload joined it; from /6 when the probabilistic
/// expected-CR p-sweep joined it; from /7 when the warm-restart
/// snapshot round trip joined it).
inline constexpr const char* kPerfReportSchema = "linesearch-bench-perf/8";

struct PerfReportOptions {
  /// Skip all checksum-verification work (see header comment).
  bool timings_only = false;
  /// Fleet builds per timing loop of the analytic-vs-dense build
  /// comparison (single builds are below clock resolution).
  int build_reps = 512;
  /// Coverage of the dense A(7, 4) fleet behind the CR-sweep workloads.
  Real dense_coverage = 2000;
  /// Window of the analytic sweep (a power of two keeps probes exact).
  Real sweep_window_hi = 1048576;
  /// Timing passes per kernel_sweep leg; the fastest pass is reported.
  /// Each leg is only a few milliseconds end to end, so a single pass
  /// is dominated by scheduler and frequency noise.
  int kernel_reps = 15;
  /// Grid size of the degraded-mode supervisor sweep (regime pairs with
  /// n <= degraded_n_max, 1..degraded_max_crashes crash-stops each).
  int degraded_n_max = 6;
  int degraded_max_crashes = 2;
  /// Grid size of the Byzantine quorum sweep (regime pairs with
  /// n <= byzantine_n_max; 41 pairs at 12).
  int byzantine_n_max = 6;
  /// Grid of the closed-loop service-load workload (regime pairs with
  /// n <= svc_n_max, one wire request each).
  int svc_n_max = 8;
  /// Evaluation window of each service-load request.  Wide enough that a
  /// cold (cache-miss) evaluation dwarfs the wire overhead, so the
  /// cold/warm qps ratio measures the cache, not JSON parsing.
  int svc_window_hi = 4096;
  /// Hot replays of the request list after the cold pass; the warm
  /// qps / p50 / p99 come from these.
  int svc_warm_passes = 20;
  /// Grid of the probabilistic expected-CR sweep (regime pairs with
  /// n <= probabilistic_n_max times probabilistic_p_count failure
  /// probabilities up to probabilistic_p_max; the default p_max stays
  /// below the grid's minimum ladder threshold ~0.63, so every row is
  /// convergent unless callers push past it).
  int probabilistic_n_max = 6;
  int probabilistic_p_count = 3;
  Real probabilistic_p_max = 0.4L;
  /// Monte-Carlo trials behind the full-mode closed-form-vs-MC speedup
  /// figure (one seeded MC estimate per pair at the sweep's largest p).
  int probabilistic_mc_trials = 400;
  /// Embed the obs metric registry (reset + folded over this report).
  bool include_metrics = true;
};

/// Run the perf workloads and stream the JSON document to `out`.
void write_perf_report(std::ostream& out,
                       const PerfReportOptions& options = {});

}  // namespace linesearch::obs
