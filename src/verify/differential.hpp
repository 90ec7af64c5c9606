// verify/differential.hpp — pit independent evaluator paths against each
// other on the same instance.
//
// The library computes sup K(x) = T_{f+1}(x)/|x| through four routes
// that share no implementation beyond the Fleet queries:
//
//   serial probe scan  (eval/cr_eval measure_cr)
//   batched probe scan (eval/batch, any thread count)
//   certified suprema  (eval/exact, probe-free)
//   dense grid sweep   (eval/batch k_profile over a geometric grid)
//
// Differential engines demand the right relation between each pair:
// bit-identical where the contract is exact (thread counts, SoA kernel
// vs scalar scan), tolerance-bounded where an epsilon is part of
// the design (probe scan sits 1e-9 below the certified sup; a finite
// grid sits at or below it).  A mismatch produces a structured report
// naming the job, the field and both values, so a fuzzer failure is
// immediately actionable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "eval/batch.hpp"
#include "eval/cr_eval.hpp"
#include "sim/faults.hpp"
#include "sim/fleet.hpp"
#include "svc/query.hpp"
#include "util/real.hpp"

namespace linesearch {
namespace verify {

/// One field that disagreed between two paths.
struct FieldMismatch {
  std::size_t job = 0;    ///< index into the compared job/position list
  std::string field;      ///< "cr", "argmax", "probes", ...
  Real lhs = 0;           ///< value on the reference path
  Real rhs = 0;           ///< value on the path under test
};

/// Outcome of one differential engine.
struct DifferentialResult {
  std::string name;
  bool applicable = true;
  bool passed = true;
  std::string message;
  std::vector<FieldMismatch> mismatches;

  [[nodiscard]] bool ok() const noexcept { return !applicable || passed; }
};

/// Tolerances for the non-exact comparisons.
struct DifferentialOptions {
  /// Max relative gap certified sup may sit ABOVE the probe scan (the
  /// probe misses the sup by ~kLimitProbe; generous default covers
  /// non-zig-zag fleets whose K jumps are steeper).
  Real probe_gap_tol = 1e-6L;
  /// Slack for "a sample can never exceed the sup" directions (pure
  /// long-double round-off).
  Real sample_tol = 1e-15L;
  /// Grid density per side for the dense-sweep cross-check.
  int grid_points = 64;
  /// Thread counts the batch engine is raced at (first is reference).
  std::vector<int> thread_counts = {1, 2, 8};
};

/// Batch engine vs itself across thread counts: every CrEvalResult field
/// bit-identical to the serial (threads = 1) reference.
[[nodiscard]] DifferentialResult diff_batch_threads(
    const std::vector<CrBatchJob>& jobs, const DifferentialOptions& options = {});

/// Probe scan vs certified suprema: measured <= certified (a probe is a
/// sample of the sup) and certified - measured <= probe_gap_tol relative.
[[nodiscard]] DifferentialResult diff_probe_vs_exact(
    const Fleet& fleet, int f, const CrEvalOptions& eval,
    const DifferentialOptions& options = {});

/// Dense geometric K(x) grid vs certified suprema: every grid sample
/// <= certified sup (within round-off).
[[nodiscard]] DifferentialResult diff_exact_vs_grid(
    const Fleet& fleet, int f, const CrEvalOptions& eval,
    const DifferentialOptions& options = {});

/// Dense vs analytic backend: build the strategy both ways and demand
/// (a) the shared waypoint prefix (up to 64 entries per robot) is
/// bit-identical and (b) measure_cr over the window agrees field by
/// field, bitwise.  Inapplicable when the strategy has no analytic path.
/// Callers should pass a power-of-two extent: straight-line (ray)
/// trajectories reproduce dense visit arithmetic exactly only then.
[[nodiscard]] DifferentialResult diff_dense_vs_analytic(
    const SearchStrategy& strategy, Real extent, int f,
    const CrEvalOptions& eval);

/// Crash-injected World run vs analytic truncation: execute the A(n, f)
/// controllers under a crash-stop FaultInjector, independently truncate
/// a CLEAN run at the same crash times (sim/faults truncate_at_crashes),
/// and demand (a) every robot's waypoint stream is value-identical and
/// (b) measure_cr over the window (require_finite off) agrees field by
/// field, bitwise.  crash_times[i] = kInfinity means robot i is healthy.
[[nodiscard]] DifferentialResult diff_crash_injected(
    int n, int f, Real extent, const std::vector<Real>& crash_times,
    const CrEvalOptions& eval);

/// Byzantine quorum cost, three independent routes on one instance:
/// execute the A(n, f) controllers in a World (lies never alter motion,
/// only claims), feed the executed fleet's claim stream — honest robots
/// claiming truthfully, `plan`'s liars fabricating — through the runtime
/// arbiter (runtime/arbitration), and demand per target
///   (a) the arbiter's confirm time at the true target is
///       value_identical to the analytic per-liar-set quorum
///       byzantine_quorum_time(fleet, x, plan.liar, f),
///   (b) no falsely claimed position is ever confirmed,
///   (c) arbitrating the WORST liar set (the f earliest visitors,
///       silent) lands exactly on the order statistic
///       detection_time(x, 2f), and
///   (d) the quorum CR scan (budget 2f) cannot tell the executed fleet
///       from the schedule builder's, field by field, bitwise.
/// Targets that collide with a fabricated claim position are skipped in
/// (a) — a lie that accidentally tells the truth may legitimately
/// accelerate confirmation.
[[nodiscard]] DifferentialResult diff_byzantine(
    int n, int f, Real extent, const LiePlan& plan,
    const std::vector<Real>& targets, const CrEvalOptions& eval);

/// Chaos wire round trip vs the library: answer `query` through the
/// resilient client (svc/client) talking to an in-process QueryServer
/// across svc/chaos's deterministic fault injector at `chaos_seed`
/// (garbage bytes, split/merged frames, stalls, mid-request
/// disconnects — all pure functions of the seed), and demand the
/// response line be BYTE-identical to the offline library's rendering
/// `render_response(id, evaluate_query_direct(query))` on every call.
/// Three calls run back to back (ids 1..3) so retries cross cache-warm
/// and cache-cold server states.  chaos_seed = 0 is the documented
/// clean channel (the shrinker's first move).  This is the
/// never-a-wrong-answer contract: the client either returns the
/// server's intended bytes or a structured failure — and with
/// fault-free connections guaranteed every clean_every-th attempt, a
/// structured failure here is itself a bug.
[[nodiscard]] DifferentialResult diff_chaos_vs_library(
    const svc::CrQuery& query, std::uint64_t chaos_seed, int fault_cap = 3);

/// Exact expectation engine (eval/expectation) vs a seeded Monte-Carlo
/// realization of the SAME per-visit fault model (eval/montecarlo
/// mc_expected_detection_time), on the unbounded A(n, f) backend at the
/// fuzzer's adversarial targets.  Per target:
///   * p == 0: expected_detection_time collapses to the fault-free first
///     visit, bit for bit (no sampling involved);
///   * p past the ladder threshold kappa^(-1/n): the engine must report
///     divergence (kInfinity), never a finite number;
///   * convergent p: the exact value dominates the first visit time, and
///     — only while the series' VARIANCE also converges comfortably
///     (p^(2n) kappa^4 <= 0.8; nearer the threshold the sample mean is
///     heavy-tailed and its CLT band meaningless) — the seeded MC mean
///     must sit within a wide CLT band of it.
/// Targets at 0 are skipped.
[[nodiscard]] DifferentialResult diff_expectation_vs_montecarlo(
    int n, int f, Real p, const std::vector<Real>& targets,
    std::uint64_t seed = 0x5eed0bab01234567ULL, int trials = 400);

/// SoA kernel path (eval/kernels measure_cr_kernel) vs the scalar
/// reference scan driven by direct Fleet queries: every CrEvalResult
/// field bit-identical, and every batched per-probe detection time
/// bit-identical to Fleet::detection_time at the same signed position.
/// This is the differential that licenses the configure-time SIMD
/// switch — it must hold on both LINESEARCH_SIMD builds.
[[nodiscard]] DifferentialResult diff_scalar_vs_simd(
    const Fleet& fleet, int f, const CrEvalOptions& eval);

/// Run the four fleet-level engines above (batch_threads,
/// probe_vs_exact, exact_vs_grid, scalar_vs_simd) on one
/// (fleet, f, window) instance.
[[nodiscard]] std::vector<DifferentialResult> run_differentials(
    const Fleet& fleet, int f, const CrEvalOptions& eval,
    const DifferentialOptions& options = {});

/// True iff every result is ok.
[[nodiscard]] bool all_ok(const std::vector<DifferentialResult>& results);

/// One line per failed engine, empty when all ok.
[[nodiscard]] std::string describe_failures(
    const std::vector<DifferentialResult>& results);

}  // namespace verify
}  // namespace linesearch
