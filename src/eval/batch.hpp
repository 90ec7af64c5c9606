// eval/batch.hpp — parallel batched CR evaluation.
//
// Every reproduction in this repo reduces to evaluating K(x) =
// T_{f+1}(x)/|x| over a grid of (fleet, f, window) points; this module
// runs those points concurrently on the util/parallel pool while keeping
// the results indistinguishable from the serial path:
//
//   * jobs fan out across workers, results land in JOB ORDER
//     (parallel_map writes slot i from the worker that ran job i), so any
//     downstream argmax/tie-break scan sees the serial sequence;
//   * each job is one plain measure_cr call — the SoA probe kernel of
//     eval/kernels — so a batch result is the serial result by
//     construction; jobs share nothing but their read-only fleets;
//   * thread count comes from BatchOptions::threads, the
//     LINESEARCH_THREADS env var, or the hardware, in that order; 1 means
//     fully serial (no thread ever spawned), and any other count is
//     bit-identical to it.
#pragma once

#include <vector>

#include "eval/cr_eval.hpp"
#include "sim/fleet.hpp"
#include "util/real.hpp"

namespace linesearch {

/// One unit of batched CR work: measure `fleet` with fault budget `f`
/// over `options`'s window.  The fleet pointer must stay valid for the
/// duration of the batch call; jobs may freely share fleets.
struct CrBatchJob {
  const Fleet* fleet = nullptr;
  int f = 0;
  CrEvalOptions options;
};

/// Execution options for the batch layer.
struct BatchOptions {
  /// Worker count; 0 defers to LINESEARCH_THREADS, then the hardware.
  int threads = 0;
};

/// Evaluate every job; result i corresponds to jobs[i].  Bit-identical
/// to calling measure_cr serially on each job, for any thread count.
[[nodiscard]] std::vector<CrEvalResult> measure_cr_batch(
    const std::vector<CrBatchJob>& jobs, const BatchOptions& batch = {});

/// Convenience: one fleet, many fault budgets (the Table-1 / ratio-curve
/// shape of sweep).
[[nodiscard]] std::vector<CrEvalResult> measure_cr_batch(
    const Fleet& fleet, const std::vector<int>& fault_budgets,
    const CrEvalOptions& options = {}, const BatchOptions& batch = {});

/// Batched K(x) profile: k_profile with the positions fanned out across
/// workers.  Entries match k_profile exactly.
[[nodiscard]] std::vector<Real> k_profile_batch(
    const Fleet& fleet, int f, const std::vector<Real>& positions,
    const BatchOptions& batch = {});

}  // namespace linesearch
