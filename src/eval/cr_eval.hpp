// eval/cr_eval.hpp — empirical competitive-ratio measurement.
//
// For an arbitrary fleet with fault budget f, the competitive ratio is
// sup over |x| >= 1 of K(x) = T_{f+1}(x)/|x|.  By Lemma 3, K is
// decreasing between turning points and jumps UP just after each turning
// point, so the supremum is approached as a right-limit at turning-point
// magnitudes.  The evaluator therefore probes, on each half-line:
//   * tau * (1 + eps) just past every turning-point magnitude tau inside
//     the window (the discontinuity right-limits),
//   * the window endpoints, and
//   * a few interior samples per inter-turn interval (safety net for
//     non-zig-zag fleets whose K need not obey Lemma 3).
// All probes use the fleet's exact detection_time; the only approximation
// is the eps offset (relative 1e-9).
//
// One probe set and one supremum loop serve every probe-based evaluator:
// detail::build_probe_batch places the probes and detail::scan_probes
// turns a parallel array of detection times into the supremum.  The
// drivers differ only in how they fill that array: measure_cr through
// detail::fill_visit_columns, detail::measure_cr_with through an
// arbitrary oracle, probe by probe (the expectation engine, the
// turn-cost model and the sweep-vs-direct differential use it).
//
// fill_visit_columns is the structure-of-arrays detection fill.  Asking
// the fleet one detection time per probe (Fleet::detection_time)
// allocates a times vector and walks every robot's segment list from
// the start, once per probe.  The fill answers a whole ProbeBatch
// instead: one frontier sweep per robot
// (ScheduleSource::first_visit_times_into) over the position-sorted
// probes, both half-lines in one sorted array, streamed straight into
// the per-probe (f+1)-st order statistic — a bounded-buffer selection
// over the cheaper side of the statistic that never materializes the
// robots x probes visit matrix.  Every filled time equals
// Fleet::detection_time(side * magnitude, f) bitwise, so measure_cr
// equals measure_cr_with over that oracle on every result field; the
// sweep-vs-direct differential (verify/differential) and the kernel
// test suite enforce it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/fleet.hpp"
#include "util/real.hpp"

namespace linesearch {

/// Options for measure_cr.
struct CrEvalOptions {
  Real window_lo = 1;   ///< smallest target magnitude (the paper fixes 1)
  Real window_hi = 64;  ///< largest target magnitude probed
  int interior_samples = 4;  ///< extra probes per inter-turn interval
  bool require_finite = true; ///< throw if any probe is undetected
};

/// Result of an empirical CR measurement.
struct CrEvalResult {
  Real cr = 0;        ///< max of K over all probes
  Real argmax = 0;    ///< signed probe position attaining it
  int probes = 0;     ///< number of evaluated placements
  Real cr_positive = 0;  ///< supremum restricted to x > 0
  Real cr_negative = 0;  ///< supremum restricted to x < 0
  /// Probes whose detection never happens (only reachable with
  /// require_finite == false).  A half-line whose EVERY probe is
  /// undetected reports its side supremum — and hence cr — as kInfinity
  /// rather than silently pretending the side costs nothing.
  int undetected_probes = 0;
};

/// Measure sup K(x) over window_lo <= |x| <= window_hi.
/// The fleet must have been built to an extent comfortably beyond
/// window_hi (enough that T_{f+1} is realized inside the horizon); with
/// require_finite the evaluator throws NumericError if it ever sees an
/// undetected probe, which is the symptom of an under-built fleet.
[[nodiscard]] CrEvalResult measure_cr(const Fleet& fleet, int f,
                                      const CrEvalOptions& options = {});

/// The profile K(x) sampled at explicit positions (for Figure-4-style
/// plots); entries are detection_time(x, f)/|x|.
[[nodiscard]] std::vector<Real> k_profile(const Fleet& fleet, int f,
                                          const std::vector<Real>& positions);

namespace detail {

/// Detection-time oracle: the detection time of a target at x.
using DetectionOracle = std::function<Real(Real x)>;

/// The probe magnitudes measure_cr evaluates on one half-line.
[[nodiscard]] std::vector<Real> probe_magnitudes(const Fleet& fleet,
                                                 int side,
                                                 const CrEvalOptions& options);

/// SoA probe layout for one CR scan: parallel arrays over BOTH
/// half-lines in emission order (side +1 first).  Magnitudes are
/// window-clamped and exact-deduplicated per side.
struct ProbeBatch {
  std::vector<Real> magnitudes;    ///< |x| per probe, emission order
  std::vector<std::int8_t> sides;  ///< +1 / -1, parallel to magnitudes
  std::size_t positive_count = 0;  ///< probes [0, positive_count) are side +1

  [[nodiscard]] std::size_t size() const noexcept { return magnitudes.size(); }
};

/// Both half-lines' probe_magnitudes, concatenated with side tags.
/// Throws PreconditionError on an empty or non-positive window.
[[nodiscard]] ProbeBatch build_probe_batch(const Fleet& fleet,
                                           const CrEvalOptions& options);

/// SoA visit-time columns for a probe batch.  `detection` is the result
/// (parallel to the batch arrays, emission order); the remaining members
/// are reusable working storage so a sweep amortizes its allocations.
struct VisitColumns {
  std::vector<Real> detection;  ///< T_{f+1} per probe, emission order

  std::vector<std::uint32_t> order;  ///< slice permutation, position-sorted
  std::vector<Real> sorted_x;        ///< signed positions, ascending
  std::vector<Real> first_visits;    ///< one robot's visit row, reused
  std::vector<Real> selection;       ///< per-probe order-statistic scratch
};

/// Fill columns.detection with the worst-case detection time of every
/// probe in `batch`: bit-identical to Fleet::detection_time(side *
/// magnitude, f) per probe, computed with ONE frontier sweep per robot
/// covering both half-lines of the position-sorted batch, streamed
/// through a bounded-buffer order-statistic selection.
void fill_visit_columns(const Fleet& fleet, int f, const ProbeBatch& batch,
                        VisitColumns& columns);

/// The supremum scan: `detection[i]` is the detection time of probe i
/// (at signed position sides[i] * magnitudes[i]).  Applies the
/// require_finite rule, reports a fully undetected half-line as
/// kInfinity, breaks cross-side ties toward the positive side and
/// records the eval.cr.* counters.
[[nodiscard]] CrEvalResult scan_probes(const ProbeBatch& batch,
                                       const std::vector<Real>& detection,
                                       const CrEvalOptions& options);

/// measure_cr with detection times taken from `oracle`, one call per
/// probe in batch order.
[[nodiscard]] CrEvalResult measure_cr_with(const Fleet& fleet, int f,
                                           const CrEvalOptions& options,
                                           const DetectionOracle& oracle);

}  // namespace detail

}  // namespace linesearch
