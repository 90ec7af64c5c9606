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
// measure_cr runs the SoA probe kernel (eval/kernels).  The scalar
// reference scan stays available, detection-oracle-agnostic, as
// detail::measure_cr_with: the scalar-vs-SIMD differential and the
// expectation engine drive it with their own oracles, and the kernel is
// held bit-identical to it.
#pragma once

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

/// Detection-time oracle: must agree bit-for-bit with
/// Fleet::detection_time(x, f) of the fleet being measured.
using DetectionOracle = std::function<Real(Real x)>;

/// The probe magnitudes measure_cr evaluates on one half-line (exposed
/// for the SoA kernel and tests).
[[nodiscard]] std::vector<Real> probe_magnitudes(const Fleet& fleet,
                                                 int side,
                                                 const CrEvalOptions& options);

/// The probe scan behind measure_cr, parameterized over the oracle.
[[nodiscard]] CrEvalResult measure_cr_with(const Fleet& fleet, int f,
                                           const CrEvalOptions& options,
                                           const DetectionOracle& oracle);

}  // namespace detail

}  // namespace linesearch
