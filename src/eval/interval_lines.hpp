// eval/interval_lines.hpp — shared internals of the exact evaluators.
//
// Between adjacent "critical magnitudes" (waypoint positions of any
// robot, plus window endpoints) every robot's first-visit time is linear
// in |x|.  This header provides the critical-grid collection and the
// per-interval line fitting used by eval/exact (certified suprema) and
// eval/profile (exact piecewise profiles).  It is an implementation
// detail shared between those translation units; external users should
// prefer the two public facades.
#pragma once

#include <vector>

#include "sim/fleet.hpp"
#include "util/real.hpp"

namespace linesearch::detail {

/// A robot's first-visit time restricted to one critical interval:
/// t(x) = value + slope * (x - anchor), or "never" (infinite).
struct VisitLine {
  bool finite = false;
  Real anchor = 0;
  Real value = 0;  ///< t(anchor)
  Real slope = 0;

  [[nodiscard]] Real at(const Real x) const {
    if (!finite) return kInfinity;
    return value + slope * (x - anchor);
  }
};

/// Sorted, deduplicated critical magnitudes on `side` within
/// [window_lo, window_hi] (inclusive of the window endpoints).
[[nodiscard]] std::vector<Real> critical_magnitudes(const Fleet& fleet,
                                                    int side, Real window_lo,
                                                    Real window_hi);

/// Fit each robot's visit line on the open interval (a, b), with x
/// measured as magnitude on `side`.
[[nodiscard]] std::vector<VisitLine> visit_lines(const Fleet& fleet,
                                                 int side, Real a, Real b);

/// The k-th smallest (0-based) of the line values at magnitude x.
[[nodiscard]] Real order_statistic_at(const std::vector<VisitLine>& lines,
                                      Real x, std::size_t k);

/// Index of the line realizing the k-th smallest value at x.  Tie-break
/// is PINNED to lowest-index-among-attainers: of all lines whose value
/// at x equals the order statistic bit-for-bit, the smallest index wins
/// — the same line on the AoS and SoA paths.
[[nodiscard]] std::size_t order_statistic_line(
    const std::vector<VisitLine>& lines, Real x, std::size_t k);

/// All pairwise crossings of distinct-slope finite lines strictly inside
/// (a, b), sorted ascending with exact duplicates removed (several line
/// pairs can cross at the bit-identical abscissa; reporting it once
/// keeps certified intervals from being split twice at the same point).
[[nodiscard]] std::vector<Real> line_crossings(
    const std::vector<VisitLine>& lines, Real a, Real b);

/// SoA layout of one interval's visit lines — the VisitLine fields in
/// parallel columns plus reused evaluation buffers, so the certified
/// evaluators run their order-statistic scans as flat elementwise passes
/// with no per-candidate allocation.  Bit-identity:
/// every query below equals its AoS counterpart exactly — the evaluated
/// expression, the selection and the tie-break are the same.
struct LineColumns {
  std::vector<Real> anchor;
  std::vector<Real> value;
  std::vector<Real> slope;
  std::vector<unsigned char> finite;
  std::vector<Real> at;      ///< scratch: last evaluate() result
  std::vector<Real> ranked;  ///< scratch: nth_element working copy

  [[nodiscard]] std::size_t size() const noexcept { return value.size(); }
};

/// Fit each robot's visit line on (a, b) directly into columns
/// (visit_lines in SoA form; one batched first-visit query per sample
/// abscissa instead of a per-robot segment walk).
void fill_line_columns(const Fleet& fleet, int side, Real a, Real b,
                       LineColumns& columns);

/// Evaluate every line at x into columns.at (elementwise SoA pass;
/// entries match VisitLine::at bit-for-bit).
void evaluate_lines(LineColumns& columns, Real x);

/// SoA order_statistic_at (uses columns scratch; no allocation after
/// the first call at a given fleet size).
[[nodiscard]] Real order_statistic_at(LineColumns& columns, Real x,
                                      std::size_t k);

/// SoA order_statistic_line — lowest-index-among-attainers, like the
/// AoS overload.
[[nodiscard]] std::size_t order_statistic_line(LineColumns& columns, Real x,
                                               std::size_t k);

/// SoA line_crossings: sorted ascending, exact duplicates removed,
/// appended into `out` (cleared first).
void line_crossings_into(const LineColumns& columns, Real a, Real b,
                         std::vector<Real>& out);

}  // namespace linesearch::detail
