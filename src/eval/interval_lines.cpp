#include "eval/interval_lines.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace linesearch::detail {

std::vector<Real> critical_magnitudes(const Fleet& fleet, const int side,
                                      const Real window_lo,
                                      const Real window_hi) {
  expects(side == 1 || side == -1, "critical_magnitudes: side must be +-1");
  expects(window_lo > 0 && window_hi > window_lo,
          "critical_magnitudes: bad window");
  std::vector<Real> criticals{window_lo, window_hi};
  for (const Trajectory& robot : fleet.robots()) {
    // Windowed enumeration: finite even on unbounded analytic backends,
    // and the same waypoint set a dense backend would yield.
    for (const Real position : robot.waypoint_positions_within(window_hi)) {
      if (sign_of(position) == side) {
        const Real magnitude = std::fabs(position);
        if (magnitude > window_lo && magnitude < window_hi) {
          criticals.push_back(magnitude);
        }
      }
    }
  }
  std::sort(criticals.begin(), criticals.end());
  criticals.erase(std::unique(criticals.begin(), criticals.end()),
                  criticals.end());
  LS_OBS_COUNT("eval.interval_lines.critical_magnitudes", criticals.size());
  return criticals;
}

std::vector<VisitLine> visit_lines(const Fleet& fleet, const int side,
                                   const Real a, const Real b) {
  const Real x1 = a + (b - a) / 2;
  const Real x2 = a + (b - a) / 4;
  std::vector<VisitLine> lines;
  lines.reserve(fleet.size());
  for (const Trajectory& robot : fleet.robots()) {
    const std::optional<Real> t1 =
        robot.first_visit_time(static_cast<Real>(side) * x1);
    const std::optional<Real> t2 =
        robot.first_visit_time(static_cast<Real>(side) * x2);
    VisitLine line;
    if (t1 && t2) {
      line.finite = true;
      line.anchor = x1;
      line.value = *t1;
      line.slope = (*t1 - *t2) / (x1 - x2);
    }
    lines.push_back(line);
  }
  // One interval-line segment per robot per inter-critical interval: the
  // certified evaluator's unit of work (Theorem-1-style decomposition).
  LS_OBS_COUNT("eval.interval_lines.segments", lines.size());
  return lines;
}

Real order_statistic_at(const std::vector<VisitLine>& lines, const Real x,
                        const std::size_t k) {
  std::vector<Real> values;
  values.reserve(lines.size());
  for (const VisitLine& line : lines) values.push_back(line.at(x));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[static_cast<std::ptrdiff_t>(k)];
}

std::size_t order_statistic_line(const std::vector<VisitLine>& lines,
                                 const Real x, const std::size_t k) {
  const Real value = order_statistic_at(lines, x, k);
  // Pinned tie-break: the LOWEST index whose value at x equals the
  // statistic bit-for-bit.  The forward scan re-evaluates the identical
  // expression VisitLine::at used inside order_statistic_at, so the
  // first hit is exactly the lowest-index attainer.
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].at(x) == value) return i;
  }
  ensures(false, "order statistic line not found");
  return 0;
}

std::vector<Real> line_crossings(const std::vector<VisitLine>& lines,
                                 const Real a, const Real b) {
  std::vector<Real> crossings;
  for (std::size_t p = 0; p < lines.size(); ++p) {
    if (!lines[p].finite) continue;
    for (std::size_t q = p + 1; q < lines.size(); ++q) {
      if (!lines[q].finite) continue;
      const Real slope_gap = lines[p].slope - lines[q].slope;
      if (slope_gap == 0) continue;
      const Real cross = lines[p].anchor +
                         (lines[q].at(lines[p].anchor) - lines[p].value) /
                             slope_gap;
      if (cross > a && cross < b) crossings.push_back(cross);
    }
  }
  // Sorted, exact-deduplicated: symmetric fleets routinely cross several
  // line pairs at the bit-identical abscissa, and a duplicate crossing
  // would double-split every downstream certified interval.
  std::sort(crossings.begin(), crossings.end());
  crossings.erase(std::unique(crossings.begin(), crossings.end()),
                  crossings.end());
  LS_OBS_COUNT("eval.interval_lines.crossings", crossings.size());
  return crossings;
}

void fill_line_columns(const Fleet& fleet, const int side, const Real a,
                       const Real b, LineColumns& columns) {
  const Real x1 = a + (b - a) / 2;
  const Real x2 = a + (b - a) / 4;
  const std::size_t robots = fleet.size();
  columns.anchor.assign(robots, 0);
  columns.value.assign(robots, 0);
  columns.slope.assign(robots, 0);
  columns.finite.assign(robots, 0);
  // Both sample abscissae in one sorted batch: a single frontier sweep
  // per robot answers them together, bit-identical to two scalar
  // first_visit_time calls (x1 > x2 > a > 0, so the signed order is
  // fixed by the side).
  std::array<Real, 2> xs{static_cast<Real>(side) * x1,
                         static_cast<Real>(side) * x2};
  if (xs[0] > xs[1]) std::swap(xs[0], xs[1]);
  const std::size_t slot1 = side > 0 ? 1 : 0;  // index of side*x1 in xs
  std::array<Real, 2> times{};
  for (std::size_t r = 0; r < robots; ++r) {
    fleet.robot(r).first_visit_times_into(xs.data(), 2, times.data());
    const Real t1 = times[slot1];
    const Real t2 = times[1 - slot1];
    if (!std::isinf(t1) && !std::isinf(t2)) {
      columns.finite[r] = 1;
      columns.anchor[r] = x1;
      columns.value[r] = t1;
      columns.slope[r] = (t1 - t2) / (x1 - x2);
    }
  }
  // Same unit-of-work counter as the AoS visit_lines fit.
  LS_OBS_COUNT("eval.interval_lines.segments", robots);
}

void evaluate_lines(LineColumns& columns, const Real x) {
  const std::size_t count = columns.size();
  columns.at.resize(count);
  const Real* anchor = columns.anchor.data();
  const Real* value = columns.value.data();
  const Real* slope = columns.slope.data();
  const unsigned char* finite = columns.finite.data();
  Real* at = columns.at.data();
  // Elementwise VisitLine::at — identical expression, parallel arrays.
  for (std::size_t i = 0; i < count; ++i) {
    at[i] = finite[i] != 0 ? value[i] + slope[i] * (x - anchor[i])
                           : kInfinity;
  }
}

Real order_statistic_at(LineColumns& columns, const Real x,
                        const std::size_t k) {
  evaluate_lines(columns, x);
  columns.ranked = columns.at;
  std::nth_element(columns.ranked.begin(),
                   columns.ranked.begin() + static_cast<std::ptrdiff_t>(k),
                   columns.ranked.end());
  return columns.ranked[static_cast<std::ptrdiff_t>(k)];
}

std::size_t order_statistic_line(LineColumns& columns, const Real x,
                                 const std::size_t k) {
  const Real value = order_statistic_at(columns, x, k);
  // Lowest-index-among-attainers over the evaluated column — the pinned
  // tie-break shared with the AoS overload.
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns.at[i] == value) return i;
  }
  ensures(false, "order statistic line not found");
  return 0;
}

void line_crossings_into(const LineColumns& columns, const Real a,
                         const Real b, std::vector<Real>& out) {
  out.clear();
  const std::size_t count = columns.size();
  for (std::size_t p = 0; p < count; ++p) {
    if (columns.finite[p] == 0) continue;
    for (std::size_t q = p + 1; q < count; ++q) {
      if (columns.finite[q] == 0) continue;
      const Real slope_gap = columns.slope[p] - columns.slope[q];
      if (slope_gap == 0) continue;
      // lines[q].at(lines[p].anchor), spelled over the columns.
      const Real q_at_p = columns.value[q] +
                          columns.slope[q] * (columns.anchor[p] -
                                              columns.anchor[q]);
      const Real cross =
          columns.anchor[p] + (q_at_p - columns.value[p]) / slope_gap;
      if (cross > a && cross < b) out.push_back(cross);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  LS_OBS_COUNT("eval.interval_lines.crossings", out.size());
}

}  // namespace linesearch::detail
