#include "eval/turn_cost.hpp"

#include "analysis/stats.hpp"
#include "util/error.hpp"

namespace linesearch {

Real turn_cost_first_visit(const Trajectory& robot, const Real x,
                           const Real cost_per_turn) {
  expects(cost_per_turn >= 0, "turn cost must be non-negative");
  const std::optional<Real> visit = robot.first_visit_time(x);
  if (!visit) return kInfinity;
  int turns_before = 0;
  for (const Waypoint& w : robot.turning_waypoints()) {
    if (w.time < *visit) ++turns_before;
  }
  return *visit + cost_per_turn * static_cast<Real>(turns_before);
}

Real turn_cost_detection(const Fleet& fleet, const Real x, const int faults,
                         const Real cost_per_turn) {
  expects(faults >= 0, "turn_cost_detection: faults must be >= 0");
  const auto k = static_cast<std::size_t>(faults);
  if (k >= fleet.size()) return kInfinity;
  std::vector<Real> times;
  times.reserve(fleet.size());
  for (const Trajectory& robot : fleet.robots()) {
    times.push_back(turn_cost_first_visit(robot, x, cost_per_turn));
  }
  return kth_smallest(std::move(times), k);
}

CrEvalResult measure_cr_with_turn_cost(const Fleet& fleet, const int faults,
                                       const Real cost_per_turn,
                                       const CrEvalOptions& options) {
  expects(cost_per_turn >= 0, "turn cost must be non-negative");
  return detail::measure_cr_with(
      fleet, faults, options, [&](const Real x) {
        return turn_cost_detection(fleet, x, faults, cost_per_turn);
      });
}

}  // namespace linesearch
