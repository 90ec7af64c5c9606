#include "sim/trajectory.hpp"

#include <cmath>
#include <sstream>

#include "sim/visit_sweep.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace linesearch {

Trajectory::Trajectory(std::vector<Waypoint> waypoints)
    : source_(std::make_shared<DenseSchedule>(std::move(waypoints))) {}

Trajectory::Trajectory(std::shared_ptr<const ScheduleSource> source)
    : source_(std::move(source)) {
  expects(source_ != nullptr, "trajectory needs a schedule source");
}

Trajectory Trajectory::stationary(const Real position, const Real until) {
  expects(until > 0, "stationary trajectory needs positive duration");
  return Trajectory({{0, position}, {until, position}});
}

std::optional<Real> Trajectory::first_visit_time(const Real x) const {
  return kth_visit_time(x, 0);
}

std::optional<Real> Trajectory::kth_visit_time(const Real x,
                                               const std::size_t k) const {
  // Pulled straight from the cursor: no visit list is materialized.
  VisitCursor cursor(*source_, x);
  Real t = 0;
  for (std::size_t i = 0; i <= k; ++i) {
    if (!cursor.next(&t)) return std::nullopt;
  }
  return t;
}

std::string Trajectory::describe() const {
  std::ostringstream out;
  if (unbounded()) {
    out << source_->backend_name() << ", unbounded horizon, t in ["
        << fixed(start_time(), 3) << ", inf), start "
        << fixed(start_position(), 3);
    return out.str();
  }
  out << segment_count() << " segments, t in [" << fixed(start_time(), 3)
      << ", " << fixed(end_time(), 3) << "], reach "
      << fixed(max_abs_position(), 3) << ", " << turning_waypoints().size()
      << " turns";
  return out.str();
}

TrajectoryBuilder& TrajectoryBuilder::start_at(const Real t, const Real x) {
  expects(!started_, "start_at may only be called once");
  started_ = true;
  waypoints_.push_back({t, x});
  return *this;
}

Real TrajectoryBuilder::current_time() const {
  expects(started_, "builder not started");
  return waypoints_.back().time;
}

Real TrajectoryBuilder::current_position() const {
  expects(started_, "builder not started");
  return waypoints_.back().position;
}

TrajectoryBuilder& TrajectoryBuilder::move_to(const Real x) {
  expects(started_, "builder not started");
  const Waypoint& last = waypoints_.back();
  const Real distance = std::fabs(x - last.position);
  expects(distance > 0, "move_to: zero-length leg (use wait_until)");
  waypoints_.push_back({last.time + distance, x});
  return *this;
}

TrajectoryBuilder& TrajectoryBuilder::move_to_at(const Real x, const Real t) {
  expects(started_, "builder not started");
  const Waypoint& last = waypoints_.back();
  expects(t > last.time, "move_to_at: time must advance");
  waypoints_.push_back({t, x});  // speed validated by DenseSchedule ctor
  return *this;
}

TrajectoryBuilder& TrajectoryBuilder::wait_until(const Real t) {
  expects(started_, "builder not started");
  const Waypoint& last = waypoints_.back();
  expects(t >= last.time, "wait_until: cannot wait into the past");
  if (t > last.time) waypoints_.push_back({t, last.position});
  return *this;
}

Trajectory TrajectoryBuilder::build() && {
  expects(started_, "builder not started");
  return Trajectory(std::move(waypoints_));
}

}  // namespace linesearch
