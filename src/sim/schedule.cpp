#include "sim/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "sim/visit_sweep.hpp"
#include "util/error.hpp"

namespace linesearch {
namespace {

// Speed validation allows a hair of slack for accumulated rounding in the
// turning-point recurrences; anything above this is a construction bug.
constexpr Real kSpeedSlack = 1 + 1e-9L;

}  // namespace

void ScheduleSource::first_visit_times_into(const Real* xs,
                                            const std::size_t count,
                                            Real* out) const {
  // Reference fallback: one scalar query per probe.  Backends override
  // with a frontier sweep; this loop defines what they must reproduce.
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<Real> times = visit_times(xs[i], 1);
    out[i] = times.empty() ? kInfinity : times.front();
  }
}

std::vector<Real> ScheduleSource::visit_times(
    const Real x, const std::size_t max_count) const {
  expects(max_count < kUnboundedCount || !unbounded(),
          "visit_times: unbounded schedule needs a finite max_count");
  std::vector<Real> times;
  VisitCursor cursor(*this, x);
  for (Real t = 0; times.size() < max_count && cursor.next(&t);) {
    times.push_back(t);
  }
  return times;
}

bool ScheduleSource::advance_walk(WaypointWalk& /*walk*/,
                                  const Real /*x*/) const {
  return false;
}

DenseSchedule::DenseSchedule(std::vector<Waypoint> waypoints)
    : waypoints_(std::move(waypoints)) {
  expects(!waypoints_.empty(), "trajectory needs at least one waypoint");
  max_abs_ = std::fabs(waypoints_.front().position);
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    const Waypoint& a = waypoints_[i - 1];
    const Waypoint& b = waypoints_[i];
    expects(b.time > a.time,
            "trajectory waypoints must have strictly increasing time");
    const Real speed = std::fabs(b.position - a.position) / (b.time - a.time);
    expects(speed <= kMaxSpeed * kSpeedSlack,
            "trajectory segment exceeds maximum speed");
    max_speed_ = std::max(max_speed_, speed);
    max_abs_ = std::max(max_abs_, std::fabs(b.position));
  }
  // Turning waypoints, cached once: a turn is a reversal of the direction
  // of motion, with any pauses in between ignored — we track the last
  // nonzero direction and record a turn at the waypoint where motion
  // resumes the opposite way.
  int last_direction = 0;
  for (std::size_t s = 0; s + 1 < waypoints_.size(); ++s) {
    const int direction =
        sign_of(waypoints_[s + 1].position - waypoints_[s].position);
    if (direction == 0) continue;  // pause
    if (last_direction != 0 && direction == -last_direction) {
      turns_.push_back(waypoints_[s]);
    }
    last_direction = direction;
  }
}

Real DenseSchedule::position_at(const Real t) const {
  expects(t >= start_time() && t <= end_time(),
          "position_at: time outside trajectory span");
  // Binary search for the segment containing t.
  const auto it = std::upper_bound(
      waypoints_.begin(), waypoints_.end(), t,
      [](const Real value, const Waypoint& w) { return value < w.time; });
  if (it == waypoints_.begin()) return waypoints_.front().position;
  if (it == waypoints_.end()) return waypoints_.back().position;
  const Waypoint& a = *(it - 1);
  const Waypoint& b = *it;
  const Real fraction = (t - a.time) / (b.time - a.time);
  return a.position + fraction * (b.position - a.position);
}

void DenseSchedule::begin_walk(WaypointWalk& walk, const Real /*x*/) const {
  walk.run = waypoints_.data();  // one run: the whole waypoint vector
  walk.size = waypoints_.size();
}

void DenseSchedule::first_visit_times_into(const Real* xs,
                                           const std::size_t count,
                                           Real* out) const {
  detail::FrontierSweep sweep(xs, count, out, waypoints_.front());
  for (std::size_t i = 0; i + 1 < waypoints_.size() && !sweep.done(); ++i) {
    sweep.feed(waypoints_[i], waypoints_[i + 1]);
  }
}

std::vector<Waypoint> DenseSchedule::waypoint_prefix(
    const std::size_t k) const {
  const std::size_t count = std::min(k, waypoints_.size());
  return {waypoints_.begin(),
          waypoints_.begin() + static_cast<std::ptrdiff_t>(count)};
}

std::vector<Real> DenseSchedule::turning_magnitudes_in(const int side,
                                                       const Real lo,
                                                       const Real hi) const {
  expects(side == 1 || side == -1,
          "turning_magnitudes_in: side must be +-1");
  std::vector<Real> magnitudes;
  for (const Waypoint& w : turns_) {
    if (sign_of(w.position) != side) continue;
    const Real magnitude = std::fabs(w.position);
    if (magnitude >= lo && magnitude <= hi) magnitudes.push_back(magnitude);
  }
  std::sort(magnitudes.begin(), magnitudes.end());
  return magnitudes;
}

std::vector<Real> DenseSchedule::waypoint_positions_within(
    const Real max_magnitude) const {
  std::vector<Real> positions;
  for (const Waypoint& w : waypoints_) {
    if (std::fabs(w.position) <= max_magnitude) {
      positions.push_back(w.position);
    }
  }
  return positions;
}

std::size_t DenseSchedule::footprint_bytes() const {
  return sizeof(DenseSchedule) +
         waypoints_.capacity() * sizeof(Waypoint) +
         turns_.capacity() * sizeof(Waypoint);
}

}  // namespace linesearch
