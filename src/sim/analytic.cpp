#include "sim/analytic.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "sim/visit_sweep.hpp"
#include "util/error.hpp"

namespace linesearch {
namespace {

constexpr Real kSpeedSlack = 1 + 1e-9L;  // mirrors DenseSchedule

// Step::stage values.
constexpr int kLadder = 0;     // on the ladder recurrence
constexpr int kAtBarrier = 1;  // at the first barrier waypoint
constexpr int kEnded = 2;      // at the final barrier waypoint

}  // namespace

bool AnalyticZigzag::step(Step& s) const {
  // Head waypoints first, then the ladder recurrence, then (barrier mode)
  // the two barrier sweeps.  All arithmetic matches the dense builders
  // bit-for-bit (see the header comment).
  if (s.index + 1 < head_.size()) {
    s.at = head_[++s.index];
    return true;
  }
  const Real x = s.at.position;
  Real next = 0;
  switch (s.stage) {
    case kLadder:
      if (barrier_ > 0 && std::fabs(x * kappa_) >= barrier_) {
        next = (x > 0) ? -barrier_ : barrier_;
        s.stage = kAtBarrier;
      } else {
        next = -(x * kappa_);
      }
      break;
    case kAtBarrier:
      next = -x;
      s.stage = kEnded;
      break;
    default:
      return false;
  }
  ++s.index;
  s.at = {s.at.time + std::fabs(next - x), next};
  return true;
}

AnalyticZigzag::AnalyticZigzag(AnalyticZigzagSpec spec)
    : head_(std::move(spec.head)),
      kappa_(spec.kappa),
      barrier_(spec.barrier) {
  expects(!head_.empty(), "analytic zigzag: head needs >= 1 waypoint");
  expects(kappa_ > 1, "analytic zigzag: kappa must exceed 1");
  expects(head_.back().position != 0,
          "analytic zigzag: ladder seed position must be non-zero");
  expects(barrier_ >= 0, "analytic zigzag: barrier must be >= 0");
  expects(barrier_ == 0 || barrier_ > std::fabs(head_.back().position),
          "analytic zigzag: barrier must exceed the seed magnitude");

  Real head_max_abs = std::fabs(head_.front().position);
  int last_direction = 0;
  for (std::size_t i = 1; i < head_.size(); ++i) {
    const Waypoint& a = head_[i - 1];
    const Waypoint& b = head_[i];
    expects(b.time > a.time,
            "analytic zigzag: head times must strictly increase");
    const Real speed = std::fabs(b.position - a.position) / (b.time - a.time);
    expects(speed <= kMaxSpeed * kSpeedSlack,
            "analytic zigzag: head segment exceeds maximum speed");
    head_max_speed_ = std::max(head_max_speed_, speed);
    head_max_abs = std::max(head_max_abs, std::fabs(b.position));
    const int direction = sign_of(b.position - a.position);
    if (direction == 0) continue;  // pause
    if (last_direction != 0 && direction == -last_direction) {
      head_turns_.push_back(a);
    }
    last_direction = direction;
  }
  // The ladder leaves the seed toward -sign(seed), so the seed registers
  // as a turn exactly when the head arrived at it moving toward the seed's
  // own side (the origin-start schedules); a schedule that STARTS on the
  // seed (cone-anchored) has no incoming direction and no turn there —
  // both match the dense turn-extraction rule.
  seed_is_turn_ =
      last_direction != 0 && sign_of(head_.back().position) == last_direction;

  if (barrier_ > 0) {
    // Finite schedule: materialize once so the dense-only queries
    // (waypoints(), turning_waypoints()) work and count_ is exact.
    LS_OBS_COUNT("sim.analytic.barrier_materializations", 1);
    auto cache = std::make_unique<BoundedCache>();
    cache->waypoints.push_back(head_.front());
    for (Step s{.at = head_.front()}; step(s);) {
      cache->waypoints.push_back(s.at);
    }
    count_ = cache->waypoints.size();
    int direction_before = 0;
    for (std::size_t s = 0; s + 1 < cache->waypoints.size(); ++s) {
      const int direction = sign_of(cache->waypoints[s + 1].position -
                                    cache->waypoints[s].position);
      if (direction == 0) continue;
      if (direction_before != 0 && direction == -direction_before) {
        cache->turns.push_back(cache->waypoints[s]);
      }
      direction_before = direction;
    }
    // Ladder magnitudes stay strictly below the barrier by the stopping
    // rule; the barrier sweeps reach exactly +-barrier.
    cache->max_abs = std::max(head_max_abs, barrier_);
    bounded_ = std::move(cache);
  }
}

Real AnalyticZigzag::end_time() const {
  return unbounded() ? kInfinity : bounded_->waypoints.back().time;
}

Real AnalyticZigzag::end_position() const {
  expects(!unbounded(), "end_position: schedule has an unbounded horizon");
  return bounded_->waypoints.back().position;
}

Real AnalyticZigzag::max_abs_position() const {
  return unbounded() ? kInfinity : bounded_->max_abs;
}

Real AnalyticZigzag::max_speed() const {
  // Every leg beyond the head moves at speed exactly 1 by construction
  // (time deltas are |position deltas|), and there is always at least one
  // such leg.
  return std::max(head_max_speed_, Real{1});
}

Real AnalyticZigzag::position_at(const Real t) const {
  expects(t >= start_time() && t <= end_time(),
          "position_at: time outside trajectory span");
  Step s{.at = head_.front()};
  Waypoint a = s.at;
  (void)step(s);  // every schedule has at least one segment
  while (s.at.time <= t) {
    a = s.at;
    if (!step(s)) return a.position;  // t == end_time (bounded)
  }
  const Waypoint& b = s.at;
  const Real fraction = (t - a.time) / (b.time - a.time);
  return a.position + fraction * (b.position - a.position);
}

void AnalyticZigzag::begin_walk(WaypointWalk& walk, const Real /*x*/) const {
  // The walk never stops early: an unbounded ladder's reach grows by
  // kappa > 1 per leg, so it crosses every x again and again.
  LS_OBS_COUNT("sim.analytic.visit_queries", 1);
  walk.run = head_.data();  // first run: the head, ending at the seed
  walk.size = head_.size();
  walk.stage = kLadder;
}

bool AnalyticZigzag::advance_walk(WaypointWalk& walk,
                                  const Real /*x*/) const {
  // Next run: the previous run's last waypoint, then up to
  // kBufferSize - 1 generated ones.
  Step next{.at = walk.data()[walk.size - 1],
            .index = head_.size() - 1,
            .stage = walk.stage};
  const Waypoint from = next.at;
  if (!step(next)) return false;
  walk.buffer[0] = from;
  walk.buffer[1] = next.at;
  std::size_t size = 2;
  while (size < WaypointWalk::kBufferSize && step(next)) {
    walk.buffer[size++] = next.at;
  }
  walk.run = nullptr;
  walk.size = size;
  walk.stage = next.stage;
  return true;
}

void AnalyticZigzag::first_visit_times_into(const Real* xs,
                                            const std::size_t count,
                                            Real* out) const {
  // One ladder walk answers the whole sorted batch — a VisitCursor
  // restarts the walk per query, which is exactly the cost the SoA probe
  // kernel exists to avoid.  Counted separately from
  // sim.analytic.visit_queries, which keeps meaning "cursor walks".
  LS_OBS_COUNT("sim.analytic.batched_sweeps", 1);
  LS_OBS_COUNT("sim.analytic.batched_visit_queries", count);
  detail::FrontierSweep sweep(xs, count, out, head_.front());
  // Unbounded ladders reach every point of both half-lines eventually
  // (reach grows by kappa > 1 per leg), so the sweep always completes;
  // bounded schedules may simply run out of segments, leaving the
  // never-visited probes at kInfinity.
  Step s{.at = head_.front()};
  Waypoint a = s.at;
  while (!sweep.done() && step(s)) {
    sweep.feed(a, s.at);
    a = s.at;
  }
}

const std::vector<Waypoint>& AnalyticZigzag::waypoints() const {
  expects(!unbounded(),
          "waypoints: schedule has an unbounded horizon; use "
          "waypoint_prefix or the windowed queries");
  return bounded_->waypoints;
}

std::vector<Waypoint> AnalyticZigzag::waypoint_prefix(
    const std::size_t k) const {
  std::vector<Waypoint> prefix;
  if (k == 0) return prefix;
  Step s{.at = head_.front()};
  prefix.push_back(s.at);
  while (prefix.size() < k && step(s)) prefix.push_back(s.at);
  return prefix;
}

const std::vector<Waypoint>& AnalyticZigzag::turning_waypoints() const {
  expects(!unbounded(),
          "turning_waypoints: schedule has an unbounded horizon; use "
          "turning_magnitudes_in");
  return bounded_->turns;
}

std::vector<Real> AnalyticZigzag::turning_magnitudes_in(const int side,
                                                        const Real lo,
                                                        const Real hi) const {
  expects(side == 1 || side == -1,
          "turning_magnitudes_in: side must be +-1");
  LS_OBS_COUNT("sim.analytic.window_queries", 1);
  std::vector<Real> magnitudes;
  const auto add = [&](const Real position) {
    if (sign_of(position) != side) return;
    const Real magnitude = std::fabs(position);
    if (magnitude >= lo && magnitude <= hi) magnitudes.push_back(magnitude);
  };
  for (const Waypoint& w : head_turns_) add(w.position);
  // Ladder turns: the seed (when it registers) and every later turning
  // point; magnitudes grow by kappa each step, so the window bounds the
  // enumeration.
  Real x = head_.back().position;
  if (seed_is_turn_) add(x);
  bool hit_barrier = false;
  while (true) {
    if (barrier_ > 0 && std::fabs(x * kappa_) >= barrier_) {
      hit_barrier = true;
      break;
    }
    x = -(x * kappa_);
    if (std::fabs(x) > hi) break;
    add(x);
  }
  if (hit_barrier) {
    // The first barrier waypoint is a turn (the robot reverses there);
    // the final one is the end of the schedule and is not.
    add((x > 0) ? -barrier_ : barrier_);
  }
  std::sort(magnitudes.begin(), magnitudes.end());
  return magnitudes;
}

std::vector<Real> AnalyticZigzag::waypoint_positions_within(
    const Real max_magnitude) const {
  LS_OBS_COUNT("sim.analytic.window_queries", 1);
  std::vector<Real> positions;
  Step s{.at = head_.front()};
  do {
    if (std::fabs(s.at.position) <= max_magnitude) {
      positions.push_back(s.at.position);
    } else if (s.index >= head_.size() - 1) {
      // Past the head the magnitudes only grow (ladder expansion, then
      // the barrier): nothing further can re-enter the window.
      break;
    }
  } while (step(s));
  return positions;
}

std::size_t AnalyticZigzag::footprint_bytes() const {
  std::size_t bytes =
      sizeof(AnalyticZigzag) +
      (head_.capacity() + head_turns_.capacity()) * sizeof(Waypoint);
  if (bounded_) {
    bytes += sizeof(BoundedCache) +
             (bounded_->waypoints.capacity() + bounded_->turns.capacity()) *
                 sizeof(Waypoint);
  }
  return bytes;
}

AnalyticRay::AnalyticRay(const int direction) : direction_(direction) {
  expects(direction == 1 || direction == -1,
          "analytic ray: direction must be +-1");
}

Real AnalyticRay::end_position() const {
  expects(false, "end_position: a ray has an unbounded horizon");
  return 0;  // unreachable
}

Real AnalyticRay::position_at(const Real t) const {
  expects(t >= 0, "position_at: time outside trajectory span");
  return direction_ > 0 ? t : -t;
}

void AnalyticRay::begin_walk(WaypointWalk& walk, const Real x) const {
  // The ray's one segment is infinite and never returns, so its walk
  // toward x ends at x: the segment (0, 0) -> (|x|, x) interpolates to
  // exactly t = |x|.  Off the ray's half-line (or at the origin) the walk
  // is just the origin waypoint, which visits x iff x == 0.
  walk.run = nullptr;
  walk.buffer[0] = {0, 0};
  walk.size = 1;
  if (x != 0 && sign_of(x) == direction_) {
    walk.buffer[walk.size++] = {std::fabs(x), x};
  }
}

void AnalyticRay::first_visit_times_into(const Real* xs,
                                         const std::size_t count,
                                         Real* out) const {
  // Closed form, elementwise: the ray reaches x at t = |x| iff x is on
  // its half-line (or the origin) — same branch as begin_s.
  const int direction = direction_;
  for (std::size_t i = 0; i < count; ++i) {
    const Real x = xs[i];
    out[i] = (x == 0 || sign_of(x) == direction) ? std::fabs(x) : kInfinity;
  }
}

const std::vector<Waypoint>& AnalyticRay::waypoints() const {
  expects(false,
          "waypoints: a ray has an unbounded horizon; use waypoint_prefix");
  static const std::vector<Waypoint> kNone;
  return kNone;  // unreachable
}

std::vector<Waypoint> AnalyticRay::waypoint_prefix(const std::size_t k) const {
  // Only the origin waypoint is materializable: the ray has no further
  // turning structure, just one infinite segment.
  std::vector<Waypoint> prefix;
  if (k > 0) prefix.push_back({0, 0});
  return prefix;
}

const std::vector<Waypoint>& AnalyticRay::turning_waypoints() const {
  static const std::vector<Waypoint> kNone;
  return kNone;  // a ray never turns, bounded or not
}

std::vector<Real> AnalyticRay::turning_magnitudes_in(const int side,
                                                     const Real lo,
                                                     const Real hi) const {
  expects(side == 1 || side == -1,
          "turning_magnitudes_in: side must be +-1");
  (void)lo;
  (void)hi;
  return {};
}

std::vector<Real> AnalyticRay::waypoint_positions_within(
    const Real max_magnitude) const {
  std::vector<Real> positions;
  if (max_magnitude >= 0) positions.push_back(0);
  return positions;
}

}  // namespace linesearch
