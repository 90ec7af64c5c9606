// sim/visit_sweep.hpp — the two visit scans every schedule backend
// shares: VisitCursor, which yields one robot's visit times to a single
// target in time order, and FrontierSweep, which answers a sorted batch
// of first-visit queries in one pass.
//
// VisitCursor holds the segment-crossing rule, once for every backend.
// It pulls segments a -> b through the backend's waypoint walk
// (ScheduleSource::begin_walk / advance_walk, which hand out runs of
// waypoints, so the per-segment loop makes no virtual call) and reports
// a visit on segment i when x lies in [min(a, b), max(a, b)], with three
// rules:
//   * skip-start: segment i > 0 starting exactly on x was already
//     reported by segment i - 1 (segments share endpoints), so a
//     turning-point touch or a stationary dwell is ONE visit;
//   * a stationary segment on x visits at a.time, a moving one at the
//     interpolation a.time + (x - a) / (b - a) * (b.time - a.time);
//   * a time approx_equal to the previous reported one is dropped (a
//     safety net for near-endpoint rounding).
// A walk that ends at its first waypoint is a single-point schedule: it
// visits x at start_time() iff it sits on x.  The cursor keeps O(1)
// state and is pulled one visit at a time, so a consumer that needs a
// prefix of the visits (eval/expectation's merged series) walks only
// that far.  ScheduleSource::visit_times drains it.
//
// FrontierSweep: a trajectory is continuous, so after any prefix of
// segments the set of visited points is exactly the interval [min
// position so far, max position so far].  Each segment starts inside
// that interval (segments share endpoints) and can therefore extend it
// on at most one side; a probe x is first visited by the first segment
// that pushes the frontier past x, and the visit time is the very
// interpolation VisitCursor computes on that segment.  Sweeping a SORTED
// probe array against the segment stream in order assigns every probe in
// O(segments + probes) with two cursors — one per frontier — instead of
// one O(segments) walk per probe, and produces bit-identical times
// because the assigned expression is the same, on the same segment, in
// the same arithmetic.
//
// Exactness notes mirrored from VisitCursor:
//   * a probe equal to the start position is visited at start_time()
//     (the fraction-0 interpolation yields exactly a.time);
//   * stationary segments never extend the frontier, and any probe they
//     sit on was already covered, so they assign nothing;
//   * the skip-start and approx-dedup rules only affect SECOND visits
//     and are irrelevant to the first-visit query.
#pragma once

#include <algorithm>
#include <cstddef>

#include "sim/schedule.hpp"
#include "util/error.hpp"
#include "util/real.hpp"

namespace linesearch {

/// Pull-based visit enumeration of one schedule at one target: next()
/// yields exactly the sequence visit_times(x, max_count) returns, one
/// visit per call, walking only the segments needed to find it.
class VisitCursor {
 public:
  VisitCursor(const ScheduleSource& source, const Real x)
      : source_(&source), x_(x) {
    source.begin_walk(walk_, x);
  }

  /// The next visit time into *t; false once the schedule has no more.
  bool next(Real* t) {
    for (;;) {
      const Waypoint* run = walk_.data();
      const std::size_t size = walk_.size;
      while (pos_ + 1 < size) {
        const Waypoint& a = run[pos_];
        const Waypoint& b = run[++pos_];
        const bool skip_start = segment_++ > 0 && x_ == a.position;
        if (x_ < std::min(a.position, b.position) ||
            x_ > std::max(a.position, b.position) || skip_start) {
          continue;
        }
        Real visit = a.time;  // a stationary segment sitting on x
        if (a.position != b.position) {
          const Real fraction =
              (x_ - a.position) / (b.position - a.position);
          visit = a.time + fraction * (b.time - a.time);
        }
        if (emitted_ && approx_equal(last_, visit)) continue;
        return emit(visit, t);
      }
      if (ended_) return false;
      if (!source_->advance_walk(walk_, x_)) {
        ended_ = true;
        // A walk with no segment at all is a single-point schedule.
        if (segment_ == 0 && run[0].position == x_) {
          return emit(run[0].time, t);
        }
        return false;
      }
      pos_ = 0;
    }
  }

 private:
  bool emit(const Real visit, Real* t) {
    emitted_ = true;
    last_ = visit;
    *t = visit;
    return true;
  }

  const ScheduleSource* source_;
  Real x_;
  WaypointWalk walk_;
  std::size_t pos_ = 0;      ///< index of the next segment's start in the run
  std::size_t segment_ = 0;  ///< segments consumed so far
  Real last_ = 0;            ///< last reported visit (valid if emitted_)
  bool emitted_ = false;
  bool ended_ = false;
};

}  // namespace linesearch

namespace linesearch::detail {

/// One batched first-visit computation.  Feed the schedule's segments in
/// time order until done() (or the schedule ends); unfed probes keep
/// kInfinity, exactly like a never-visiting scalar query.
class FrontierSweep {
 public:
  /// `xs` must be sorted ascending (duplicates allowed).
  FrontierSweep(const Real* xs, const std::size_t count, Real* out,
                const Waypoint& start)
      : xs_(xs), count_(count), out_(out) {
    // Validation and the kInfinity pre-fill share one branchless pass;
    // the single check afterwards keeps expects (and its potential
    // throw) off the per-element path.
    bool sorted = true;
    if (count_ > 0) out_[0] = kInfinity;
    for (std::size_t i = 1; i < count_; ++i) {
      sorted &= xs_[i - 1] <= xs_[i];
      out_[i] = kInfinity;
    }
    expects(sorted,
            "first_visit_times_into: positions must be sorted ascending");
    cov_lo_ = cov_hi_ = start.position;
    // Probes sitting exactly on the start position are visited at the
    // start; [lo, hi) brackets them in the sorted array.
    const Real* lo = std::lower_bound(xs_, xs_ + count_, start.position);
    const Real* hi = std::upper_bound(lo, xs_ + count_, start.position);
    for (const Real* p = lo; p != hi; ++p) out_[p - xs_] = start.time;
    right_ = static_cast<std::size_t>(hi - xs_);
    left_ = (lo - xs_) - 1;
  }

  /// All probes assigned; feeding further segments is a no-op.
  [[nodiscard]] bool done() const noexcept {
    return left_ < 0 && right_ >= count_;
  }

  /// Advance the frontier over one segment a -> b (b.time > a.time).
  void feed(const Waypoint& a, const Waypoint& b) {
    const Real lo = std::min(a.position, b.position);
    const Real hi = std::max(a.position, b.position);
    if (hi > cov_hi_) {
      while (right_ < count_ && xs_[right_] <= hi) {
        assign(right_, a, b);
        ++right_;
      }
      cov_hi_ = hi;
    }
    if (lo < cov_lo_) {
      while (left_ >= 0 && xs_[left_] >= lo) {
        assign(static_cast<std::size_t>(left_), a, b);
        --left_;
      }
      cov_lo_ = lo;
    }
  }

 private:
  void assign(const std::size_t i, const Waypoint& a, const Waypoint& b) {
    // Only a moving segment extends the frontier, so b != a here; the
    // expression is character-for-character the scalar scan's.
    const Real fraction = (xs_[i] - a.position) / (b.position - a.position);
    out_[i] = a.time + fraction * (b.time - a.time);
  }

  const Real* xs_;
  std::size_t count_;
  Real* out_;
  Real cov_lo_ = 0;
  Real cov_hi_ = 0;
  std::ptrdiff_t left_ = -1;   ///< largest unassigned index below cov_lo_
  std::size_t right_ = 0;      ///< smallest unassigned index above cov_hi_
};

}  // namespace linesearch::detail
