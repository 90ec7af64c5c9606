#include "eval/expectation.hpp"

#include <algorithm>
#include <cmath>

#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "eval/validation.hpp"
#include "analysis/grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/visit_sweep.hpp"
#include "util/error.hpp"

namespace linesearch {

namespace {

/// Consecutive non-contracting period sums before the series is declared
/// divergent.  The measured period ratio approaches the true contraction
/// factor from above (the affine offset c of t_(k+2n) = kappa^2 t_k + c
/// decays relative to t_k by kappa^2 per period), so a handful of early
/// windows can sit at or above 1 even when the series converges; a
/// sustained run cannot.
constexpr int kDivergingWindows = 16;

/// Running sum of t_k (1-p) p^(k-1) over merged visit times fed in
/// increasing order, with the per-window geometric tail test.
struct SeriesSum {
  enum class State { kOpen, kConverged, kDivergent };

  Real p;
  std::size_t window;
  Real rel_tol;
  Real sum = 0;
  std::size_t terms = 0;
  Real term = 0;
  Real prev_t = 0;
  Real window_sum = 0;
  Real prev_window = 0;
  Real q = kNaN;     ///< ratio of the last two full windows
  Real tail = kNaN;  ///< closed-form tail at the last contracting window
  std::size_t in_window = 0;
  int diverging_streak = 0;

  State add(const Real t) {
    // term_(k+1) = term_k * p * (t_(k+1)/t_k) keeps the running term in
    // representable range even where t_k alone would overflow and p^k
    // alone would underflow (their product is bounded by the series'
    // behaviour, not by either factor).
    term = (terms == 0) ? (1 - p) * t : term * p * (t / prev_t);
    ++terms;
    prev_t = t;
    sum += term;
    window_sum += term;
    if (++in_window < window) return State::kOpen;
    if (prev_window > 0) {
      q = window_sum / prev_window;
      if (q < 1) {
        diverging_streak = 0;
        tail = window_sum * q / (1 - q);
        if (tail <= rel_tol * sum) return State::kConverged;
      } else if (++diverging_streak >= kDivergingWindows) {
        return State::kDivergent;
      }
    }
    prev_window = window_sum;
    window_sum = 0;
    in_window = 0;
    return State::kOpen;
  }
};

/// One robot's visits to the target in one pass: capped at `cap`, cut at
/// the first non-finite time, pulled one look-ahead visit at a time.
struct RobotVisits {
  VisitCursor cursor;
  std::size_t taken = 0;  ///< visits pulled from the cursor so far
  Real head = kInfinity;  ///< next visit; kInfinity once exhausted

  /// Pull the next visit into `head`.  Sets *truncated when visits exist
  /// past what this pass may use: the cap is reached, or a ladder time
  /// overflowed Real range.
  void pull(const std::size_t cap, bool* truncated) {
    if (taken == cap || !cursor.next(&head)) {
      head = kInfinity;
      return;
    }
    if (++taken == cap) *truncated = true;
    if (!std::isfinite(head)) {
      *truncated = true;
      head = kInfinity;
    }
  }
};

}  // namespace

Real expected_detection_time(const Fleet& fleet, const Real target,
                             const ExpectationOptions& options) {
  expects(target != 0, "expected_detection_time: target must be nonzero");
  expects(options.p >= 0 && options.p <= 1,
          "expected_detection_time: p must be in [0, 1]");
  expects(options.rel_tol > 0 && options.max_visits >= 16,
          "expected_detection_time: need rel_tol > 0, max_visits >= 16");
  LS_OBS_COUNT("eval.expectation.evaluations", 1);
  const Real p = options.p;
  // p == 0: the series collapses to t_1 — the fault-free first visit,
  // bit-identical to the measure_cr oracle at budget 0.
  if (p == 0) return fleet.detection_time(target, 0);
  if (p == 1) {
    LS_OBS_COUNT("eval.expectation.divergent", 1);
    return kInfinity;
  }

  // A fully bounded fleet visits every target finitely often, so the
  // never-detect mass p^K is positive and E[T] is infinite outright.
  // This must be decided BEFORE the series pass: a long finite list can
  // satisfy the geometric tail bound (which presumes the ladder
  // continues) without ever revealing its end.
  const std::vector<Trajectory>& team = fleet.robots();
  if (std::none_of(team.begin(), team.end(), [](const Trajectory& robot) {
        return robot.unbounded();
      })) {
    LS_OBS_COUNT("eval.expectation.divergent", 1);
    return kInfinity;
  }

  // One expansion period contributes two visits per robot on the zigzag
  // ladder; 4 floors the window for degenerate single-robot fleets.
  const std::size_t window = std::max<std::size_t>(2 * fleet.size(), 4);
  std::size_t cap = 64;
  std::size_t last_merged = 0;
  std::vector<RobotVisits> robots;
  robots.reserve(fleet.size());
  for (;;) {
    // One pass: a k-way merge of every robot's first `cap` visits, fed
    // in increasing time order straight into the series.  The pass
    // stops as soon as the series converges or diverges, so only the
    // visits the sum consumes are ever walked.
    bool truncated = false;
    robots.clear();
    for (const Trajectory& robot : team) {
      robots.push_back({.cursor = VisitCursor(robot.source(), target)});
      robots.back().pull(cap, &truncated);
    }
    SeriesSum series{.p = p, .window = window, .rel_tol = options.rel_tol};
    for (;;) {
      // Linear scan for the smallest head: teams are small.
      const auto next = std::min_element(
          robots.begin(), robots.end(),
          [](const RobotVisits& a, const RobotVisits& b) {
            return a.head < b.head;
          });
      if (next->head == kInfinity) break;
      const SeriesSum::State state = series.add(next->head);
      if (state == SeriesSum::State::kDivergent) {
        LS_OBS_COUNT("eval.expectation.divergent", 1);
        LS_OBS_COUNT("eval.expectation.visits", series.terms);
        return kInfinity;
      }
      if (state == SeriesSum::State::kConverged) {
        LS_OBS_COUNT("eval.expectation.visits", series.terms);
        return series.sum;
      }
      next->pull(cap, &truncated);
    }
    const std::size_t merged = series.terms;
    if (merged == 0) return kInfinity;  // never visited
    if (!truncated) {
      // The visit list is genuinely finite: mass p^K never detects, so
      // the expectation is infinite for any p > 0.
      LS_OBS_COUNT("eval.expectation.divergent", 1);
      LS_OBS_COUNT("eval.expectation.visits", merged);
      return kInfinity;
    }
    const bool stalled = merged == last_merged;
    if (merged >= options.max_visits || stalled) {
      // Cap (or ladder-overflow stall): the last period ratio decides.
      // A contracting tail extrapolates in closed form; anything else —
      // including a pass too short to measure one — is divergent-side.
      LS_OBS_COUNT("eval.expectation.visits", merged);
      if (!(series.q < 1) || std::isnan(series.tail)) {
        LS_OBS_COUNT("eval.expectation.divergent", 1);
        return kInfinity;
      }
      return series.sum + series.tail;
    }
    last_merged = merged;
    cap = std::min(cap * 4, options.max_visits);
  }
}

CrEvalResult measure_expected_cr(const Fleet& fleet,
                                 const ExpectationOptions& options) {
  LS_OBS_SPAN("eval.expectation.scan");
  LS_OBS_COUNT("eval.expectation.scans", 1);
  return detail::measure_cr_with(
      fleet, 0, options.eval,
      [&](const Real x) { return expected_detection_time(fleet, x, options); });
}

Real expectation_convergence_threshold(const int n, const int f) {
  expects(in_proportional_regime(n, f),
          "expectation_convergence_threshold: (n, f) must be in regime");
  const Real kappa = optimal_expansion_factor(n, f);
  return std::pow(kappa, Real{-1} / static_cast<Real>(n));
}

bool expectation_converges(const int n, const int f, const Real p) {
  expects(p >= 0 && p <= 1, "expectation_converges: p must be in [0, 1]");
  if (p == 0) return true;
  return p < expectation_convergence_threshold(n, f);
}

std::vector<ExpectationSweepRow> expectation_sweep(
    const ExpectationSweepOptions& options) {
  LS_OBS_SPAN("eval.expectation.sweep");
  expects(options.p_count >= 1, "expectation sweep: need p_count >= 1");
  expects(options.p_max >= 0 && options.p_max < 1,
          "expectation sweep: need 0 <= p_max < 1");
  expects(options.window_hi > 1, "expectation sweep: need window_hi > 1");
  const std::vector<Real> p_grid =
      options.p_count == 1 ? std::vector<Real>{options.p_max}
                           : linspace(0, options.p_max, options.p_count);
  std::vector<ExpectationSweepRow> rows;
  for (const auto& [n, f] : proportional_regime_pairs(options.n_max)) {
    const Fleet fleet = ProportionalAlgorithm(n, f).build_unbounded_fleet();
    for (const Real p : p_grid) {
      ExpectationSweepRow row;
      row.n = n;
      row.f = f;
      row.p = p;
      row.converges = expectation_converges(n, f, p);
      ExpectationOptions eval;
      eval.p = p;
      eval.eval.window_hi = options.window_hi;
      const CrEvalResult scan = measure_expected_cr(fleet, eval);
      row.expected_cr = scan.cr;
      row.argmax = scan.argmax;
      row.undetected_probes = scan.undetected_probes;
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace linesearch
