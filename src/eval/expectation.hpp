// eval/expectation.hpp — exact expected-CR evaluation under per-visit
// probabilistic faults (arXiv:2002.07797, arXiv:2303.15608).
//
// Model: every visit to the target is an independent probe that fails
// with probability p (sim/faults.hpp ProbabilisticFaults realizes one
// such schedule).  Let t_1 <= t_2 <= ... be the team's merged visit
// times at x.  Detection happens at the first successful probe, so
//
//   E[T(x)] = sum_k t_k * (1 - p) * p^(k-1).
//
// No Monte Carlo is needed: on the zigzag/analytic ladder families the
// visit times obey an affine-geometric recurrence — one expansion period
// multiplies positions by kappa = (2f+2)/(2f+2-n), every robot crosses x
// twice per period, so t_(k+2n) = kappa^2 * t_k + c — which makes the
// series a geometric ladder.  Consecutive period sums contract by
// q -> p^(2n) * kappa^2, so the series converges iff
//
//   p < kappa^(-1/n)        (equivalently p^(2n) * kappa^2 < 1)
//
// Evaluation streams: every robot's visits come from a VisitCursor
// (sim/visit_sweep.hpp), a k-way merge takes the smallest head and feeds
// it straight into the sum, and the pass stops as soon as the closed-
// form geometric tail of the last period window drops below rel_tol of
// the sum (converged) or period sums stop contracting (E[T] =
// kInfinity).  Only the visits the sum consumes are ever walked — a few
// dozen per target at p <= 0.5.  Each pass caps every robot at `cap`
// visits (64, then x4 up to max_visits); a pass that runs dry undecided
// ends the evaluation when the lists are finite (kInfinity), or at the
// cap or a stalled overflowing ladder (the last window's tail decides),
// and otherwise restarts with the larger cap.  The result is
// bit-identical to sorting every robot's first `cap` visits and summing
// the sorted prefix.  A FINITE visit list (a bounded / dense fleet, or a
// ray that passes x once) leaves never-detect mass p^K > 0, so E[T] is
// kInfinity for every p > 0 — the expected-CR evaluator is meant for the
// unbounded analytic backends.
//
// At p == 0 the series collapses to t_1 = Fleet::detection_time(x, 0)
// and the scan below runs detail::measure_cr_with with exactly the
// fault-free oracle — bit-identical to measure_cr(fleet, 0, options).
#pragma once

#include <cstddef>
#include <vector>

#include "eval/cr_eval.hpp"
#include "sim/fleet.hpp"
#include "util/real.hpp"

namespace linesearch {

/// Options for the expectation engine.
struct ExpectationOptions {
  Real p = 0;  ///< per-visit failure probability in [0, 1]
  /// Probe-scan window and sampling (require_finite defaults OFF here:
  /// for p > 0 divergent probes are expected output, not an error).
  CrEvalOptions eval = {.window_lo = 1,
                        .window_hi = 64,
                        .interior_samples = 4,
                        .require_finite = false};
  /// Relative truncation tolerance of the geometric tail bound.
  Real rel_tol = 1e-9L;
  /// Merged-visit hard cap per evaluation; past it the last measured
  /// period ratio decides (contracting: extrapolate the closed-form
  /// tail; otherwise kInfinity).
  std::size_t max_visits = 1u << 16;
};

/// E[T(target)] under per-visit iid failures — the series above, exact
/// up to rel_tol.  kInfinity when the series diverges (p at or past the
/// ladder threshold), when the visit list is finite (never-detect mass),
/// or when the target is never visited.  p == 0 returns
/// Fleet::detection_time(target, 0) bit-identically.
[[nodiscard]] Real expected_detection_time(const Fleet& fleet, Real target,
                                           const ExpectationOptions& options);

/// Expected competitive ratio sup_x E[T(x)]/|x| over the options'
/// window: the measure_cr probe scan (same probes, same tie-breaks,
/// same counters) with the expectation oracle above.
[[nodiscard]] CrEvalResult measure_expected_cr(
    const Fleet& fleet, const ExpectationOptions& options);

/// Closed-form convergence threshold of A(n, f)'s ladder: E[T] is
/// finite for p < kappa^(-1/n) with kappa = optimal_expansion_factor.
/// Requires the proportional regime.
[[nodiscard]] Real expectation_convergence_threshold(int n, int f);

/// True iff the expected-CR series of A(n, f) converges at p (p below
/// the threshold above; p == 0 always converges).
[[nodiscard]] bool expectation_converges(int n, int f, Real p);

/// One row of the p-sweep grid.
struct ExpectationSweepRow {
  int n = 0;
  int f = 0;
  Real p = 0;
  bool converges = false;   ///< closed-form criterion at this p
  Real expected_cr = kInfinity;
  Real argmax = 0;
  int undetected_probes = 0;
};

struct ExpectationSweepOptions {
  int n_max = 8;        ///< regime grid bound (41 pairs at 12)
  int p_count = 5;      ///< p grid resolution (linspace 0..p_max)
  Real p_max = 0.5L;    ///< largest failure probability swept
  Real window_hi = 16;  ///< CR measurement window
};

/// Sweep every regime pair (n <= n_max) times the p grid: expected CR of
/// A(n, f)'s unbounded analytic backend at each failure probability.
[[nodiscard]] std::vector<ExpectationSweepRow> expectation_sweep(
    const ExpectationSweepOptions& options = {});

}  // namespace linesearch
