// eval/turn_cost.hpp — search with turn cost (extension study).
//
// The paper's related work cites Demaine, Fekete and Gal, "Online
// searching with turn cost": every direction reversal costs an extra
// `c` time units (deceleration/turnaround).  Under this model a robot's
// effective arrival at x is its geometric visit time plus c times the
// number of turns it performed strictly before that visit, and the
// fault-tolerant detection time is the usual (f+1)-st order statistic of
// the effective first visits.
//
// The interesting effect for proportional schedules: turn cost penalizes
// small expansion factors (many turns per distance).  Near the minimum
// target distance every schedule's detector has performed the same two
// prefix turns, so beta* stays optimal there; on target windows away
// from the origin the accumulated turn charge dominates and the optimal
// cone parameter shifts BELOW the paper's beta* = (4f+4)/n - 1 (smaller
// beta => larger kappa => sparser turning points).  bench_turn_cost
// sweeps (beta, c) to exhibit the shifted optimum.
#pragma once

#include "eval/cr_eval.hpp"
#include "sim/fleet.hpp"
#include "util/real.hpp"

namespace linesearch {

/// Effective first-visit time of `robot` at x under turn cost c:
/// first geometric visit time + c * (turns strictly before it).
/// Returns kInfinity if the robot never reaches x.
[[nodiscard]] Real turn_cost_first_visit(const Trajectory& robot, Real x,
                                         Real cost_per_turn);

/// Worst-case detection time at x with up to `faults` adversarial faults
/// under turn cost c: the (faults+1)-st smallest effective first visit.
[[nodiscard]] Real turn_cost_detection(const Fleet& fleet, Real x,
                                       int faults, Real cost_per_turn);

/// Empirical competitive ratio under turn cost: sup over the window of
/// turn_cost_detection(x)/|x| on measure_cr's probe set, through the
/// same supremum scan (detail::measure_cr_with), so it shares the
/// require_finite, undetected-half-line and tie-break rules and records
/// the eval.cr.* counters.  With cost_per_turn == 0 every result field
/// equals measure_cr's, bitwise.
[[nodiscard]] CrEvalResult measure_cr_with_turn_cost(
    const Fleet& fleet, int faults, Real cost_per_turn,
    const CrEvalOptions& options = {});

}  // namespace linesearch
