// Tests for eval/turn_cost.hpp — the Demaine-Fekete-Gal turn-cost
// extension.
#include "eval/turn_cost.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "eval/validation.hpp"
#include "sim/faults.hpp"
#include "util/error.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace {

using verify::value_identical;

// 0 -> 2 -> -2 -> 3: turns at 2 (t=2) and -2 (t=6).
Trajectory two_turns() {
  TrajectoryBuilder b;
  b.start_at(0, 0);
  b.move_to(2).move_to(-2).move_to(3);
  return std::move(b).build();
}

TEST(TurnCostVisit, NoTurnsBeforeOutboundVisit) {
  // x = 1.5 is first visited on the way out, before any turn: no charge.
  EXPECT_EQ(turn_cost_first_visit(two_turns(), 1.5L, 10), 1.5L);
}

TEST(TurnCostVisit, EachTurnBeforeVisitCharges) {
  // x = -1 first visited at t = 5, after ONE turn (at 2).
  EXPECT_EQ(turn_cost_first_visit(two_turns(), -1, 10), 15.0L);
  // x = 2.5 first visited at t = 10.5, after TWO turns.
  EXPECT_EQ(turn_cost_first_visit(two_turns(), 2.5L, 10), 30.5L);
}

TEST(TurnCostVisit, ZeroCostMatchesPlainVisit) {
  const Trajectory t = two_turns();
  for (const Real x : {-1.9L, 0.0L, 1.0L, 2.9L}) {
    EXPECT_EQ(turn_cost_first_visit(t, x, 0), *t.first_visit_time(x));
  }
}

TEST(TurnCostVisit, UnreachedPointIsInfinity) {
  EXPECT_TRUE(std::isinf(turn_cost_first_visit(two_turns(), 5, 1)));
}

TEST(TurnCostVisit, VisitExactlyAtTurnNotCharged) {
  // The visit AT the turning point happens at the turn itself; only
  // turns strictly before the visit are charged.
  EXPECT_EQ(turn_cost_first_visit(two_turns(), 2, 5), 2.0L);
}

TEST(TurnCostVisit, NegativeCostRejected) {
  EXPECT_THROW((void)turn_cost_first_visit(two_turns(), 1, -1),
               PreconditionError);
}

TEST(TurnCostDetection, OrderStatisticOverEffectiveTimes) {
  // Robot A reaches x = -1 late but with no turns; robot B reaches it
  // early but after a turn.  Turn cost flips their order.
  const Fleet fleet({Trajectory({{0, 0}, {8, -8}}),          // visits -1 at 1? no: at t=1
                     two_turns()});                          // visits -1 at 5 (+c)
  // fleet.robot(0) visits -1 at t = 1 (sweeping left), robot(1) at 5+c.
  EXPECT_EQ(turn_cost_detection(fleet, -1, 0, 10), 1.0L);
  EXPECT_EQ(turn_cost_detection(fleet, -1, 1, 10), 15.0L);
  EXPECT_EQ(turn_cost_detection(fleet, -1, 1, 0), 5.0L);
}

TEST(TurnCostDetection, FaultBudgetBeyondFleetIsInfinity) {
  const Fleet fleet({two_turns()});
  EXPECT_TRUE(std::isinf(turn_cost_detection(fleet, 1, 1, 1)));
}

TEST(TurnCostCr, ZeroCostCoincidesWithMeasureCr) {
  // Same probe set, same supremum scan, and at c = 0 the same detection
  // times: every result field must match measure_cr bit for bit.
  const std::vector<std::pair<int, int>> pairs =
      proportional_regime_pairs(12);
  ASSERT_EQ(pairs.size(), 41u);
  for (const auto& [n, f] : pairs) {
    for (const Real window_hi : {16.0L, 64.0L, 256.0L}) {
      const Fleet fleet =
          ProportionalAlgorithm(n, f).build_fleet(4 * window_hi);
      const CrEvalOptions options{.window_hi = window_hi};
      const CrEvalResult plain = measure_cr(fleet, f, options);
      const CrEvalResult with_cost =
          measure_cr_with_turn_cost(fleet, f, 0, options);
      const std::string where = "A(" + std::to_string(n) + "," +
                                std::to_string(f) + ") window_hi " +
                                std::to_string(static_cast<int>(window_hi));
      EXPECT_TRUE(value_identical(with_cost.cr, plain.cr)) << where;
      EXPECT_TRUE(value_identical(with_cost.argmax, plain.argmax)) << where;
      EXPECT_TRUE(value_identical(with_cost.cr_positive, plain.cr_positive))
          << where;
      EXPECT_TRUE(value_identical(with_cost.cr_negative, plain.cr_negative))
          << where;
      EXPECT_EQ(with_cost.probes, plain.probes) << where;
      EXPECT_EQ(with_cost.undetected_probes, plain.undetected_probes)
          << where;
    }
  }
}

TEST(TurnCostCr, FullyUndetectedFleetIsInfinite) {
  // Every robot crashes at t = 0.5, so no target with |x| >= 1 is ever
  // found: each half-line's supremum is infinite, as in measure_cr.
  const Fleet fleet = truncate_at_crashes(
      ProportionalAlgorithm(3, 2).build_fleet(64), {0.5L, 0.5L, 0.5L});
  const CrEvalOptions options{.window_hi = 16, .require_finite = false};
  const CrEvalResult plain = measure_cr(fleet, 2, options);
  const CrEvalResult with_cost =
      measure_cr_with_turn_cost(fleet, 2, 1, options);
  EXPECT_TRUE(std::isinf(with_cost.cr));
  EXPECT_TRUE(std::isinf(with_cost.cr_positive));
  EXPECT_TRUE(std::isinf(with_cost.cr_negative));
  EXPECT_GT(with_cost.undetected_probes, 0);
  EXPECT_EQ(with_cost.undetected_probes, plain.undetected_probes);
  EXPECT_EQ(with_cost.undetected_probes, with_cost.probes);
}

TEST(TurnCostCr, CostIncreasesTheRatioMonotonically) {
  const ProportionalAlgorithm algo(3, 1);
  const Fleet fleet = algo.build_fleet(800);
  const CrEvalOptions options{.window_hi = 16};
  Real previous = 0;
  for (const Real c : {0.0L, 0.5L, 1.0L, 2.0L, 4.0L}) {
    const Real cr = measure_cr_with_turn_cost(fleet, 1, c, options).cr;
    EXPECT_GE(cr, previous - 1e-12L);
    previous = cr;
  }
  EXPECT_GT(previous, algorithm_cr(3, 1));  // cost 4 must visibly hurt
}

TEST(TurnCostCr, LargeCostFavorsSmallerBetaAwayFromTheOrigin) {
  // For targets near the minimum distance the detector has made the same
  // two prefix turns under any beta, so beta* stays optimal there.  On a
  // window away from the origin, however, accumulated turns matter and a
  // wider zig-zag (smaller beta, larger kappa, fewer turns per distance)
  // beats the paper's beta* once turning is expensive.
  const int n = 3, f = 1;
  const Real beta_star = optimal_beta(n, f);   // 5/3
  const Real beta_wide = 1.5L;
  CrEvalOptions options;
  options.window_lo = 50;
  options.window_hi = 200;
  const Real cost = 6;

  const Fleet at_star =
      ProportionalAlgorithm(n, f, beta_star).build_fleet(20000);
  const Fleet wide =
      ProportionalAlgorithm(n, f, beta_wide).build_fleet(20000);

  const Real cr_star =
      measure_cr_with_turn_cost(at_star, f, cost, options).cr;
  const Real cr_wide =
      measure_cr_with_turn_cost(wide, f, cost, options).cr;
  EXPECT_LT(cr_wide, cr_star)
      << "wide: " << static_cast<double>(cr_wide)
      << " star: " << static_cast<double>(cr_star);

  // Sanity: without turn cost the ordering is the paper's (beta* wins).
  const Real plain_star = measure_cr(at_star, f, options).cr;
  const Real plain_wide = measure_cr(wide, f, options).cr;
  EXPECT_LT(plain_star, plain_wide);
}

}  // namespace
}  // namespace linesearch
