// SoA kernel layer (eval/cr_eval's probe batch and sweep fill,
// sim/visit_sweep, eval/interval_lines columns): bit-identity against
// the scalar reference paths, the probe batch dedup/window regressions,
// and the pinned order-statistic tie-breaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "core/baselines.hpp"
#include "eval/cr_eval.hpp"
#include "eval/interval_lines.hpp"
#include "sim/analytic.hpp"
#include "sim/fleet.hpp"
#include "sim/trajectory.hpp"
#include "util/error.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace {

using verify::value_identical;

/// Sorted signed probe grid spanning both sides of the start position,
/// including 0 (every proportional robot's start) and far-out positions.
std::vector<Real> probe_grid(const Real hi) {
  std::vector<Real> xs;
  for (Real m = hi; m >= Real{0.25L}; m /= 2) xs.push_back(-m);
  xs.push_back(0);
  for (Real m = Real{0.25L}; m <= hi; m *= 2) xs.push_back(m);
  for (Real m = 1; m <= hi; m *= 3) xs.push_back(m * Real{1.00000000025L});
  std::sort(xs.begin(), xs.end());
  return xs;
}

void expect_batched_matches_scalar(const Fleet& fleet, const Real hi) {
  const std::vector<Real> xs = probe_grid(hi);
  std::vector<Real> batched(xs.size());
  for (RobotId id = 0; id < fleet.size(); ++id) {
    fleet.robot(id).first_visit_times_into(xs.data(), xs.size(),
                                           batched.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::optional<Real> scalar =
          fleet.robot(id).first_visit_time(xs[i]);
      const Real expected = scalar ? *scalar : kInfinity;
      EXPECT_TRUE(value_identical(batched[i], expected))
          << "robot " << id << " x=" << static_cast<double>(xs[i]);
    }
  }
}

TEST(VisitSweep, BatchedFirstVisitsMatchScalarOnDenseBackend) {
  expect_batched_matches_scalar(ProportionalAlgorithm(5, 2).build_fleet(64),
                                32);
}

TEST(VisitSweep, BatchedFirstVisitsMatchScalarOnAnalyticZigzag) {
  expect_batched_matches_scalar(
      ProportionalAlgorithm(5, 2).build_unbounded_fleet(), 32);
}

TEST(VisitSweep, BatchedFirstVisitsMatchScalarOnAnalyticRay) {
  std::vector<Trajectory> robots;
  robots.emplace_back(std::make_shared<AnalyticRay>(+1));
  robots.emplace_back(std::make_shared<AnalyticRay>(-1));
  expect_batched_matches_scalar(Fleet(std::move(robots)), 32);
}

TEST(VisitSweep, BatchedFirstVisitsMatchScalarOnNonConeFleet) {
  expect_batched_matches_scalar(
      ClassicCowPath(3, 1, /*mirrored=*/true).build_fleet(64), 32);
}

TEST(VisitSweep, UnreachedPositionsAreInfiniteOnBothPaths) {
  // Extent 4 leaves |x| > 4 unvisited: batched and scalar must agree on
  // exactly which probes are never visited.
  expect_batched_matches_scalar(ProportionalAlgorithm(3, 1).build_fleet(4),
                                32);
}

/// The emission pass of detail::probe_magnitudes, re-derived, with the
/// ORIGINAL quadratic first-occurrence dedup (std::find per candidate).
/// The production sorted-permutation dedup must keep the identical
/// probes in the identical order.
std::vector<Real> naive_probe_magnitudes(const Fleet& fleet, const int side,
                                         const CrEvalOptions& options) {
  std::vector<Real> turns = fleet.turning_positions_in(
      side, options.window_lo * (1 - tol::kRelative), options.window_hi);
  turns.push_back(options.window_lo);
  turns.push_back(options.window_hi);
  std::sort(turns.begin(), turns.end());
  turns.erase(std::unique(turns.begin(), turns.end(),
                          [](const Real a, const Real b) {
                            return approx_equal(a, b);
                          }),
              turns.end());
  std::vector<Real> probes;
  const auto push_unique = [&](const Real magnitude) {
    if (magnitude < options.window_lo || magnitude > options.window_hi) {
      return;
    }
    if (std::find(probes.begin(), probes.end(), magnitude) == probes.end()) {
      probes.push_back(magnitude);
    }
  };
  for (std::size_t i = 0; i < turns.size(); ++i) {
    push_unique(turns[i] * (1 + tol::kLimitProbe));
    push_unique(turns[i]);
    if (i + 1 < turns.size() && options.interior_samples > 0) {
      const int k = options.interior_samples;
      for (int s = 1; s <= k; ++s) {
        push_unique(turns[i] + (turns[i + 1] - turns[i]) *
                                   static_cast<Real>(s) /
                                   static_cast<Real>(k + 1));
      }
    }
  }
  return probes;
}

TEST(ProbeBatch, DedupMatchesQuadraticReferenceOnLargeTurnGrid) {
  // A(9, 4) out to 4096 puts hundreds of turning points (plus their
  // right-limits and interior samples) in the window — large enough that
  // an order-scrambling or duplicate-leaking dedup cannot hide.
  const Fleet fleet = ProportionalAlgorithm(9, 4).build_fleet(4096);
  CrEvalOptions options;
  options.window_hi = 1024;
  for (const int side : {+1, -1}) {
    const std::vector<Real> fast =
        detail::probe_magnitudes(fleet, side, options);
    const std::vector<Real> reference =
        naive_probe_magnitudes(fleet, side, options);
    ASSERT_GT(fast.size(), 50u);
    ASSERT_EQ(fast.size(), reference.size()) << "side " << side;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_TRUE(value_identical(fast[i], reference[i]))
          << "side " << side << " probe " << i;
    }
    // And no exact duplicate survives.
    std::vector<Real> sorted = fast;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
  }
}

TEST(ProbeBatch, SlackBandTurnNeverEmitsProbesBelowWindowLo) {
  // A turning point engineered just inside the window_lo * (1 -
  // kRelative) slack band: its right-limit lands inside the window (and
  // must be probed), but the turn itself and any interior sample toward
  // it sit strictly below window_lo and must be clamped out.
  const Real slack_turn = 1 - tol::kRelative / 4;
  TrajectoryBuilder builder;
  builder.start_at(0, 0);
  builder.move_to(slack_turn);
  builder.move_to(-40);
  builder.move_to(40);
  std::vector<Trajectory> robots;
  robots.push_back(std::move(builder).build());
  const Fleet fleet(std::move(robots));

  CrEvalOptions options;
  options.window_lo = 1;
  options.window_hi = 16;
  const std::vector<Real> probes =
      detail::probe_magnitudes(fleet, +1, options);
  ASSERT_FALSE(probes.empty());
  for (const Real magnitude : probes) {
    EXPECT_GE(magnitude, options.window_lo);
    EXPECT_LE(magnitude, options.window_hi);
  }
  // The slack band exists so this right-limit is probed.
  const Real limit = slack_turn * (1 + tol::kLimitProbe);
  ASSERT_GT(limit, options.window_lo);
  EXPECT_NE(std::find(probes.begin(), probes.end(), limit), probes.end());
}

TEST(ProbeBatch, ConcatenatesSidesInEmissionOrder) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(64);
  CrEvalOptions options;
  options.window_hi = 16;
  const detail::ProbeBatch batch = detail::build_probe_batch(fleet, options);
  const std::vector<Real> positive =
      detail::probe_magnitudes(fleet, +1, options);
  const std::vector<Real> negative =
      detail::probe_magnitudes(fleet, -1, options);
  ASSERT_EQ(batch.size(), positive.size() + negative.size());
  ASSERT_EQ(batch.positive_count, positive.size());
  for (std::size_t i = 0; i < positive.size(); ++i) {
    EXPECT_TRUE(value_identical(batch.magnitudes[i], positive[i]));
    EXPECT_EQ(batch.sides[i], 1);
  }
  for (std::size_t i = 0; i < negative.size(); ++i) {
    EXPECT_TRUE(
        value_identical(batch.magnitudes[batch.positive_count + i],
                        negative[i]));
    EXPECT_EQ(batch.sides[batch.positive_count + i], -1);
  }
}

TEST(VisitColumns, DetectionMatchesFleetQueriesProbeByProbe) {
  for (const bool analytic : {false, true}) {
    const ProportionalAlgorithm algo(5, 2);
    const Fleet fleet =
        analytic ? algo.build_unbounded_fleet() : algo.build_fleet(64);
    CrEvalOptions options;
    options.window_hi = 16;
    const detail::ProbeBatch batch = detail::build_probe_batch(fleet, options);
    detail::VisitColumns columns;
    for (const int f : {0, 2, 4}) {
      detail::fill_visit_columns(fleet, f, batch, columns);
      ASSERT_EQ(columns.detection.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Real x =
            static_cast<Real>(batch.sides[i]) * batch.magnitudes[i];
        EXPECT_TRUE(value_identical(columns.detection[i],
                                    fleet.detection_time(x, f)))
            << (analytic ? "analytic" : "dense") << " f=" << f
            << " probe " << i;
      }
    }
  }
}

TEST(VisitColumns, FaultBudgetBeyondFleetSizeIsAllUndetected) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  const detail::ProbeBatch batch = detail::build_probe_batch(fleet, {});
  detail::VisitColumns columns;
  detail::fill_visit_columns(fleet, 3, batch, columns);
  for (const Real time : columns.detection) {
    EXPECT_TRUE(std::isinf(time));
  }
}

/// All 41 (n, f) pairs with 1 <= f < n < 2f + 2 and n <= 12 — the
/// paper's whole regime at test scale.
std::vector<std::pair<int, int>> regime_pairs() {
  std::vector<std::pair<int, int>> pairs;
  for (int f = 1; f <= 11; ++f) {
    for (int n = f + 1; n < 2 * f + 2 && n <= 12; ++n) {
      pairs.push_back({n, f});
    }
  }
  return pairs;
}

TEST(MeasureCrKernel, BitIdenticalToScalarAcrossAllRegimePairs) {
  const std::vector<std::pair<int, int>> pairs = regime_pairs();
  ASSERT_EQ(pairs.size(), 41u);
  CrEvalOptions options;
  options.window_hi = 16;
  for (const auto& pair : pairs) {
    const int n = pair.first;
    const int f = pair.second;
    const Fleet fleet = ProportionalAlgorithm(n, f).build_fleet(64);
    const CrEvalResult kernel = measure_cr(fleet, f, options);
    const CrEvalResult scalar = detail::measure_cr_with(
        fleet, f, options,
        [&fleet, f](const Real x) { return fleet.detection_time(x, f); });
    EXPECT_TRUE(value_identical(kernel.cr, scalar.cr)) << n << "," << f;
    EXPECT_TRUE(value_identical(kernel.argmax, scalar.argmax))
        << n << "," << f;
    EXPECT_TRUE(value_identical(kernel.cr_positive, scalar.cr_positive))
        << n << "," << f;
    EXPECT_TRUE(value_identical(kernel.cr_negative, scalar.cr_negative))
        << n << "," << f;
    EXPECT_EQ(kernel.probes, scalar.probes) << n << "," << f;
    EXPECT_EQ(kernel.undetected_probes, scalar.undetected_probes)
        << n << "," << f;
  }
}

TEST(MeasureCrKernel, BitIdenticalToScalarOnAnalyticBackend) {
  CrEvalOptions options;
  options.window_hi = 64;
  for (const auto& pair :
       std::vector<std::pair<int, int>>{{3, 1}, {7, 4}, {12, 11}}) {
    const int n = pair.first;
    const int f = pair.second;
    const Fleet fleet = ProportionalAlgorithm(n, f).build_unbounded_fleet();
    const CrEvalResult kernel = measure_cr(fleet, f, options);
    const CrEvalResult scalar = detail::measure_cr_with(
        fleet, f, options,
        [&fleet, f](const Real x) { return fleet.detection_time(x, f); });
    EXPECT_TRUE(value_identical(kernel.cr, scalar.cr)) << n << "," << f;
    EXPECT_TRUE(value_identical(kernel.argmax, scalar.argmax))
        << n << "," << f;
    EXPECT_EQ(kernel.probes, scalar.probes) << n << "," << f;
  }
}

TEST(MeasureCrKernel, MeasureCrDelegatesToTheKernelPath) {
  // measure_cr is the sweep fill followed by the shared supremum scan.
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(64);
  CrEvalOptions options;
  options.window_hi = 16;
  const CrEvalResult via_facade = measure_cr(fleet, 2, options);
  const detail::ProbeBatch batch = detail::build_probe_batch(fleet, options);
  detail::VisitColumns columns;
  detail::fill_visit_columns(fleet, 2, batch, columns);
  const CrEvalResult via_kernel =
      detail::scan_probes(batch, columns.detection, options);
  EXPECT_TRUE(value_identical(via_facade.cr, via_kernel.cr));
  EXPECT_TRUE(value_identical(via_facade.argmax, via_kernel.argmax));
  EXPECT_EQ(via_facade.probes, via_kernel.probes);
}

TEST(MeasureCrKernel, UndetectedProbeThrowsLikeTheScalarScan) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(4);
  CrEvalOptions options;
  options.window_hi = 4096;  // far beyond the fleet's reach
  EXPECT_THROW((void)measure_cr(fleet, 1, options),
               NumericError);
  options.require_finite = false;
  const CrEvalResult relaxed = measure_cr(fleet, 1, options);
  EXPECT_GT(relaxed.undetected_probes, 0);
}

TEST(OrderStatisticLine, TieBreakIsLowestIndexAmongAttainers) {
  // Four lines, three of which share the bit-identical value at x = 3
  // (indices 1, 2, 3); index 0 is strictly cheaper.  For k = 1 the
  // statistic is the shared value and the PINNED winner is index 1.
  std::vector<detail::VisitLine> lines(4);
  lines[0] = {true, 2, 1, Real{0.5L}};
  lines[1] = {true, 2, 5, 1};
  lines[2] = {true, 2, 5, 1};
  lines[3] = {true, 2, 5, 1};
  EXPECT_EQ(detail::order_statistic_line(lines, 3, 1), 1u);
  EXPECT_EQ(detail::order_statistic_line(lines, 3, 2), 1u);
  EXPECT_EQ(detail::order_statistic_line(lines, 3, 3), 1u);
  EXPECT_EQ(detail::order_statistic_line(lines, 3, 0), 0u);

  // The SoA columns must pin the same winner.
  detail::LineColumns columns;
  for (const detail::VisitLine& line : lines) {
    columns.finite.push_back(line.finite ? 1 : 0);
    columns.anchor.push_back(line.anchor);
    columns.value.push_back(line.value);
    columns.slope.push_back(line.slope);
  }
  EXPECT_EQ(detail::order_statistic_line(columns, 3, 1), 1u);
  EXPECT_EQ(detail::order_statistic_line(columns, 3, 2), 1u);
  EXPECT_EQ(detail::order_statistic_line(columns, 3, 3), 1u);
  EXPECT_EQ(detail::order_statistic_line(columns, 3, 0), 0u);
}

TEST(LineCrossings, SortedAscendingWithExactDuplicatesRemoved) {
  // Two distinct line PAIRS crossing at the bit-identical abscissa x = 2
  // (a symmetric-fleet situation), plus one pair crossing at x = 3.
  std::vector<detail::VisitLine> lines(4);
  lines[0] = {true, 0, 0, 1};           // t = x
  lines[1] = {true, 0, 4, -1};          // t = 4 - x      (meets 0 at x=2)
  lines[2] = {true, 0, -2, 2};          // t = 2x - 2     (meets 1 at x=2)
  lines[3] = {true, 0, 9, -2};          // t = 9 - 2x     (meets 0 at x=3)
  const std::vector<Real> crossings = detail::line_crossings(lines, 0, 10);
  ASSERT_FALSE(crossings.empty());
  EXPECT_TRUE(std::is_sorted(crossings.begin(), crossings.end()));
  EXPECT_EQ(std::adjacent_find(crossings.begin(), crossings.end()),
            crossings.end());
  EXPECT_NE(std::find(crossings.begin(), crossings.end(), Real{2}),
            crossings.end());
  EXPECT_NE(std::find(crossings.begin(), crossings.end(), Real{3}),
            crossings.end());

  // SoA path reports the identical list.
  detail::LineColumns columns;
  for (const detail::VisitLine& line : lines) {
    columns.finite.push_back(line.finite ? 1 : 0);
    columns.anchor.push_back(line.anchor);
    columns.value.push_back(line.value);
    columns.slope.push_back(line.slope);
  }
  std::vector<Real> soa;
  detail::line_crossings_into(columns, 0, 10, soa);
  ASSERT_EQ(soa.size(), crossings.size());
  for (std::size_t i = 0; i < soa.size(); ++i) {
    EXPECT_TRUE(value_identical(soa[i], crossings[i]));
  }
}

TEST(LineColumns, EvaluationMatchesVisitLineAt) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(64);
  const std::vector<Real> criticals =
      detail::critical_magnitudes(fleet, +1, 1, 16);
  ASSERT_GE(criticals.size(), 2u);
  detail::LineColumns columns;
  for (std::size_t i = 0; i + 1 < criticals.size(); ++i) {
    const Real a = criticals[i];
    const Real b = criticals[i + 1];
    const std::vector<detail::VisitLine> lines =
        detail::visit_lines(fleet, +1, a, b);
    detail::fill_line_columns(fleet, +1, a, b, columns);
    ASSERT_EQ(columns.size(), lines.size());
    const Real x = a + (b - a) / 3;
    detail::evaluate_lines(columns, x);
    for (std::size_t r = 0; r < lines.size(); ++r) {
      EXPECT_TRUE(value_identical(columns.at[r], lines[r].at(x)))
          << "interval " << i << " robot " << r;
      EXPECT_EQ(columns.finite[r] != 0, lines[r].finite);
    }
    for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
      EXPECT_TRUE(value_identical(
          detail::order_statistic_at(columns, x, k),
          detail::order_statistic_at(lines, x, k)));
      EXPECT_EQ(detail::order_statistic_line(columns, x, k),
                detail::order_statistic_line(lines, x, k));
    }
  }
}

}  // namespace
}  // namespace linesearch
