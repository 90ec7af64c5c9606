// Golden dense-vs-analytic equivalence: for every paper strategy and
// every feasible (n, f) regime pair with n <= 12, the analytic backend
// must reproduce the dense build bit for bit — the shared waypoint
// prefix value_identical and measure_cr over the window agreeing field
// by field.  Extents are powers of two: straight-line (ray) backends
// match dense visit arithmetic exactly only at power-of-two extents.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/algorithm.hpp"
#include "core/baselines.hpp"
#include "core/bounded.hpp"
#include "verify/differential.hpp"

namespace linesearch {
namespace {

constexpr Real kExtent = 256;  // power of two, comfortably > window_hi
const CrEvalOptions kWindow{.window_lo = 1, .window_hi = 16};

void expect_equivalent(const SearchStrategy& strategy, const int f,
                       const Real extent = kExtent,
                       const CrEvalOptions& window = kWindow) {
  const verify::DifferentialResult result =
      verify::diff_dense_vs_analytic(strategy, extent, f, window);
  EXPECT_TRUE(result.applicable) << strategy.name();
  EXPECT_TRUE(result.passed) << strategy.name() << ": " << result.message;
}

std::vector<std::pair<int, int>> regime_pairs_up_to_12() {
  // All (n, f) with f >= 1 and f < n < 2f+2 and n <= 12: 41 pairs.
  std::vector<std::pair<int, int>> pairs;
  for (int f = 1; f <= 11; ++f) {
    for (int n = f + 1; n <= std::min(12, 2 * f + 1); ++n) {
      pairs.emplace_back(n, f);
    }
  }
  return pairs;
}

TEST(GoldenAnalytic, AllRegimePairsProportional) {
  const auto pairs = regime_pairs_up_to_12();
  ASSERT_EQ(pairs.size(), 41u);
  for (const auto& [n, f] : pairs) {
    expect_equivalent(ProportionalAlgorithm(n, f), f);
  }
  // The deepest pair packs the most segments into a window: at window
  // 1024 (dense extent 4x that) the closed forms run 64x further than
  // the grid above and must still match bit for bit.
  expect_equivalent(ProportionalAlgorithm(12, 11), 11, 4096,
                    {.window_lo = 1, .window_hi = 1024});
}

TEST(GoldenAnalytic, AllRegimePairsBounded) {
  for (const auto& [n, f] : regime_pairs_up_to_12()) {
    // Barrier-mode analytic vs the dense bounded builder, at the bound.
    expect_equivalent(BoundedProportional(n, f, kExtent), f);
  }
}

TEST(GoldenAnalytic, BaselineStrategies) {
  for (const auto& [n, f] :
       {std::pair{2, 1}, {3, 1}, {4, 1}, {5, 2}, {6, 2}, {9, 4}}) {
    expect_equivalent(TwoGroupSplit(2 * f + 2, f), f);
    expect_equivalent(TwoGroupSplit(2 * f + 5, f), f);  // alternating extras
    expect_equivalent(GroupDoubling(n, f), f);
    expect_equivalent(ClassicCowPath(n, f, /*mirrored=*/false), f);
    expect_equivalent(ClassicCowPath(n, f, /*mirrored=*/true), f);
    expect_equivalent(StaggeredDoubling(n, f), f);
  }
  for (const auto& [n, f] : {std::pair{2, 1}, {3, 1}, {5, 2}, {9, 4}}) {
    expect_equivalent(UniformOffsetZigzag(n, f), f);  // regime-only
  }
}

TEST(GoldenAnalytic, PerturbedBetaSchedules) {
  for (const Real beta : {1.5L, 2.0L, 3.0L, 5.0L}) {
    expect_equivalent(ProportionalAlgorithm(5, 2, beta), 2);
    expect_equivalent(ProportionalAlgorithm(9, 4, beta), 4);
  }
}

TEST(GoldenAnalytic, UnboundedFleetHasUnboundedHorizonAndO1State) {
  const ProportionalAlgorithm algo(12, 11);
  const Fleet analytic = algo.build_unbounded_fleet();
  EXPECT_TRUE(analytic.unbounded());
  const Fleet dense = algo.build_fleet(kExtent);
  std::size_t analytic_bytes = 0;
  std::size_t dense_bytes = 0;
  for (RobotId id = 0; id < analytic.size(); ++id) {
    analytic_bytes += analytic.robot(id).source().footprint_bytes();
    dense_bytes += dense.robot(id).source().footprint_bytes();
  }
  EXPECT_LT(analytic_bytes, dense_bytes);
}

}  // namespace
}  // namespace linesearch
