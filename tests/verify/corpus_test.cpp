// Fixed-seed fuzz corpus — the ctest face of tools/fuzz_main.
//
// 100+ deterministic instances spanning every generator row run every
// invariant oracle and every differential engine (serial vs 2 vs 8
// threads bit-identical among them), and the run reports which checks
// it reached so none can drop out unnoticed.  The corpus is pinned: seeds
// [1, 120] never change, so a failure here is a regression, not flake,
// and `tools/fuzz_main --seed S` replays it exactly.  The CI sanitizer
// matrix (ASan/UBSan) selects this binary via `ctest -L fuzz`.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "verify/fuzz.hpp"

namespace linesearch {
namespace verify {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
constexpr int kCorpusSize = 120;

TEST(FuzzCorpus, AllFixedSeedsPassEveryOracle) {
  const CorpusReport report = run_corpus(kFirstSeed, kCorpusSize);
  EXPECT_EQ(report.total, kCorpusSize);
  // Every invariant oracle and differential engine the corpus must
  // reach: a check that silently stops running fails here.
  const std::set<std::string> expected_checks = {
      // verify/invariants
      "byzantine_bounds", "coverage", "detection_order_statistics",
      "fault_monotone_cr", "first_visit_monotonicity", "kinematics",
      "lemma1_cone_containment", "lemma2_proportional_structure",
      "probabilistic_monotone", "theorem1_closed_form",
      "theorem2_lower_bound_dominance",
      // verify/differential
      "batch_threads", "byzantine", "chaos_vs_library", "crash_injected",
      "dense_vs_analytic", "exact_vs_grid", "expectation_vs_montecarlo",
      "probe_vs_exact", "sweep_vs_direct"};
  EXPECT_EQ(report.checks, expected_checks);
  if (report.failed != 0) {
    std::string seeds;
    for (const std::uint64_t seed : report.failing_seeds) {
      seeds += ' ' + std::to_string(seed);
    }
    FAIL() << report.failed << " corpus seeds failed:" << seeds
           << "\nreplay with: tools/fuzz_main --seed <S>";
  }
}

TEST(FuzzCorpus, InjectedCorpusAlwaysFailsAndShrinks) {
  // Every cone-claiming seed in a small injected corpus must (a) fail
  // the cone oracle and (b) shrink to the documented minimal shape.
  int injected = 0;
  for (std::uint64_t seed = kFirstSeed; injected < 10; ++seed) {
    FuzzInstance instance = generate_instance(seed);
    if (instance.shape == Shape::kClassicCowPath) continue;
    instance.injection = Injection::kConeEscape;
    const FuzzOutcome outcome = run_instance(instance);
    ASSERT_FALSE(outcome.ok()) << "seed " << seed;
    EXPECT_EQ(outcome.primary_failure(), "lemma1_cone_containment")
        << "seed " << seed;

    const ShrinkResult shrunk = shrink_instance(instance);
    EXPECT_LE(shrunk.instance.n, 3) << "seed " << seed;
    const Fleet fleet = build_fuzz_fleet(shrunk.instance);
    EXPECT_LE(fleet.robot(0).segment_count(), 4u) << "seed " << seed;
    ++injected;
  }
}

}  // namespace
}  // namespace verify
}  // namespace linesearch
