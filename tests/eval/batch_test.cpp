// Tests for eval/batch.hpp — the parallel batched CR engine.  The load-bearing property is DETERMINISM: any
// thread count must reproduce the serial path bit-for-bit.
#include "eval/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "core/baselines.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace linesearch {
namespace {

/// RAII guard that sets LINESEARCH_THREADS and restores it on exit.
class ThreadsEnvGuard {
 public:
  explicit ThreadsEnvGuard(const char* value) {
    const char* old = std::getenv("LINESEARCH_THREADS");
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    setenv("LINESEARCH_THREADS", value, 1);
  }
  ~ThreadsEnvGuard() {
    if (had_value_) {
      setenv("LINESEARCH_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("LINESEARCH_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

/// Value-exact equality for Real: same value, same zero sign, NaN equals
/// NaN.  (A raw memcmp would compare the x87 long double's padding
/// bytes, which are indeterminate.)
bool bit_identical(const Real a, const Real b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b && std::signbit(a) == std::signbit(b);
}

/// Every CrEvalResult field, bitwise.
bool same_result(const CrEvalResult& a, const CrEvalResult& b) {
  return bit_identical(a.cr, b.cr) && bit_identical(a.argmax, b.argmax) &&
         a.probes == b.probes && bit_identical(a.cr_positive, b.cr_positive) &&
         bit_identical(a.cr_negative, b.cr_negative) &&
         a.undetected_probes == b.undetected_probes;
}

std::vector<CrBatchJob> table1_style_jobs(const Fleet& fleet, const int n) {
  std::vector<CrBatchJob> jobs;
  for (int f = 0; f < n; ++f) {
    jobs.push_back({&fleet, f, {.window_hi = 24}});
  }
  return jobs;
}

TEST(MeasureCrBatch, MatchesSerialMeasureCrExactly) {
  const ProportionalAlgorithm algo(5, 3);
  const Fleet fleet = algo.build_fleet(1000);
  const std::vector<CrBatchJob> jobs = table1_style_jobs(fleet, 5);

  const std::vector<CrEvalResult> batched =
      measure_cr_batch(jobs, {.threads = 8});
  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CrEvalResult serial =
        measure_cr(*jobs[i].fleet, jobs[i].f, jobs[i].options);
    EXPECT_TRUE(bit_identical(batched[i].cr, serial.cr)) << "job " << i;
    EXPECT_TRUE(bit_identical(batched[i].argmax, serial.argmax))
        << "job " << i;
    EXPECT_EQ(batched[i].probes, serial.probes);
    EXPECT_EQ(batched[i].undetected_probes, serial.undetected_probes);
  }
}

TEST(MeasureCrBatch, EnvThreadCountsAreBitIdentical) {
  // The ISSUE-mandated determinism check: LINESEARCH_THREADS=1 and =8
  // produce bit-identical cr / argmax for the whole batch.
  const ProportionalAlgorithm algo(7, 4);
  const Fleet fleet = algo.build_fleet(800);
  const std::vector<CrBatchJob> jobs = table1_style_jobs(fleet, 7);

  std::vector<CrEvalResult> one;
  {
    const ThreadsEnvGuard env("1");
    one = measure_cr_batch(jobs);  // threads = 0 -> env
  }
  std::vector<CrEvalResult> eight;
  {
    const ThreadsEnvGuard env("8");
    eight = measure_cr_batch(jobs);
  }
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(bit_identical(one[i].cr, eight[i].cr)) << "job " << i;
    EXPECT_TRUE(bit_identical(one[i].argmax, eight[i].argmax))
        << "job " << i;
  }
}

TEST(MeasureCrBatch, FaultBudgetConvenienceOverload) {
  const ProportionalAlgorithm algo(3, 1);
  const Fleet fleet = algo.build_fleet(500);
  const std::vector<CrEvalResult> results =
      measure_cr_batch(fleet, {0, 1, 2}, {.window_hi = 16});
  ASSERT_EQ(results.size(), 3u);
  // More faults -> larger measured CR (order statistic grows with f).
  EXPECT_LE(results[0].cr, results[1].cr);
  EXPECT_LE(results[1].cr, results[2].cr);
}

TEST(MeasureCrBatch, RejectsNullFleet) {
  EXPECT_THROW((void)measure_cr_batch({CrBatchJob{}}), PreconditionError);
}

TEST(MeasureCrBatch, PropagatesUndetectedErrors) {
  // require_finite jobs throw through the parallel loop like the serial
  // path does.
  const ProportionalAlgorithm algo(3, 1);
  const Fleet fleet = algo.build_fleet(4);
  const std::vector<CrBatchJob> jobs{
      {&fleet, 1, {.window_hi = 4096, .require_finite = true}}};
  EXPECT_THROW((void)measure_cr_batch(jobs, {.threads = 4}), NumericError);
}

TEST(KProfileBatch, MatchesSerialKProfile) {
  const ProportionalAlgorithm algo(3, 1);
  const Fleet fleet = algo.build_fleet(400);
  std::vector<Real> positions;
  for (int i = 1; i <= 200; ++i) {
    positions.push_back(0.25L * static_cast<Real>(i) *
                        (i % 2 == 0 ? 1 : -1));
  }
  const std::vector<Real> serial = k_profile(fleet, 1, positions);
  const std::vector<Real> batched =
      k_profile_batch(fleet, 1, positions, {.threads = 8});
  ASSERT_EQ(serial.size(), batched.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bit_identical(serial[i], batched[i])) << "position " << i;
  }
}

TEST(MeasureCrBatch, EmptyJobListYieldsEmptyResults) {
  EXPECT_TRUE(measure_cr_batch({}).empty());
  EXPECT_TRUE(measure_cr_batch({}, {.threads = 8}).empty());
}

TEST(MeasureCrBatch, MoreThreadsThanJobsStaysBitIdentical) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  std::vector<CrBatchJob> jobs = {{&fleet, 0, {.window_hi = 16}},
                                  {&fleet, 1, {.window_hi = 16}}};
  const std::vector<CrEvalResult> serial =
      measure_cr_batch(jobs, {.threads = 1});
  for (const int threads : {4, 16, 64}) {
    const std::vector<CrEvalResult> parallel =
        measure_cr_batch(jobs, {.threads = threads});
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(bit_identical(parallel[i].cr, serial[i].cr));
      EXPECT_TRUE(bit_identical(parallel[i].argmax, serial[i].argmax));
      EXPECT_EQ(parallel[i].probes, serial[i].probes);
    }
  }
}

TEST(KProfileBatch, EmptyPositionsYieldEmptyProfile) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  EXPECT_TRUE(k_profile_batch(fleet, 1, {}).empty());
  EXPECT_TRUE(k_profile_batch(fleet, 1, {}, {.threads = 8}).empty());
}

TEST(MeasureCrBatch, GridSweepShapeMatchesSerialAtEveryThreadCount) {
  // The offline Theorem-1 sweep shape: several regime pairs, one dense
  // fleet per pair built to 4x its widest window, three windows in
  // [256, 4096] per pair, every job over its pair's shared fleet.
  const std::vector<std::pair<int, int>> pairs = {
      {2, 1}, {3, 1}, {5, 2}, {7, 4}, {12, 11}};
  const std::vector<Real> windows = {256, 1000, 4096, 300, 2048, 777};
  std::vector<Fleet> fleets;
  std::vector<CrBatchJob> jobs;
  fleets.reserve(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    Real widest = 0;
    for (std::size_t w = 0; w < 3; ++w) {
      widest = std::max(widest, windows[(p + w) % windows.size()]);
    }
    fleets.push_back(ProportionalAlgorithm(pairs[p].first, pairs[p].second)
                         .build_fleet(4 * widest));
  }
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (std::size_t w = 0; w < 3; ++w) {
      jobs.push_back({&fleets[p],
                      pairs[p].second,
                      {.window_hi = windows[(p + w) % windows.size()]}});
    }
  }
  std::vector<CrEvalResult> serial;
  for (const CrBatchJob& job : jobs) {
    serial.push_back(measure_cr(*job.fleet, job.f, job.options));
  }
  for (const int threads : {1, 2, 4, 8}) {
    const std::vector<CrEvalResult> batched =
        measure_cr_batch(jobs, {.threads = threads});
    ASSERT_EQ(batched.size(), serial.size()) << "threads " << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(same_result(batched[i], serial[i]))
          << "threads " << threads << " job " << i;
    }
  }
}

TEST(KProfileBatch, MatchesKProfileOnSignedAndRepeatedPositions) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(400);
  std::vector<Real> positions;
  for (int i = 1; i <= 60; ++i) {
    const Real x = 1 + 0.37L * static_cast<Real>(i % 23);
    positions.push_back(x);
    positions.push_back(-x);
  }
  positions.push_back(positions.front());  // exact repeats, both signs
  positions.push_back(positions[1]);
  const std::vector<Real> serial = k_profile(fleet, 2, positions);
  for (const int threads : {1, 2, 4, 8}) {
    const std::vector<Real> batched =
        k_profile_batch(fleet, 2, positions, {.threads = threads});
    ASSERT_EQ(batched.size(), serial.size()) << "threads " << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(bit_identical(batched[i], serial[i]))
          << "threads " << threads << " position " << i;
    }
    EXPECT_TRUE(k_profile_batch(fleet, 2, {}, {.threads = threads}).empty());
  }
  EXPECT_TRUE(k_profile(fleet, 2, {}).empty());
}

}  // namespace
}  // namespace linesearch
