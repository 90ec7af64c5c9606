// svc/query: canonicalization, keys, sharding, and the QueryService
// determinism contract — every cache configuration, thread count, and
// arrival order returns results value_identical to
// evaluate_query_direct.  This file (and server_test.cpp) carries the
// ctest label `svc`, so the ThreadSanitizer CI job can select exactly
// the concurrency proofs.
#include "svc/query.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/competitive.hpp"
#include "eval/validation.hpp"
#include "util/error.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace svc {
namespace {

using verify::value_identical;

bool same_result(const QueryResult& a, const QueryResult& b) {
  return a.feasible == b.feasible && value_identical(a.cr, b.cr) &&
         value_identical(a.argmax, b.argmax) &&
         value_identical(a.cr_positive, b.cr_positive) &&
         value_identical(a.cr_negative, b.cr_negative) &&
         a.probes == b.probes &&
         a.undetected_probes == b.undetected_probes;
}

CrQuery pair_query(const int n, const int f, const Real window_hi = 16) {
  CrQuery query;
  query.n = n;
  query.f = f;
  query.window_hi = window_hi;
  return query;
}

TEST(CrQueryCanonicalize, ResolvesDefaultBetaToTheOptimal) {
  const CrQuery canonical = canonicalize_query(pair_query(5, 2));
  EXPECT_TRUE(value_identical(canonical.beta, optimal_beta(5, 2)));

  // "default beta" and "explicitly optimal beta" are the SAME canonical
  // query — one cache entry, one backend.
  CrQuery explicit_beta = pair_query(5, 2);
  explicit_beta.beta = optimal_beta(5, 2);
  EXPECT_EQ(query_key(canonical),
            query_key(canonicalize_query(explicit_beta)));
}

TEST(CrQueryCanonicalize, RejectsInvalidInput) {
  EXPECT_THROW((void)canonicalize_query(pair_query(3, 0)),
               PreconditionError);
  // Outside the proportional regime: n >= 2f+2.
  EXPECT_THROW((void)canonicalize_query(pair_query(4, 1)),
               PreconditionError);
  CrQuery bad_window = pair_query(3, 1);
  bad_window.window_lo = 8;
  bad_window.window_hi = 2;
  EXPECT_THROW((void)canonicalize_query(bad_window), PreconditionError);
  CrQuery bad_beta = pair_query(3, 1);
  bad_beta.beta = 1;  // cone parameter must exceed 1
  EXPECT_THROW((void)canonicalize_query(bad_beta), PreconditionError);
  // Crash regime demands a full per-robot schedule...
  CrQuery crash = pair_query(3, 1);
  crash.regime = FaultRegime::kCrash;
  crash.crash_times = {1.0L, 2.0L};  // size 2 != n = 3
  EXPECT_THROW((void)canonicalize_query(crash), PreconditionError);
  // ...and the other regimes demand none.
  CrQuery stray = pair_query(3, 1);
  stray.crash_times = {1.0L, 2.0L, 3.0L};
  EXPECT_THROW((void)canonicalize_query(stray), PreconditionError);
}

TEST(CrQueryKey, SeparatesEveryField) {
  const std::string base = query_key(canonicalize_query(pair_query(5, 2)));
  EXPECT_NE(base, query_key(canonicalize_query(pair_query(4, 2))));
  EXPECT_NE(base, query_key(canonicalize_query(pair_query(5, 3))));
  EXPECT_NE(base,
            query_key(canonicalize_query(pair_query(5, 2, 32))));
  CrQuery byz = pair_query(5, 2);
  byz.regime = FaultRegime::kByzantine;
  EXPECT_NE(base, query_key(canonicalize_query(byz)));
  CrQuery crash = pair_query(5, 2);
  crash.regime = FaultRegime::kCrash;
  crash.crash_times = {kInfinity, 3.0L, kInfinity, kInfinity, kInfinity};
  EXPECT_NE(base, query_key(canonicalize_query(crash)));
}

TEST(CrQueryShard, KeysByRegimePairWithinBounds) {
  const CrQuery a = canonicalize_query(pair_query(5, 2));
  const CrQuery b = canonicalize_query(pair_query(5, 2, 32));
  for (const std::size_t shards : {1u, 2u, 8u}) {
    EXPECT_LT(query_shard(a, shards), shards);
    // Same regime pair, different window: same shard.
    EXPECT_EQ(query_shard(a, shards), query_shard(b, shards));
  }
}

TEST(FaultRegimeName, RoundTripsEveryRegimeAndListsThemOnError) {
  // The regime table's wire spellings, in FaultRegime order.
  const char* const names[] = {"none", "byzantine", "crash",
                               "probabilistic"};
  ASSERT_EQ(std::size(names), kFaultRegimeCount);
  for (std::size_t i = 0; i < kFaultRegimeCount; ++i) {
    const auto regime = static_cast<FaultRegime>(i);
    EXPECT_STREQ(fault_regime_name(regime), names[i]);
    EXPECT_EQ(fault_regime_from_name(names[i]), regime);
  }
  try {
    (void)fault_regime_from_name("lying");
    FAIL() << "an unknown regime name must throw";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what())
                  .find("unknown fault regime 'lying' (valid: none, "
                        "byzantine, crash, probabilistic)"),
              std::string::npos)
        << error.what();
  }
}

TEST(QueryResultDirect, ByzantineInfeasibleBelowQuorum) {
  // n = 4 < 2f+1 = 5: no quorum can form, cr = inf over the wire.
  CrQuery query = pair_query(4, 2);
  query.regime = FaultRegime::kByzantine;
  const QueryResult result = evaluate_query_direct(query);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(std::isinf(result.cr));

  CrQuery feasible = pair_query(5, 2);
  feasible.regime = FaultRegime::kByzantine;
  const QueryResult ok = evaluate_query_direct(feasible);
  EXPECT_TRUE(ok.feasible);
}

TEST(QueryService, LruEvictsInRecencyOrder) {
  // One shard, capacity two: the LRU order is fully observable through
  // the evaluations counter (a hit never recomputes).
  QueryServiceOptions options;
  options.shard_count = 1;
  options.shard_capacity = 2;
  options.coalesce = false;
  QueryService service(options);

  const CrQuery a = pair_query(3, 1, 8);
  const CrQuery b = pair_query(3, 1, 12);
  const CrQuery c = pair_query(3, 1, 16);

  (void)service.evaluate(a);  // order: a
  (void)service.evaluate(b);  // order: b a
  (void)service.evaluate(a);  // HIT, order: a b
  EXPECT_EQ(service.stats().cache_hits, 1u);
  (void)service.evaluate(c);  // evicts b (LRU), order: c a
  EXPECT_EQ(service.stats().evictions, 1u);

  (void)service.evaluate(a);  // still resident — the touch saved it
  EXPECT_EQ(service.stats().cache_hits, 2u);
  (void)service.evaluate(b);  // evicted: recomputes
  EXPECT_EQ(service.stats().cache_hits, 2u);
  EXPECT_EQ(service.stats().evaluations, 4u);
}

TEST(QueryService, ShardsEvictIndependently) {
  // Pairs (2, 1) and (3, 1) land on different shards of a 2-shard
  // layout ((n * 31 + f) mod 2 differs), so filling one pair's shard
  // never displaces the other's hot entry.
  QueryServiceOptions options;
  options.shard_count = 2;
  options.shard_capacity = 1;
  options.coalesce = false;
  QueryService service(options);
  ASSERT_NE(query_shard(canonicalize_query(pair_query(2, 1)), 2),
            query_shard(canonicalize_query(pair_query(3, 1)), 2));

  (void)service.evaluate(pair_query(2, 1, 8));
  (void)service.evaluate(pair_query(3, 1, 8));
  (void)service.evaluate(pair_query(3, 1, 12));  // evicts (3,1,8) only
  EXPECT_EQ(service.stats().evictions, 1u);
  (void)service.evaluate(pair_query(2, 1, 8));  // survived its neighbour
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(QueryService, SharesOneBackendAcrossWindows) {
  QueryService service;
  (void)service.evaluate(pair_query(5, 2, 8));
  (void)service.evaluate(pair_query(5, 2, 16));
  (void)service.evaluate(pair_query(5, 2, 32));
  EXPECT_EQ(service.backend_count(), 1u);
  EXPECT_EQ(service.stats().backend_builds, 1u);
  EXPECT_EQ(service.stats().backend_hits, 2u);

  service.clear();
  EXPECT_EQ(service.backend_count(), 0u);
  // Counters keep their totals across clear().
  EXPECT_EQ(service.stats().backend_builds, 1u);
}

TEST(QueryService, CacheOnAndOffAreBitIdentical) {
  QueryServiceOptions cold;
  cold.cache_results = false;
  QueryService uncached(cold);
  QueryService cached;
  for (const auto& [n, f] : proportional_regime_pairs(8)) {
    const CrQuery query = pair_query(n, f);
    const QueryResult direct = evaluate_query_direct(query);
    const QueryResult off = uncached.evaluate(query);
    const QueryResult on_cold = cached.evaluate(query);
    const QueryResult on_warm = cached.evaluate(query);
    EXPECT_TRUE(same_result(direct, off)) << "n=" << n << " f=" << f;
    EXPECT_TRUE(same_result(direct, on_cold)) << "n=" << n << " f=" << f;
    EXPECT_TRUE(same_result(direct, on_warm)) << "n=" << n << " f=" << f;
  }
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
  EXPECT_GT(cached.stats().cache_hits, 0u);
}

// The concurrency proof: T threads race the same query mix through one
// service; every answer must be value_identical to the direct path no
// matter who computed, who coalesced, and who hit the cache.  Run under
// TSAN via `ctest -L svc`.
void race_threads(const int threads, const bool cache) {
  QueryServiceOptions options;
  options.cache_results = cache;
  QueryService service(options);

  const std::vector<CrQuery> queries = {
      pair_query(3, 1), pair_query(5, 2), pair_query(7, 3),
      []() {
        CrQuery q = pair_query(5, 2);
        q.regime = FaultRegime::kByzantine;
        return q;
      }(),
      []() {
        CrQuery q = pair_query(3, 1);
        q.regime = FaultRegime::kCrash;
        q.crash_times = {2.0L, kInfinity, kInfinity};
        return q;
      }(),
  };
  std::vector<QueryResult> expected;
  expected.reserve(queries.size());
  for (const CrQuery& query : queries) {
    expected.push_back(evaluate_query_direct(query));
  }

  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&service, &queries, &expected, &mismatches, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          // Stagger starting points so threads collide on different
          // queries, exercising coalescing and cache paths together.
          const std::size_t j =
              (i + static_cast<std::size_t>(t)) % queries.size();
          const QueryResult result = service.evaluate(queries[j]);
          if (!same_result(result, expected[j])) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);

  const QueryService::Stats stats = service.stats();
  const std::uint64_t total = static_cast<std::uint64_t>(threads) *
                              kRounds * queries.size();
  EXPECT_EQ(stats.queries, total);
  if (cache) {
    // Every query is answered exactly one way.
    EXPECT_EQ(stats.cache_hits + stats.coalesced + stats.evaluations,
              total);
  } else {
    // No cache: every call either computed or coalesced with the leader.
    EXPECT_EQ(stats.coalesced + stats.evaluations, total);
  }
}

TEST(QueryService, OneThreadIsExact) { race_threads(1, true); }
TEST(QueryService, TwoThreadsAreExact) { race_threads(2, true); }
TEST(QueryService, EightThreadsAreExact) { race_threads(8, true); }
TEST(QueryService, EightThreadsUncachedAreExact) { race_threads(8, false); }

TEST(QueryService, CoalescingAccountsEveryCall) {
  // Sequential calls never coalesce (nothing is in flight), so the
  // counter partition is exact and deterministic here.
  QueryServiceOptions options;
  options.cache_results = false;
  QueryService service(options);
  for (int i = 0; i < 3; ++i) (void)service.evaluate(pair_query(3, 1));
  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.evaluations, 3u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST(QueryService, InvalidQueriesThrowWithoutCounting) {
  QueryService service;
  EXPECT_THROW((void)service.evaluate(pair_query(4, 1)),
               PreconditionError);
  EXPECT_EQ(service.stats().queries, 0u);
}

}  // namespace
}  // namespace svc
}  // namespace linesearch
