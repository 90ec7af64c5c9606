#include "svc/query.hpp"

#include <charconv>
#include <cmath>
#include <iterator>
#include <optional>
#include <utility>

#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "eval/expectation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace linesearch::svc {
namespace {

/// QueryService's counter table, in Counter order.  svc.queries is
/// deterministic (one per canonicalized call); the rest depend on
/// arrival timing under concurrency, so the determinism tests filter
/// them out.
constexpr obs::CounterRow kCounterRows[] = {
    {"svc.queries", true},         {"svc.cache_hits", false},
    {"svc.coalesced", false},      {"svc.evaluations", false},
    {"svc.backend_builds", false}, {"svc.backend_hits", false},
    {"svc.evictions", false},
};

/// One fault regime as data.  The svc regimes differ in three ways
/// only — the fleet transform (identity or crash truncation), the order
/// statistic the budget selects (f, or 2f for a Byzantine quorum per
/// arXiv:1611.08209) and the probe aggregate (worst case, or the
/// p-faulty expectation per arXiv:2002.07797) — so every per-regime
/// decision below reads this row instead of switching on the regime.
struct RegimeRow {
  FaultRegime regime;
  const char* name;  ///< wire spelling
  /// Dense build at crash_extent, then truncate_at_crashes at the
  /// query's crash times; otherwise the shared unbounded analytic
  /// backend of (n, f, beta).
  bool truncate_dense;
  int budget_factor;  ///< order statistic at f (1) or 2f (2)
  bool require_finite;
  bool expectation;  ///< measure_expected_cr at fault_p, not measure_cr
  /// Byzantine quorum: an infeasible pair (n < 2f+1) or any undetected
  /// probe reports cr = kInfinity, argmax = 0.
  bool quorum;
};

constexpr RegimeRow kRegimeRows[] = {
    {FaultRegime::kNone, "none", false, 1, true, false, false},
    {FaultRegime::kByzantine, "byzantine", false, 2, false, false, true},
    {FaultRegime::kCrash, "crash", true, 1, false, false, false},
    {FaultRegime::kProbabilistic, "probabilistic", false, 1, false, true,
     false},
};
static_assert(std::size(kRegimeRows) == kFaultRegimeCount);
static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kRegimeRows); ++i) {
        if (kRegimeRows[i].regime != static_cast<FaultRegime>(i)) return false;
      }
      return true;
    }(),
    "kRegimeRows must follow FaultRegime's enumerator order");

const RegimeRow& row_of(const FaultRegime regime) {
  const auto index = static_cast<std::size_t>(regime);
  expects(index < std::size(kRegimeRows), "svc: unknown fault regime");
  return kRegimeRows[index];
}

/// Dense extent a truncating regime builds to: past the probe window, so
/// an uncrashed fleet never leaves a probe undetected and any inf in a
/// crash result comes from the crashes themselves.
Real crash_extent(const CrQuery& query) { return 4 * query.window_hi; }

/// The backend registry key: which immutable Fleet this query evaluates
/// against.  Analytic regimes share the unbounded backend of their
/// (strategy, n, f, beta); a truncating regime needs the dense build at
/// the window's extent (truncation interpolates real waypoints).
std::string backend_key(const CrQuery& canonical) {
  const bool dense = row_of(canonical.regime).truncate_dense;
  std::string key = dense ? "dense|" : "analytic|";
  key += std::to_string(canonical.n) + '|' + std::to_string(canonical.f) +
         '|' + encode_real_field(canonical.beta);
  if (dense) key += '|' + encode_real_field(crash_extent(canonical));
  return key;
}

Fleet build_backend(const CrQuery& canonical) {
  const ProportionalAlgorithm algorithm(canonical.n, canonical.f,
                                        canonical.beta);
  if (row_of(canonical.regime).truncate_dense) {
    return algorithm.build_fleet(crash_extent(canonical));
  }
  return algorithm.build_unbounded_fleet();
}

/// Measure `canonical` against its (shared or freshly built) backend.
/// This is the ONE evaluation body both the direct path and the service
/// run, so caching layers cannot change an answered bit by construction.
QueryResult evaluate_on_backend(const CrQuery& canonical,
                                const Fleet& backend) {
  const RegimeRow& row = row_of(canonical.regime);
  CrEvalOptions eval;
  eval.window_lo = canonical.window_lo;
  eval.window_hi = canonical.window_hi;
  eval.interior_samples = canonical.interior_samples;
  eval.require_finite = row.require_finite;
  std::optional<Fleet> truncated;
  if (row.truncate_dense) {
    truncated = truncate_at_crashes(backend, canonical.crash_times);
  }
  const Fleet& measured = truncated ? *truncated : backend;

  CrEvalResult scan;
  if (row.expectation) {
    ExpectationOptions expectation;
    expectation.p = canonical.fault_p;
    expectation.eval = eval;
    scan = measure_expected_cr(measured, expectation);
    LS_OBS_COUNT("svc.probabilistic_queries", 1);
  } else {
    scan = measure_cr(measured, row.budget_factor * canonical.f, eval);
  }

  QueryResult result;
  result.cr = scan.cr;
  result.argmax = scan.argmax;
  result.cr_positive = scan.cr_positive;
  result.cr_negative = scan.cr_negative;
  result.probes = scan.probes;
  result.undetected_probes = scan.undetected_probes;
  if (row.quorum) {
    result.feasible = static_cast<int>(measured.size()) >=
                      2 * canonical.f + 1;
    if (!result.feasible || scan.undetected_probes != 0) {
      result.cr = kInfinity;
      result.argmax = 0;
    }
  }
  return result;
}

}  // namespace

const char* fault_regime_name(const FaultRegime regime) {
  const auto index = static_cast<std::size_t>(regime);
  return index < std::size(kRegimeRows) ? kRegimeRows[index].name
                                        : "unknown";
}

FaultRegime fault_regime_from_name(const std::string& name) {
  for (const RegimeRow& row : kRegimeRows) {
    if (name == row.name) return row.regime;
  }
  // Only the error path builds the list; the wire parses one per request.
  std::string valid;
  for (const RegimeRow& row : kRegimeRows) valid.append(", ").append(row.name);
  throw PreconditionError("svc: unknown fault regime '" + name +
                          "' (valid: " + valid.substr(2) + ")");
}

CrQuery canonicalize_query(CrQuery query) {
  expects(query.f >= 1, "svc: query needs f >= 1");
  expects(in_proportional_regime(query.n, query.f),
          "svc: (n, f) outside the proportional regime f < n < 2f+2");
  expects(query.window_lo > 0, "svc: window_lo must be positive");
  expects(query.window_hi >= query.window_lo,
          "svc: window_hi must be >= window_lo");
  expects(std::isfinite(query.window_lo) && std::isfinite(query.window_hi),
          "svc: probe window must be finite");
  expects(query.interior_samples >= 0,
          "svc: interior_samples must be >= 0");
  if (std::isnan(query.beta)) {
    // Resolve the default so "optimal beta" and "explicit beta*(n, f)"
    // canonicalize to the same key (and the same shared backend).
    query.beta = optimal_beta(query.n, query.f);
  }
  expects(std::isfinite(query.beta) && query.beta > 1,
          "svc: beta must be finite and > 1");
  if (row_of(query.regime).truncate_dense) {
    expects(query.crash_times.size() ==
                static_cast<std::size_t>(query.n),
            "svc: crash regime needs one crash time per robot "
            "(kInfinity = healthy)");
    for (const Real t : query.crash_times) {
      expects(!std::isnan(t) && t >= 0,
              "svc: crash times must be >= 0 or kInfinity");
    }
  } else {
    expects(query.crash_times.empty(),
            "svc: crash_times only apply to the crash regime");
  }
  if (row_of(query.regime).expectation) {
    expects(query.fault_p >= 0 && query.fault_p < 1,
            "svc: probabilistic regime needs 0 <= fault_p < 1");
  } else {
    expects(query.fault_p == 0,
            "svc: fault_p only applies to the probabilistic regime");
  }
  return query;
}

std::string query_key(const CrQuery& query) {
  std::string key = fault_regime_name(query.regime);
  key += '|';
  key += std::to_string(query.n) + '|' + std::to_string(query.f) + '|' +
         encode_real_field(query.beta) + '|' +
         encode_real_field(query.window_lo) + '|' +
         encode_real_field(query.window_hi) + '|' +
         std::to_string(query.interior_samples) + '|' +
         encode_real_field(query.fault_p);
  for (const Real t : query.crash_times) {
    key += '|';
    key += encode_real_field(t);
  }
  return key;
}

std::size_t query_shard(const CrQuery& query,
                        const std::size_t shard_count) {
  expects(shard_count > 0, "svc: shard_count must be positive");
  // Deterministic spread over regime pairs: neighbouring grid pairs land
  // in different shards, every (beta, window) variant of one pair shares
  // its pair's shard.
  const std::size_t pair =
      static_cast<std::size_t>(query.n) * 31u +
      static_cast<std::size_t>(query.f);
  return pair % shard_count;
}

QueryResult evaluate_query_direct(const CrQuery& query) {
  LS_OBS_SPAN("svc.query.direct");
  const CrQuery canonical = canonicalize_query(query);
  const Fleet backend = build_backend(canonical);
  return evaluate_on_backend(canonical, backend);
}

QueryService::QueryService(QueryServiceOptions options)
    : options_(std::move(options)) {
  expects(options_.shard_count > 0, "svc: shard_count must be positive");
  expects(options_.shard_capacity > 0,
          "svc: shard_capacity must be positive");
  expects(options_.max_backends > 0, "svc: max_backends must be positive");
  shards_.reserve(options_.shard_count);
  for (std::size_t i = 0; i < options_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const Fleet> QueryService::backend_for(
    const CrQuery& canonical) {
  const std::string key = backend_key(canonical);
  const std::lock_guard<std::mutex> lock(backends_mutex_);
  const auto it = backends_.find(key);
  if (it != backends_.end()) {
    bump(kBackendHits);
    return it->second;
  }
  // Bound the registry: evict the oldest registration.  In-use fleets
  // stay alive through their shared_ptr; eviction only drops the shared
  // slot, never an object under a running evaluation.
  if (backends_.size() >= options_.max_backends) {
    backends_.erase(backend_order_.front());
    backend_order_.pop_front();
  }
  auto backend = std::make_shared<const Fleet>(build_backend(canonical));
  backends_.emplace(key, backend);
  backend_order_.push_back(key);
  bump(kBackendBuilds);
  return backend;
}

QueryResult QueryService::compute(const CrQuery& canonical) {
  LS_OBS_SPAN("svc.query.compute");
  const std::shared_ptr<const Fleet> backend = backend_for(canonical);
  bump(kEvaluations);
  return evaluate_on_backend(canonical, *backend);
}

bool QueryService::cache_lookup(const std::size_t shard_index,
                                const std::string& key, QueryResult& out) {
  Shard& shard = *shards_[shard_index];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.by_key.find(key);
  if (it == shard.by_key.end()) return false;
  // Touch: move to the MRU end.
  shard.order.splice(shard.order.begin(), shard.order, it->second);
  out = it->second->second;
  return true;
}

void QueryService::cache_store(const std::size_t shard_index,
                               const std::string& key,
                               const QueryResult& result) {
  Shard& shard = *shards_[shard_index];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.by_key.find(key);
  if (it != shard.by_key.end()) {
    // A coalescing race can store the same key twice; both values are
    // value-identical by the determinism contract, keep the first.
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return;
  }
  if (shard.order.size() >= options_.shard_capacity) {
    shard.by_key.erase(shard.order.back().first);
    shard.order.pop_back();
    bump(kEvictions);
  }
  shard.order.emplace_front(key, result);
  shard.by_key.emplace(key, shard.order.begin());
}

QueryResult QueryService::evaluate(const CrQuery& query) {
  const CrQuery canonical = canonicalize_query(query);
  const std::string key = query_key(canonical);
  const std::size_t shard_index =
      query_shard(canonical, options_.shard_count);
  bump(kQueries);

  QueryResult cached;
  if (options_.cache_results && cache_lookup(shard_index, key, cached)) {
    bump(kCacheHits);
    return cached;
  }

  std::promise<QueryResult> leader;
  if (options_.coalesce) {
    std::shared_future<QueryResult> pending;
    {
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      const auto [it, fresh] = inflight_.try_emplace(key);
      if (fresh) {
        it->second = leader.get_future().share();
      } else {
        pending = it->second;
      }
    }
    if (pending.valid()) {
      bump(kCoalesced);
      return pending.get();  // the leader's result, or its very exception
    }
  }

  QueryResult result;
  std::exception_ptr error;
  try {
    result = compute(canonical);
  } catch (...) {
    error = std::current_exception();
  }
  if (!error && options_.cache_results) {
    cache_store(shard_index, key, result);
  }
  if (options_.coalesce) {
    {
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(key);
    }
    if (error) {
      leader.set_exception(error);
    } else {
      leader.set_value(result);
    }
  }
  if (error) std::rethrow_exception(error);
  return result;
}

void QueryService::bump(const Counter counter) {
  static_assert(std::size(kCounterRows) == kCounterCount &&
                sizeof(Stats) == kCounterCount * sizeof(std::uint64_t));
  counters_[counter].fetch_add(1, std::memory_order_relaxed);
  static const auto ids = obs::register_counters(kCounterRows);
  obs::count(ids[counter]);
}

QueryService::Stats QueryService::stats() const {
  const auto load = [this](const Counter counter) {
    return counters_[counter].load(std::memory_order_relaxed);
  };
  return {.queries = load(kQueries),
          .cache_hits = load(kCacheHits),
          .coalesced = load(kCoalesced),
          .evaluations = load(kEvaluations),
          .backend_builds = load(kBackendBuilds),
          .backend_hits = load(kBackendHits),
          .evictions = load(kEvictions)};
}

std::size_t QueryService::backend_count() const {
  const std::lock_guard<std::mutex> lock(backends_mutex_);
  return backends_.size();
}

namespace {

/// Recompute a cached key's shard from its embedded regime pair: keys
/// spell "regime|n|f|..." (query_key), so the pair survives a snapshot
/// round trip under any shard_count.
std::size_t shard_of_key(const std::string& key,
                         const std::size_t shard_count) {
  const std::size_t first = key.find('|');
  const std::size_t second =
      first == std::string::npos ? first : key.find('|', first + 1);
  const std::size_t third =
      second == std::string::npos ? second : key.find('|', second + 1);
  expects(third != std::string::npos,
          "svc: cache key missing regime-pair fields: " + key);
  int n = 0;
  int f = 0;
  const char* n_begin = key.data() + first + 1;
  const char* n_end = key.data() + second;
  const char* f_begin = key.data() + second + 1;
  const char* f_end = key.data() + third;
  const auto n_parsed = std::from_chars(n_begin, n_end, n);
  const auto f_parsed = std::from_chars(f_begin, f_end, f);
  expects(n_parsed.ec == std::errc{} && n_parsed.ptr == n_end &&
              f_parsed.ec == std::errc{} && f_parsed.ptr == f_end &&
              n > 0 && f > 0,
          "svc: cache key regime pair does not parse: " + key);
  const std::size_t pair = static_cast<std::size_t>(n) * 31u +
                           static_cast<std::size_t>(f);
  return pair % shard_count;
}

}  // namespace

std::vector<QueryService::CacheEntry> QueryService::export_cache() const {
  std::vector<CacheEntry> entries;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, result] : shard->order) {
      entries.push_back(CacheEntry{key, result});
    }
  }
  return entries;
}

std::size_t QueryService::import_cache(const std::vector<CacheEntry>& entries) {
  // Validate every key BEFORE touching the cache: a rejected import
  // leaves the service exactly as it was (cold, not half-warm).
  std::vector<std::size_t> shards;
  shards.reserve(entries.size());
  for (const CacheEntry& entry : entries) {
    shards.push_back(shard_of_key(entry.key, options_.shard_count));
  }
  // LRU-first replay: cache_store fronts each key, so the exported
  // recency order (MRU first) is restored by inserting in reverse.
  for (std::size_t i = entries.size(); i-- > 0;) {
    cache_store(shards[i], entries[i].key, entries[i].result);
  }
  return entries.size();
}

std::size_t QueryService::cached_count() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->order.size();
  }
  return total;
}

void QueryService::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->order.clear();
    shard->by_key.clear();
  }
  const std::lock_guard<std::mutex> lock(backends_mutex_);
  backends_.clear();
  backend_order_.clear();
}

}  // namespace linesearch::svc
