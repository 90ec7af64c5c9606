// obs/metrics.hpp — deterministic, lock-free-on-the-hot-path metrics.
//
// The library's hot loops (probe scans, analytic visit sweeps and
// window queries) each record a handful of integer events per iteration.
// The design goal is that recording an event costs one relaxed atomic add
// on a THREAD-LOCAL cache line — no shared counters, no locks, no
// contention — while the aggregate read back out is BIT-IDENTICAL for any
// LINESEARCH_THREADS setting.  Determinism falls out of the value model:
// every metric is an unsigned 64-bit integer merged with a commutative,
// associative reduction (sum for counters and histogram buckets, max for
// gauges), so the partition of increments across workers cannot affect
// the total.  Wall-clock quantities (span durations, see obs/trace.hpp)
// are the one exception and are flagged `deterministic = false` so tests
// and exporters can filter them.
//
// Structure: a process-wide Registry interns metric definitions (name,
// type, histogram bounds) and hands out dense MetricIds; each thread that
// records anything lazily registers one Sink — a fixed array of relaxed
// atomics indexed by slot.  Registration takes a mutex (once per call
// site thanks to function-local statics in the macros below); recording
// touches only the thread's own sink.  snapshot() folds all sinks under
// the registration mutex; it is intended for quiescent points (after a
// parallel region has joined), which is when its values are exact.
//
// Compile-time switch: building with LINESEARCH_OBS=OFF (CMake) defines
// LINESEARCH_OBS_ENABLED=0, which turns every LS_OBS_* macro and every
// inline helper below into a no-op — the instrumented hot paths compile
// to exactly the code they were before instrumentation.  The Registry
// API itself stays available (snapshot() just reports nothing) so tools
// and tests link unchanged in both modes.
#pragma once

#ifndef LINESEARCH_OBS_ENABLED
#define LINESEARCH_OBS_ENABLED 1
#endif

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace linesearch::obs {

/// True when the layer is compiled in (LINESEARCH_OBS=ON, the default).
inline constexpr bool kEnabled = LINESEARCH_OBS_ENABLED != 0;

/// Dense handle of a registered metric.
using MetricId = std::uint32_t;

enum class MetricType { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* metric_type_name(MetricType type) noexcept;

/// One metric folded out of all sinks.  Counters/gauges use `value`;
/// histograms use `count`/`sum`/`buckets` (buckets has bounds.size() + 1
/// entries, the last being the overflow bucket).
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  bool deterministic = true;
  std::uint64_t value = 0;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;
};

/// Process-wide metric registry + per-thread sinks.
class Registry {
 public:
  /// Capacity of one thread sink, in u64 slots.  A counter or gauge uses
  /// one slot, a histogram bounds.size() + 3 (buckets + overflow + count
  /// + sum); registration past the capacity throws.
  static constexpr std::size_t kMaxSlots = 4096;

  [[nodiscard]] static Registry& instance();

  /// Register (or look up) a counter.  Re-registration with the same name
  /// must agree on type and determinism.  `deterministic = false` marks
  /// wall-clock counters (span nanoseconds) that aggregate reproducibly
  /// in COUNT but not in value.
  MetricId counter(std::string_view name, bool deterministic = true);

  /// Register (or look up) a gauge (merge = max over all recordings).
  /// `deterministic = false` marks scheduling-dependent gauges (e.g. the
  /// service queue-depth high-water mark).
  MetricId gauge(std::string_view name, bool deterministic = true);

  /// Register (or look up) a histogram over fixed inclusive upper bounds
  /// (strictly increasing, non-empty); values above the last bound land
  /// in the overflow bucket.  `deterministic = false` marks wall-clock
  /// histograms (e.g. the service latency distribution).
  MetricId histogram(std::string_view name,
                     std::vector<std::uint64_t> bounds,
                     bool deterministic = true);

  /// Hot path: add `delta` to a counter (relaxed, thread-local).
  void add(MetricId id, std::uint64_t delta = 1);

  /// Hot path: raise a gauge to at least `value`.
  void gauge_to(MetricId id, std::uint64_t value);

  /// Hot path: record one histogram observation.
  void observe(MetricId id, std::uint64_t value);

  /// Slow path for dynamically named counters (e.g. per-fuzz-kind):
  /// registers on first use, then adds.  Takes the registry mutex.
  void add_named(std::string_view name, std::uint64_t delta = 1);

  /// Fold every sink into per-metric totals, sorted by name.  Exact when
  /// no other thread is concurrently recording (quiescent points).
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Zero every slot of every sink (test isolation between scenarios).
  /// Definitions stay registered.
  void reset() noexcept;

  /// Number of registered metrics (0 when the layer is compiled out and
  /// nothing registered explicitly).
  [[nodiscard]] std::size_t size() const;

  /// Maximum number of registered metrics / histogram bounds; both are
  /// fixed so the hot-path definition table never reallocates under a
  /// concurrent reader.
  static constexpr std::size_t kMaxMetrics = 512;
  static constexpr std::size_t kMaxHistogramBounds = 16;

  struct Sink {
    std::array<std::atomic<std::uint64_t>, kMaxSlots> slots{};
  };

 private:
  /// Cold (registration/snapshot-side) definition.
  struct MetricDef {
    std::string name;
    MetricType type = MetricType::kCounter;
    bool deterministic = true;
    std::vector<std::uint64_t> bounds;
    std::uint32_t first_slot = 0;
    std::uint32_t slots = 1;
  };

  /// Hot-path view, written exactly once (under the mutex) BEFORE the
  /// MetricId is handed out; ids only reach other threads through
  /// synchronizing channels (the macros' function-local statics or the
  /// registration mutex), so lock-free reads here are race-free.
  struct HotDef {
    std::uint32_t first_slot = 0;
    std::uint32_t bound_count = 0;
    std::array<std::uint64_t, kMaxHistogramBounds> bounds{};
  };

  Registry() = default;

  MetricId register_metric(std::string_view name, MetricType type,
                           bool deterministic,
                           std::vector<std::uint64_t> bounds);
  [[nodiscard]] Sink& local_sink();

  mutable std::mutex mutex_;
  std::vector<MetricDef> defs_;
  std::array<HotDef, kMaxMetrics> hot_{};
  std::unordered_map<std::string, MetricId> by_name_;
  /// One sink per thread that ever recorded; sinks live until process
  /// exit (pool workers are long-lived; a transient thread parks a
  /// 32 KiB sink, which is bounded by the thread count, not the runtime).
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::uint32_t next_slot_ = 0;
};

// ---- inline helpers (compiled out entirely when the layer is off) ----

inline void count(const MetricId id, const std::uint64_t delta = 1) {
  if constexpr (kEnabled) Registry::instance().add(id, delta);
}

inline void observe(const MetricId id, const std::uint64_t value) {
  if constexpr (kEnabled) Registry::instance().observe(id, value);
}

inline void gauge_to(const MetricId id, const std::uint64_t value) {
  if constexpr (kEnabled) Registry::instance().gauge_to(id, value);
}

/// Dynamically named counter (slow path; see Registry::add_named).
inline void count_named(const std::string_view name,
                        const std::uint64_t delta = 1) {
  if constexpr (kEnabled) Registry::instance().add_named(name, delta);
}

/// One row of a module's counter table.
struct CounterRow {
  const char* name;
  bool deterministic;
};

/// Register a module's counter table (any rows with `name` and
/// `deterministic`) in one call; ids[i] is row i's counter.
template <typename Row, std::size_t N>
[[nodiscard]] std::array<MetricId, N> register_counters(
    const Row (&rows)[N]) {
  std::array<MetricId, N> ids{};
  for (std::size_t i = 0; i < N; ++i) {
    ids[i] = Registry::instance().counter(rows[i].name, rows[i].deterministic);
  }
  return ids;
}

}  // namespace linesearch::obs

// ---- instrumentation macros -----------------------------------------
//
// Each macro interns its metric on first execution via a function-local
// static (thread-safe, once per call site) and then records through the
// thread-local sink.  With LINESEARCH_OBS_ENABLED == 0 they expand to
// ((void)0): zero code, zero data, zero includes needed at the call site
// beyond this header.

#if LINESEARCH_OBS_ENABLED

/// Add `delta` to the counter `name` (a string literal).
#define LS_OBS_COUNT(name, delta)                                         \
  do {                                                                    \
    static const ::linesearch::obs::MetricId ls_obs_count_id_ =           \
        ::linesearch::obs::Registry::instance().counter(name);            \
    ::linesearch::obs::Registry::instance().add(                          \
        ls_obs_count_id_, static_cast<std::uint64_t>(delta));             \
  } while (0)

/// Raise the gauge `name` to at least `value`.
#define LS_OBS_GAUGE_TO(name, value)                                      \
  do {                                                                    \
    static const ::linesearch::obs::MetricId ls_obs_gauge_id_ =           \
        ::linesearch::obs::Registry::instance().gauge(name);              \
    ::linesearch::obs::Registry::instance().gauge_to(                     \
        ls_obs_gauge_id_, static_cast<std::uint64_t>(value));             \
  } while (0)

/// Record one observation in the histogram `name` with the given
/// inclusive upper `...` bounds (braced-init-list of u64, e.g.
/// LS_OBS_OBSERVE("eval.cr.probes_per_scan", probes, {16, 64, 256})).
#define LS_OBS_OBSERVE(name, value, ...)                                  \
  do {                                                                    \
    static const ::linesearch::obs::MetricId ls_obs_hist_id_ =            \
        ::linesearch::obs::Registry::instance().histogram(name,           \
                                                          __VA_ARGS__);   \
    ::linesearch::obs::Registry::instance().observe(                      \
        ls_obs_hist_id_, static_cast<std::uint64_t>(value));              \
  } while (0)

#else  // LINESEARCH_OBS_ENABLED == 0

#define LS_OBS_COUNT(name, delta) ((void)0)
#define LS_OBS_GAUGE_TO(name, value) ((void)0)
#define LS_OBS_OBSERVE(name, value, ...) ((void)0)

#endif  // LINESEARCH_OBS_ENABLED
