// grid.cpp — the offline sweeps: grid_sweep (dense build_fleet +
// measure_cr_batch over 41 pairs x 3 seeded windows) and grid_expected
// (measure_expected_cr over 41 pairs x 3 seeded p on unbounded
// backends).  One request is one whole grid; the run repeats requests
// with fresh seeded draws until it has measured --seconds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "eval/batch.hpp"
#include "eval/expectation.hpp"
#include "gen.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using linesearch::CrEvalResult;
using linesearch::Fleet;
using linesearch::ProportionalAlgorithm;
using linesearch::Real;

constexpr int kSetupRepeats = 5;
/// Stream offset of the warm-up requests, so they never repeat a timed
/// request's draws.
constexpr std::uint64_t kWarmupRep = 1ull << 40;

int sweep_threads() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hardware, 1u, 4u));
}

/// What one timed request measured, and what the oracle made of it.
struct Request {
  double seconds = 0;
  double fleet_build_ns = 0;
  double batch_ns = 0;
  double serial_ns = 0;
  std::uint64_t answers = 0;
  std::uint64_t wrong = 0;
  double probes = 0;
};

class GridRun {
 public:
  explicit GridRun(const RunOptions& options)
      : options_(options),
        expected_(options.workload == "grid_expected"),
        threads_(sweep_threads()) {}

  RunResult run();

 private:
  double setup_once();
  Request request(std::uint64_t rep, SpanLog* log);
  Request sweep_request(std::uint64_t rep, SpanLog* log);
  Request expected_request(std::uint64_t rep, SpanLog* log);

  RunOptions options_;
  bool expected_;
  int threads_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Fleet> backends_;  // grid_expected: one per pair
};

double GridRun::setup_once() {
  const auto start = Clock::now();
  linesearch::ThreadPool::global().ensure_workers(threads_);
  if (expected_) {
    std::vector<Fleet> backends;
    for (const Pair& pair : regime_pairs()) {
      backends.push_back(
          ProportionalAlgorithm(pair.n, pair.f).build_unbounded_fleet());
    }
    backends_ = std::move(backends);
  }
  // One warm-up request, so lazy initialisation is done before timing.
  const Request warm = request(kWarmupRep, nullptr);
  const double elapsed = seconds_between(start, Clock::now());
  if (warm.wrong > 0) {
    throw std::runtime_error("perfbench: warm-up request failed the oracle");
  }
  return elapsed;
}

Request GridRun::request(const std::uint64_t rep, SpanLog* log) {
  return expected_ ? expected_request(rep, log) : sweep_request(rep, log);
}

Request GridRun::sweep_request(const std::uint64_t rep, SpanLog* log) {
  const std::vector<Pair>& pairs = regime_pairs();
  const std::vector<Real> windows = grid_windows(options_.seed, rep);
  Request out;
  const std::int64_t id = static_cast<std::int64_t>(rep);
  const std::size_t root = log ? log->open("grid.request", id) : 0;
  const auto start = Clock::now();

  std::size_t span = log ? log->open("sim.fleet_build", id,
                                     static_cast<std::int64_t>(root))
                         : 0;
  std::vector<Fleet> fleets;
  fleets.reserve(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto first = windows.begin() +
                       static_cast<std::ptrdiff_t>(p * kGridWindowsPerPair);
    const Real widest = *std::max_element(first, first + kGridWindowsPerPair);
    fleets.push_back(
        ProportionalAlgorithm(pairs[p].n, pairs[p].f).build_fleet(4 * widest));
  }
  const auto built = Clock::now();
  if (log) log->close(span);

  std::vector<linesearch::CrBatchJob> jobs;
  jobs.reserve(windows.size());
  for (std::size_t j = 0; j < windows.size(); ++j) {
    linesearch::CrBatchJob job;
    const std::size_t p = j / kGridWindowsPerPair;
    job.fleet = &fleets[p];
    job.f = pairs[p].f;
    job.options.window_hi = windows[j];
    jobs.push_back(job);
  }
  linesearch::BatchOptions batch;
  batch.threads = threads_;
  span = log ? log->open("eval.batch", id, static_cast<std::int64_t>(root)) : 0;
  const std::vector<CrEvalResult> results =
      linesearch::measure_cr_batch(jobs, batch);
  const auto done = Clock::now();
  if (log) log->close(span);
  out.seconds = seconds_between(start, done);
  out.fleet_build_ns = static_cast<double>(to_ns(built - start));
  out.batch_ns = static_cast<double>(to_ns(done - built));

  if (log) {
    // Traced runs only: the same jobs serially, the parallel baseline.
    batch.threads = 1;
    span = log->open("eval.batch_serial", id, static_cast<std::int64_t>(root));
    const auto serial_start = Clock::now();
    const std::vector<CrEvalResult> serial =
        linesearch::measure_cr_batch(jobs, batch);
    out.serial_ns = static_cast<double>(to_ns(Clock::now() - serial_start));
    log->close(span);
    log->close(root);
    for (std::size_t j = 0; j < serial.size(); ++j) {
      if (serial[j].cr != results[j].cr) ++out.wrong;
    }
  }

  // Oracle: every row against Theorem 1.
  for (std::size_t j = 0; j < results.size(); ++j) {
    const Pair& pair = pairs[j / kGridWindowsPerPair];
    ++out.answers;
    out.probes += results[j].probes;
    if (!matches_theorem(results[j].cr,
                         linesearch::algorithm_cr(pair.n, pair.f))) {
      ++out.wrong;
    }
  }
  return out;
}

Request GridRun::expected_request(const std::uint64_t rep, SpanLog* log) {
  const std::vector<ExpectedRow> rows = expected_rows(options_.seed, rep);
  Request out;
  const std::int64_t id = static_cast<std::int64_t>(rep);
  const std::size_t root = log ? log->open("grid.request", id) : 0;
  std::vector<Span> row_spans(rows.size());
  const auto options_of = [&rows](const std::size_t i, const Real p) {
    linesearch::ExpectationOptions options;
    options.p = p;
    options.eval.window_hi = rows[i].window_hi;
    return options;
  };
  const auto start = Clock::now();
  const std::vector<CrEvalResult> results = linesearch::parallel_map(
      rows.size(),
      [&](const std::size_t i) {
        const std::int64_t begin = log ? log->now_ns() : 0;
        CrEvalResult result = linesearch::measure_expected_cr(
            backends_[rows[i].pair], options_of(i, rows[i].p));
        if (log) {
          Span& span = row_spans[i];
          span.name = "eval.expected_row";
          span.parent = static_cast<std::int64_t>(root);
          span.request = id;
          span.start_ns = begin;
          span.end_ns = log->now_ns();
        }
        return result;
      },
      threads_);
  out.seconds = seconds_between(start, Clock::now());
  if (log) {
    log->close(root);
    for (const Span& span : row_spans) log->add(span);
  }

  // Oracle: finite, and never below the same pair's p = 0 CR (every
  // expected visit time dominates the first visit pointwise).
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ++out.answers;
    out.probes += results[i].probes;
    const CrEvalResult floor =
        linesearch::measure_expected_cr(backends_[rows[i].pair],
                                        options_of(i, 0));
    if (!std::isfinite(results[i].cr) || results[i].cr < floor.cr) {
      ++out.wrong;
    }
  }
  return out;
}

RunResult GridRun::run() {
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) setups.push_back(setup_once());

  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> fleet_ms;
  std::vector<double> batch_ms;
  std::vector<double> serial_ms;
  RunResult result;
  double probes = 0;
  double timed = 0;
  std::uint64_t rep = 0;
  SpanLog log(epoch_);

  const double untraced_seconds =
      options_.trace ? options_.seconds / 2 : options_.seconds;
  for (int phase = 0; phase < (options_.trace ? 2 : 1); ++phase) {
    const bool tracing = phase == 1;
    const double budget = tracing ? options_.seconds / 2 : untraced_seconds;
    double spent = 0;
    while (spent < budget) {
      const Request r = request(rep++, tracing ? &log : nullptr);
      spent += r.seconds;
      (tracing ? traced : untraced).push_back(r.seconds);
      result.attempted += r.answers;
      result.failed += r.wrong;
      result.wrong += r.wrong;
      probes += r.probes;
      if (tracing) {
        fleet_ms.push_back(r.fleet_build_ns / 1e6);
        batch_ms.push_back(r.batch_ns / 1e6);
        serial_ms.push_back(r.serial_ns / 1e6);
      }
    }
    if (!tracing) timed = spent;
  }

  result.guard = "grid requests=" + std::to_string(rep) + " threads=" +
                 std::to_string(threads_);
  std::fprintf(stderr, "%s: %zu requests untraced, p50 %.3f ms, %.3f s timed\n",
               options_.workload.c_str(), untraced.size(),
               median(untraced) * 1e3, timed);

  auto& v = result.values;
  v["setup_s"] = median(setups);
  v["qps"] = static_cast<double>(untraced.size()) / timed;
  v["p50_us"] = median(untraced) * 1e6;
  v["peak_rss_mb"] = peak_rss_mb();
  if (!options_.trace) return result;

  const auto summary = summarize(log.spans());
  v["eval.probes_per_query"] =
      probes /
      static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
  if (expected_) {
    const auto it = summary.find("eval.expected_row");
    v["eval.expected_row_ms"] =
        it == summary.end() ? 0.0 : it->second.median_duration_ns / 1e6;
  } else {
    v["sim.fleet_build_ms"] = median(fleet_ms);
    v["eval.batch_ms"] = median(batch_ms);
    v["eval.batch_serial_ms"] = median(serial_ms);
    v["eval.batch_speedup"] = median(serial_ms) / median(batch_ms);
  }
  const double untraced_p50 = median(untraced);
  const double traced_p50 = median(traced);
  // Tracing overhead on the primary metric, the request rate 1/p50.
  v["trace.overhead_frac"] = 1 - untraced_p50 / traced_p50;
  for (const auto& [name, s] : summary) {
    std::fprintf(stderr,
                 "  span %-24s n=%-8zu median %10.3f ms  self %10.3f ms\n",
                 name.c_str(), s.count, s.median_duration_ns / 1e6,
                 s.median_self_ns / 1e6);
  }
  const std::string path =
      options_.run_dir + "/" + options_.workload + ".spans.csv";
  if (!write_spans_csv(log.spans(), path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  return result;
}

}  // namespace

RunResult run_grid(const RunOptions& options) {
  GridRun run(options);
  return run.run();
}

}  // namespace perfbench
