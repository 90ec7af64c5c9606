// bench_perf — google-benchmark microbenchmarks of the library's hot
// kernels (experiment P1): trajectory construction, first-visit queries,
// fault-aware detection, empirical CR evaluation, root solving and the
// adversarial game.  These quantify the cost of the exact-math substrate
// (no discretization) that all reproductions run on.
#include <benchmark/benchmark.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/game.hpp"
#include "adversary/placements.hpp"
#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "core/lower_bound.hpp"
#include "eval/batch.hpp"
#include "eval/byzantine.hpp"
#include "eval/cr_eval.hpp"
#include "eval/exact.hpp"
#include "eval/expectation.hpp"
#include "eval/kernels.hpp"
#include "obs/perf_report.hpp"
#include "runtime/injector.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/world.hpp"
#include "sim/serialize.hpp"
#include "sim/zigzag.hpp"
#include "star/search.hpp"
#include "svc/server.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace {

using namespace linesearch;

void BM_ZigzagConstruction(benchmark::State& state) {
  const Real coverage = static_cast<Real>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_origin_zigzag(
        {.beta = 3, .first_turn = 1, .min_coverage = coverage}));
  }
}
BENCHMARK(BM_ZigzagConstruction)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_FleetConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ProportionalAlgorithm algo(n, n - 1);  // beta = 3 family
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.build_fleet(1000));
  }
}
BENCHMARK(BM_FleetConstruction)->Arg(2)->Arg(8)->Arg(32);

void BM_FirstVisitQuery(benchmark::State& state) {
  const Trajectory t = make_origin_zigzag(
      {.beta = 3, .first_turn = 1, .min_coverage = 1e6L});
  Real x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.first_visit_time(x));
    x = (x < 9e5L) ? x * 1.37L : 1;
  }
}
BENCHMARK(BM_FirstVisitQuery);

void BM_DetectionTime(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int f = n - 1;
  const ProportionalAlgorithm algo(n, f);
  const Fleet fleet = algo.build_fleet(10000);
  Real x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.detection_time(x, f));
    x = (x < 9e3L) ? x * 1.37L : 1;
  }
}
BENCHMARK(BM_DetectionTime)->Arg(3)->Arg(11)->Arg(41);

void BM_MeasureCr(benchmark::State& state) {
  const ProportionalAlgorithm algo(5, 3);
  const Fleet fleet = algo.build_fleet(2000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_cr(fleet, 3, {.window_hi = 32}));
  }
}
BENCHMARK(BM_MeasureCr);

/// The dense (f, window) job list both sweep benchmarks time: every
/// fault budget of an A(7, 4) fleet crossed with three windows.  This is
/// the grid shape bench_fig5/analysis sweeps evaluate for real.
std::vector<CrBatchJob> dense_cr_jobs(const Fleet& fleet) {
  std::vector<CrBatchJob> jobs;
  for (int f = 0; f < static_cast<int>(fleet.size()); ++f) {
    for (const Real window : {12.0L, 24.0L, 48.0L}) {
      jobs.push_back(
          {&fleet, f, {.window_hi = window, .interior_samples = 16}});
    }
  }
  return jobs;
}

void BM_DenseCrSweepSerial(benchmark::State& state) {
  const ProportionalAlgorithm algo(7, 4);
  const Fleet fleet = algo.build_fleet(2000);
  const std::vector<CrBatchJob> jobs = dense_cr_jobs(fleet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_cr_batch(jobs, {.threads = 1}));
  }
}
BENCHMARK(BM_DenseCrSweepSerial)->Unit(benchmark::kMillisecond);

void BM_DenseCrSweepParallel(benchmark::State& state) {
  // Compare against BM_DenseCrSweepSerial for the speedup; the results
  // are verified identical (cr and argmax) before any timing happens.
  const ProportionalAlgorithm algo(7, 4);
  const Fleet fleet = algo.build_fleet(2000);
  const std::vector<CrBatchJob> jobs = dense_cr_jobs(fleet);
  const std::vector<CrEvalResult> serial =
      measure_cr_batch(jobs, {.threads = 1});
  const std::vector<CrEvalResult> parallel =
      measure_cr_batch(jobs, {.threads = 0});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (parallel[i].cr != serial[i].cr ||
        parallel[i].argmax != serial[i].argmax) {
      state.SkipWithError("parallel batch diverged from serial");
      return;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_cr_batch(jobs, {.threads = 0}));
  }
  state.counters["threads"] =
      static_cast<double>(resolve_thread_count(0));
}
BENCHMARK(BM_DenseCrSweepParallel)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_AnalyticFleetConstruction(benchmark::State& state) {
  // Counterpart of BM_FleetConstruction: the analytic backend's O(1)
  // per-robot state makes construction independent of the horizon.
  const int n = static_cast<int>(state.range(0));
  const ProportionalAlgorithm algo(n, n - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.build_unbounded_fleet());
  }
}
BENCHMARK(BM_AnalyticFleetConstruction)->Arg(2)->Arg(8)->Arg(32);

void BM_AnalyticCrSweep(benchmark::State& state) {
  // measure_cr over a 2^20 window on the unbounded analytic fleet: the
  // probe grid and every visit query come from closed forms, no dense
  // ladder is ever materialized.
  const ProportionalAlgorithm algo(12, 11);
  const Fleet fleet = algo.build_unbounded_fleet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_cr(fleet, 11, {.window_hi = 1048576}));
  }
}
BENCHMARK(BM_AnalyticCrSweep)->Unit(benchmark::kMillisecond);

void BM_KernelCrScalar(benchmark::State& state) {
  // Scalar reference scan: one direct Fleet::detection_time query per
  // probe (allocation + full segment walk each).  Compare against
  // BM_KernelCrSoA for the SoA kernel speedup (bench_perf's JSON
  // artifact reports the same race as kernel_sweep_*).
  const ProportionalAlgorithm algo(7, 4);
  const Fleet fleet = algo.build_fleet(2000);
  const CrEvalOptions options{.window_hi = 48, .interior_samples = 16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::measure_cr_with(
        fleet, 4, options,
        [&fleet](const Real x) { return fleet.detection_time(x, 4); }));
  }
}
BENCHMARK(BM_KernelCrScalar)->Unit(benchmark::kMillisecond);

void BM_KernelCrSoA(benchmark::State& state) {
  // The SoA kernel path on the identical scan (bit-identical result).
  const ProportionalAlgorithm algo(7, 4);
  const Fleet fleet = algo.build_fleet(2000);
  const CrEvalOptions options{.window_hi = 48, .interior_samples = 16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::measure_cr_kernel(fleet, 4, options));
  }
  state.counters["simd"] = kernels::simd_compiled() ? 1 : 0;
}
BENCHMARK(BM_KernelCrSoA)->Unit(benchmark::kMillisecond);

void BM_Theorem2Root(benchmark::State& state) {
  int n = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(theorem2_alpha(n));
    n = (n < 4096) ? n * 2 : 2;
  }
}
BENCHMARK(BM_Theorem2Root);

void BM_ClosedFormCr(benchmark::State& state) {
  int f = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm_cr(2 * f + 1, f));
    f = (f < 1000) ? f + 1 : 1;
  }
}
BENCHMARK(BM_ClosedFormCr);

void BM_CertifiedCr(benchmark::State& state) {
  const ProportionalAlgorithm algo(5, 3);
  const Fleet fleet = algo.build_fleet(2000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(certified_cr(fleet, 3, {.window_hi = 32}));
  }
}
BENCHMARK(BM_CertifiedCr);

void BM_SerializeRoundTrip(benchmark::State& state) {
  const ProportionalAlgorithm algo(5, 3);
  const Fleet fleet = algo.build_fleet(10000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet_from_csv(fleet_to_csv(fleet)));
  }
}
BENCHMARK(BM_SerializeRoundTrip);

void BM_OnlineExecution(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_proportional_controllers(n, n - 1, 1000));
  }
}
BENCHMARK(BM_OnlineExecution)->Arg(3)->Arg(11);

void BM_InjectedExecution(benchmark::State& state) {
  // Fault-injected online execution vs BM_OnlineExecution's clean run:
  // the injector's per-directive overhead (crash clipping, speed caps,
  // drop bookkeeping) on a mixed random plan.
  const int n = static_cast<int>(state.range(0));
  const auto injector = FaultInjector::random(
      2024, static_cast<std::size_t>(n),
      {.fault_probability = 0.5L, .horizon = 100});
  for (auto _ : state) {
    std::vector<ControllerPtr> team;
    for (int robot = 0; robot < n; ++robot) {
      team.push_back(std::make_unique<ProportionalController>(
          n, n - 1, robot, 1000));
    }
    benchmark::DoNotOptimize(World().execute_team(team, injector));
  }
}
BENCHMARK(BM_InjectedExecution)->Arg(3)->Arg(11);

void BM_DegradedSweep(benchmark::State& state) {
  // The full crash -> detect -> re-plan -> re-measure pipeline over the
  // regime grid (the perf report's degraded_sweep workload).
  DegradedSweepOptions options;
  options.n_max = static_cast<int>(state.range(0));
  options.max_crashes = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(degraded_mode_sweep(options));
  }
}
BENCHMARK(BM_DegradedSweep)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_ByzantineSweep(benchmark::State& state) {
  // The quorum-CR scan of every regime pair against the arXiv:1611.08209
  // closed form (the perf report's byzantine_sweep workload; also
  // reachable alone via --workload byzantine).
  ByzantineSweepOptions options;
  options.n_max = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(byzantine_sweep(options));
  }
}
BENCHMARK(BM_ByzantineSweep)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_ProbabilisticSweep(benchmark::State& state) {
  // The exact expected-CR engine over the regime grid times a p grid
  // (the perf report's probabilistic_sweep workload; also reachable
  // alone via --workload probabilistic).  Every row here is a
  // closed-form geometric-ladder summation — no Monte Carlo.
  ExpectationSweepOptions options;
  options.n_max = static_cast<int>(state.range(0));
  options.p_count = 3;
  options.p_max = 0.4L;
  for (auto _ : state) {
    benchmark::DoNotOptimize(expectation_sweep(options));
  }
}
BENCHMARK(BM_ProbabilisticSweep)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_ServiceQuery(benchmark::State& state) {
  // One NDJSON request through the in-process wire path (parse ->
  // canonicalize -> service -> render).  Arg(0) runs with the result LRU
  // on (steady-state hits), Arg(1) with caching off (every request
  // re-evaluates) — the gap is what the cache buys per query.
  const bool no_cache = state.range(0) != 0;
  svc::QueryServerOptions options;
  options.service.cache_results = !no_cache;
  svc::QueryServer server(options);
  const std::string request =
      R"({"id": 1, "op": "cr", "n": 5, "f": 2, "window_hi": 16})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_line(request));
  }
  state.counters["cache"] = no_cache ? 0 : 1;
}
BENCHMARK(BM_ServiceQuery)->Arg(0)->Arg(1);

void BM_AdversarialGame(benchmark::State& state) {
  const int n = 3, f = 1;
  const Real alpha = comfortable_alpha(n, 0.8L);
  const ProportionalAlgorithm algo(n, f);
  const Fleet fleet = algo.build_fleet(largest_placement(alpha) * 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(play_theorem2_game(fleet, f, alpha));
  }
}
BENCHMARK(BM_AdversarialGame);

void BM_StarDetection(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const StarFleet fleet = star_proportional(m, m + 1, 1.3L, 5000);
  Real d = 1;
  int ray = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.detection_time({ray, d}, 1));
    d = (d < 4e3L) ? d * 1.37L : 1;
    ray = (ray + 1) % m;
  }
}
BENCHMARK(BM_StarDetection)->Arg(3)->Arg(5);

}  // namespace

int main(int argc, char** argv) {
  bool timings_only = false;
  std::string json_path = "BENCH_perf.json";
  std::string workload;

  CliParser cli("bench_perf",
                "microbenchmark the hot kernels and write the "
                "BENCH_perf.json artifact");
  cli.add_flag("timings-only", &timings_only,
               "skip the microbenchmarks' checksum workloads in the JSON "
               "artifact");
  cli.add_option("json", &json_path, "PATH",
                 "artifact output path (default BENCH_perf.json)");
  cli.add_option(
      "workload", &workload, "NAME",
      "narrow the microbenchmark run: "
      "byzantine|degraded|service|probabilistic");
  // google-benchmark owns everything spelled --benchmark_*.
  cli.add_passthrough_prefix("--benchmark_");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << '\n' << cli.usage();
    return 2;
  }

  // --workload narrows the microbenchmark run to one family; the JSON
  // artifact below still carries every summary object (including the
  // schema /6 svc_load capacity numbers), so a focused run stays a
  // complete report.
  static std::string filter;
  std::vector<char*> args;
  args.push_back(argv[0]);
  if (!workload.empty()) {
    if (workload == "byzantine") {
      filter = "--benchmark_filter=BM_ByzantineSweep";
    } else if (workload == "degraded") {
      filter = "--benchmark_filter=BM_DegradedSweep";
    } else if (workload == "service") {
      filter = "--benchmark_filter=BM_ServiceQuery";
    } else if (workload == "probabilistic") {
      filter = "--benchmark_filter=BM_ProbabilisticSweep";
    } else {
      std::cerr << "bench_perf: unknown --workload '" << workload
                << "' (expected byzantine|degraded|service|probabilistic)\n";
      return 1;
    }
    args.push_back(filter.data());
  }
  // Forward the collected --benchmark_* args unparsed.
  std::vector<std::string> passthrough = cli.passthrough();
  for (std::string& arg : passthrough) args.push_back(arg.data());
  int filtered_argc = static_cast<int>(args.size());

  if (!timings_only) {
    benchmark::Initialize(&filtered_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  // The JSON artifact lives in the library (obs/perf_report) so tests
  // can pin its schema; --timings-only genuinely skips the checksum
  // workloads there (it used to run them all regardless of the flag).
  std::ofstream out(json_path);
  obs::write_perf_report(out, {.timings_only = timings_only});
  std::cerr << "wrote " << json_path << '\n';
  return 0;
}
