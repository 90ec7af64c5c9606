// perfbench — the repository benchmark's workload runner.
//
//   perfbench --workload <wire_hot|wire_cold|grid_sweep|grid_expected>
//             --seed <n> --seconds <s> --trace <0|1> --run-dir <dir>
//
// Prints progress and the layer-separation guard on stderr and, as the
// last line of stdout, the result object: the end-to-end metrics when
// --trace 0, the per-layer metrics when --trace 1.  Exit codes: 0 ok,
// 1 a wrong answer (the result line says correct: false), 2 bad usage or
// an internal error, 3 the guard failed (the run is invalid and prints
// no result).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

bool matches_theorem(const long double measured, const long double theory) {
  return std::isfinite(measured) &&
         measured >= theory * (1 - static_cast<long double>(kTheoremRelTol)) &&
         measured <= theory * (1 + static_cast<long double>(kTheoremAbove));
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <wire_hot|wire_cold|grid_sweep|"
               "grid_expected> --seed <n> --seconds <s> --trace <0|1> "
               "--run-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  options.run_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else {
      return usage();
    }
  }
  const bool wire =
      options.workload == "wire_hot" || options.workload == "wire_cold";
  const bool grid =
      options.workload == "grid_sweep" || options.workload == "grid_expected";
  if ((!wire && !grid) || !(options.seconds > 0)) return usage();

  RunResult result;
  try {
    result = wire ? run_wire(options) : run_grid(options);
  } catch (const std::exception& failure) {
    std::fprintf(stderr, "perfbench: %s\n", failure.what());
    return 2;
  }

  std::fprintf(stderr, "%s guard: %s%s\n", options.workload.c_str(),
               result.guard.c_str(), result.guard_ok ? "" : "  -> INVALID");
  if (!result.guard_ok) return 3;

  std::vector<Metric> metrics;
  const auto& specs =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& spec : specs) {
    const auto it = result.values.find(spec.name);
    metrics.push_back(
        {spec.name, it == result.values.end() ? 0.0 : it->second, spec.unit});
  }
  const bool correct = result.wrong == 0 && result.failed == 0;
  std::printf("%s\n", result_json(correct, result.attempted, result.failed,
                                  metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
