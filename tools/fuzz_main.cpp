// tools/fuzz_main — run the verify fuzzer from the command line.
//
//   fuzz_main --seed 42                 run one instance
//   fuzz_main --seed 1 --count 100      run a corpus of consecutive seeds
//   fuzz_main --seed 7 --inject cone-escape   corrupt the instance first
//   fuzz_main --kind NAME --count 10    only seeds of one generator row
//   fuzz_main ... --json out.json       write the (shrunk) repro record
//
// --kind filters by the row an instance was drawn from (verify/fuzz
// fuzz_rows; an unknown name lists them all): seeds are scanned upward
// from --seed and only matching instances run, so --count still means
// "run N instances".  Seed->instance mapping is untouched — a failure
// found through the filter replays with the bare seed.
//
// Exit status 0 when every instance passes, 1 on any failure (the
// minimal repro JSON is printed to stdout), 2 on usage errors.  A
// failing run is fully reproducible from its seed: generation AND
// shrinking are deterministic, so `fuzz_main --seed S [--inject ...]`
// reconstructs the identical minimal instance.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "util/cli.hpp"
#include "verify/fuzz.hpp"

namespace {

using linesearch::verify::FuzzInstance;
using linesearch::verify::FuzzOutcome;
using linesearch::verify::Injection;

struct CliOptions {
  std::uint64_t seed = 1;
  int count = 1;
  Injection injection = Injection::kNone;
  bool shrink = true;
  std::string kind;  ///< empty = every kind
  std::string json_path;
};

/// True when `name` is a row the generator can draw; `valid` collects
/// every row name for the usage error.
bool known_kind(const std::string& name, std::string& valid) {
  bool known = false;
  for (const linesearch::verify::FuzzRow& row :
       linesearch::verify::fuzz_rows()) {
    known = known || name == row.name;
    valid += valid.empty() ? "" : ", ";
    valid += row.name;
  }
  return known;
}

/// Run one seed; on failure print (and optionally shrink) the repro.
bool run_seed(const std::uint64_t seed, const CliOptions& cli) {
  FuzzInstance instance = linesearch::verify::generate_instance(seed);
  instance.injection = cli.injection;
  FuzzOutcome outcome = linesearch::verify::run_instance(instance);
  if (outcome.ok()) return true;

  std::cerr << "seed " << seed << " FAILED: " << outcome.primary_failure()
            << '\n'
            << outcome.describe() << '\n';
  if (cli.shrink) {
    const linesearch::verify::ShrinkResult shrunk =
        linesearch::verify::shrink_instance(instance);
    std::cerr << "shrunk in " << shrunk.accepted_moves
              << " steps (preserving '" << shrunk.failure << "')\n";
    instance = shrunk.instance;
    outcome = linesearch::verify::run_instance(instance);
  }
  const std::string json =
      linesearch::verify::instance_to_json(instance, outcome);
  std::cout << json;
  if (!cli.json_path.empty()) {
    std::ofstream out(cli.json_path);
    out << json;
  }
  return false;
}

}  // namespace

int main(const int argc, const char* const* argv) {
  CliOptions cli;
  std::string inject;
  bool no_shrink = false;
  linesearch::CliParser parser(
      "fuzz_main", "run the verify fuzzer (deterministic seeds; exit 1 "
                   "prints the minimal repro JSON)");
  parser.add_option("seed", &cli.seed, "S", "first seed (default 1)");
  parser.add_option("count", &cli.count, "N",
                    "number of instances to run (default 1)", 1);
  parser.add_option("inject", &inject, "FAULT",
                    "corrupt each instance first (cone-escape)");
  parser.add_option("kind", &cli.kind, "NAME",
                    "only run seeds of one generator row (see verify/fuzz)");
  parser.add_flag("no-shrink", &no_shrink,
                  "print the raw failing instance without shrinking");
  parser.add_option("json", &cli.json_path, "PATH",
                    "also write the repro record here");
  if (!parser.parse(argc, argv)) {
    std::cerr << parser.error() << '\n' << parser.usage();
    return 2;
  }
  cli.shrink = !no_shrink;
  if (!inject.empty()) {
    if (inject != "cone-escape") {
      std::cerr << "fuzz_main: unknown --inject '" << inject
                << "' (valid: cone-escape)\n"
                << parser.usage();
      return 2;
    }
    cli.injection = Injection::kConeEscape;
  }
  std::string valid;
  if (!cli.kind.empty() && !known_kind(cli.kind, valid)) {
    std::cerr << "fuzz_main: unknown --kind '" << cli.kind << "' (valid: "
              << valid << ")\n"
              << parser.usage();
    return 2;
  }

  int failures = 0;
  int ran = 0;
  for (std::uint64_t seed = cli.seed; ran < cli.count; ++seed) {
    if (!cli.kind.empty()) {
      const FuzzInstance probe = linesearch::verify::generate_instance(seed);
      if (cli.kind != linesearch::verify::kind_name(probe)) continue;
    }
    ++ran;
    if (!run_seed(seed, cli)) ++failures;
  }
  if (cli.count > 1) {
    std::cerr << (cli.count - failures) << "/" << cli.count
              << " seeds passed\n";
  }
  return failures == 0 ? 0 : 1;
}
