// verify/fuzz.hpp — seeded strategy fuzzer with greedy failure shrinking.
//
// A fuzz instance is a small record — a fleet shape, a fault regime and
// a route (library engines or the service wire), plus n, f, beta,
// magnitudes, window and adversarial targets — generated
// deterministically from a 64-bit seed: same seed, same instance, same
// verdict, on every machine.  One row table names the drawable
// combinations.  Running an instance builds the fleet, runs every
// invariant oracle of verify/invariants and (for valid fleets) the
// route's differential engines of verify/differential.
//
// On failure the instance is shrunk greedily — drop robots, halve the
// extent and window, round parameters, drop targets — accepting a move
// only while the ORIGINAL failing oracle still fails, until no move
// applies.  The minimal repro is replayable from its seed alone
// (`tools/fuzz_main --seed S` re-runs generation and shrinking
// bit-identically) and is also emitted as JSON for bug reports.
//
// Injections deliberately corrupt a generated fleet (e.g. ConeEscape
// swaps robot 0 for a unit-speed classic cow-path zig-zag that leaves
// C_beta) so the oracle set and the shrinker themselves stay tested.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "sim/faults.hpp"
#include "sim/fleet.hpp"
#include "svc/query.hpp"
#include "util/real.hpp"
#include "util/rng.hpp"
#include "verify/differential.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace verify {

/// Deterministic 64-bit generator — now the library-wide
/// linesearch::SplitMix64 (util/rng.hpp); the alias keeps the long-lived
/// verify::SplitMix64 spelling (and its streams) intact.
using ::linesearch::SplitMix64;

/// Fleet shapes the generator draws from.
enum class Shape {
  kProportional,    ///< A(n, f) — optimal beta
  kPerturbedBeta,   ///< S_beta(n) with a random beta != beta*
  kCustomCone,      ///< build_cone_fleet with random magnitudes
  kGroupDoubling,   ///< all robots on one cone-doubling zig-zag
  kClassicCowPath,  ///< non-cone Beck/Bellman doubling (optionally mirrored)
  kUniformOffset,   ///< arithmetic first-turn spread (ablation foil)
};

/// Which code path answers the instance: the library engines, or the
/// instance's CrQuery through the resilient client and an in-process
/// server over a channel faulted at chaos_seed (diff_chaos_vs_library).
enum class Route { kLibrary, kWire };

/// One drawable (shape, regime, route) combination.  The name is the
/// `fuzz_main --kind` and JSON "kind" spelling; nothing dispatches on a
/// row — generation copies its fields into the instance and every later
/// step reads the shape, the regime or the route.
struct FuzzRow {
  const char* name = "";
  Shape shape = Shape::kProportional;
  bool analytic = false;  ///< build on the unbounded analytic backend
  /// The row's fault regime; nullopt draws one over every svc regime.
  std::optional<svc::FaultRegime> regime = svc::FaultRegime::kNone;
  Route route = Route::kLibrary;
  bool chaos = false;  ///< wire route through a nonzero chaos_seed
};

/// The generator's row table, in draw order.
[[nodiscard]] std::span<const FuzzRow> fuzz_rows() noexcept;

/// Deliberate corruptions for testing the oracles and the shrinker.
enum class Injection {
  kNone,
  /// Replace robot 0 with a unit-speed classic cow-path zig-zag from the
  /// origin.  Its first waypoint (1, 1) sits below t = beta*|x| for every
  /// beta > 1, so cone containment must fail while speed validation
  /// passes.
  kConeEscape,
};

[[nodiscard]] const char* injection_name(Injection injection) noexcept;

/// One fuzz case.  Every field is derived from `seed` by
/// generate_instance; the shrinker then mutates the record directly.
struct FuzzInstance {
  std::uint64_t seed = 0;
  Shape shape = Shape::kProportional;
  /// kProportional only: the same curves on the analytic (unbounded)
  /// backend, so every oracle works through windowed queries.
  bool analytic = false;
  /// The library route's regime race, or the wire query's regime.
  svc::FaultRegime regime = svc::FaultRegime::kNone;
  Route route = Route::kLibrary;
  Injection injection = Injection::kNone;
  int n = 3;
  int f = 1;
  Real beta = 3;                ///< cone shapes; ignored by kClassicCowPath
  bool mirrored = false;        ///< kClassicCowPath only
  std::vector<Real> magnitudes; ///< kCustomCone only, each in [1, kappa^2)
  Real extent = 64;
  Real window_lo = 1;
  Real window_hi = 16;
  /// Adversarial probe positions (signed); the leading entries repeat
  /// bit-for-bit, so the SoA kernel's first-occurrence dedup is raced
  /// on every library-route instance.
  std::vector<Real> targets;
  /// kCrash only: per-robot crash-stop times (kInfinity = healthy).
  /// Size n when present.
  std::vector<Real> crash_times;
  /// kByzantine on the library route only: per-robot lie schedule (size
  /// n when present; liar_count <= f always).
  LiePlan lies;
  /// kProbabilistic only: per-visit failure probability in [0, 1).
  Real fault_p = 0;
  /// kWire only: the wire fault injector's seed (0 = clean channel —
  /// also the shrinker's first move, separating transport bugs from
  /// server bugs) and the per-connection fault-script cap the shrinker
  /// walks down to minimize the failing script.
  std::uint64_t chaos_seed = 0;
  int chaos_fault_cap = 3;
};

/// The name of the row `instance` belongs to ("unknown" for a
/// hand-built combination no row draws).
[[nodiscard]] const char* kind_name(const FuzzInstance& instance) noexcept;

/// Everything one run produced.
struct FuzzOutcome {
  std::vector<InvariantResult> invariants;
  std::vector<DifferentialResult> differentials;

  [[nodiscard]] bool ok() const;
  /// Name of the first failing check ("" when ok) — the shrink predicate.
  [[nodiscard]] std::string primary_failure() const;
  /// One line per failure, empty when ok.
  [[nodiscard]] std::string describe() const;
};

/// Deterministic instance from a seed (never injected; set
/// instance.injection afterwards to corrupt it).
[[nodiscard]] FuzzInstance generate_instance(std::uint64_t seed);

/// Materialize the instance's fleet, applying its injection.
[[nodiscard]] Fleet build_fuzz_fleet(const FuzzInstance& instance);

/// The Subject (claims) the oracles check `fleet` against.
[[nodiscard]] Subject make_subject(const FuzzInstance& instance,
                                   const Fleet& fleet);

/// Build + run all oracles (+ differentials when not injected;
/// exceptions from any engine become failed results, never escape).
[[nodiscard]] FuzzOutcome run_instance(const FuzzInstance& instance);

/// Result of greedy shrinking.
struct ShrinkResult {
  FuzzInstance instance;  ///< minimal instance still failing
  int accepted_moves = 0; ///< shrink steps that preserved the failure
  std::string failure;    ///< the preserved primary failure name
};

/// Greedily minimize a failing instance; requires that run_instance
/// (start) currently fails.  Deterministic: replaying the same start
/// yields the same minimum.
[[nodiscard]] ShrinkResult shrink_instance(const FuzzInstance& start);

/// JSON repro record (instance + failures) via util/jsonio.
[[nodiscard]] std::string instance_to_json(const FuzzInstance& instance,
                                           const FuzzOutcome& outcome);

/// Corpus sweep over `count` consecutive seeds starting at first_seed.
struct CorpusReport {
  int total = 0;
  int failed = 0;
  std::vector<std::uint64_t> failing_seeds;
  /// Names of every applicable invariant and differential the sweep
  /// ran, so a check that silently stops running is visible.
  std::set<std::string> checks;
};
[[nodiscard]] CorpusReport run_corpus(std::uint64_t first_seed, int count);

}  // namespace verify
}  // namespace linesearch
