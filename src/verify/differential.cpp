#include "verify/differential.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "eval/exact.hpp"
#include "eval/expectation.hpp"
#include "eval/kernels.hpp"
#include "eval/montecarlo.hpp"
#include "runtime/arbitration.hpp"
#include "runtime/world.hpp"
#include "sim/faults.hpp"
#include "svc/chaos.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace verify {
namespace {

std::string real_str(const Real value) { return encode_real_field(value, 12); }

void record(DifferentialResult& result, const std::size_t job,
            const std::string& field, const Real lhs, const Real rhs) {
  result.passed = false;
  result.mismatches.push_back({job, field, lhs, rhs});
  if (result.message.empty()) {
    result.message = "job " + std::to_string(job) + " field " + field +
                     ": " + real_str(lhs) + " vs " + real_str(rhs);
  }
}

/// Compare two CrEvalResults field by field, bitwise.
void compare_results(DifferentialResult& out, const std::size_t job,
                     const CrEvalResult& reference,
                     const CrEvalResult& candidate) {
  if (!value_identical(reference.cr, candidate.cr)) {
    record(out, job, "cr", reference.cr, candidate.cr);
  }
  if (!value_identical(reference.argmax, candidate.argmax)) {
    record(out, job, "argmax", reference.argmax, candidate.argmax);
  }
  if (!value_identical(reference.cr_positive, candidate.cr_positive)) {
    record(out, job, "cr_positive", reference.cr_positive,
           candidate.cr_positive);
  }
  if (!value_identical(reference.cr_negative, candidate.cr_negative)) {
    record(out, job, "cr_negative", reference.cr_negative,
           candidate.cr_negative);
  }
  if (reference.probes != candidate.probes) {
    record(out, job, "probes", static_cast<Real>(reference.probes),
           static_cast<Real>(candidate.probes));
  }
  if (reference.undetected_probes != candidate.undetected_probes) {
    record(out, job, "undetected_probes",
           static_cast<Real>(reference.undetected_probes),
           static_cast<Real>(candidate.undetected_probes));
  }
}

}  // namespace

DifferentialResult diff_batch_threads(const std::vector<CrBatchJob>& jobs,
                                      const DifferentialOptions& options) {
  DifferentialResult result;
  result.name = "batch_threads";
  expects(!options.thread_counts.empty(),
          "diff_batch_threads: need at least one thread count");
  const std::vector<CrEvalResult> reference =
      measure_cr_batch(jobs, {.threads = options.thread_counts.front()});
  // The serial measure_cr path is part of the race too: the batch layer
  // promises to be indistinguishable from it, not just self-consistent.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CrEvalResult serial =
        measure_cr(*jobs[i].fleet, jobs[i].f, jobs[i].options);
    compare_results(result, i, serial, reference[i]);
  }
  for (std::size_t t = 1; t < options.thread_counts.size(); ++t) {
    const std::vector<CrEvalResult> candidate =
        measure_cr_batch(jobs, {.threads = options.thread_counts[t]});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      compare_results(result, i, reference[i], candidate[i]);
    }
  }
  if (!result.passed && result.mismatches.size() > 1) {
    result.message += " (+" +
                      std::to_string(result.mismatches.size() - 1) +
                      " more mismatches)";
  }
  return result;
}

DifferentialResult diff_probe_vs_exact(const Fleet& fleet, const int f,
                                       const CrEvalOptions& eval,
                                       const DifferentialOptions& options) {
  DifferentialResult result;
  result.name = "probe_vs_exact";
  const CrEvalResult measured = measure_cr(fleet, f, eval);
  const ExactCrResult certified =
      certified_cr(fleet, f,
                   {.window_lo = eval.window_lo,
                    .window_hi = eval.window_hi,
                    .require_finite = eval.require_finite});
  if (std::isinf(measured.cr) || std::isinf(certified.cr)) {
    // Only reachable with require_finite off; both paths must agree the
    // window is undetectable.
    if (std::isinf(measured.cr) != std::isinf(certified.cr)) {
      record(result, 0, "cr", measured.cr, certified.cr);
    }
    return result;
  }
  // A probe is a sample of the sup: it can never exceed the certified
  // value (round-off slack only)...
  if (measured.cr > certified.cr * (1 + options.sample_tol)) {
    record(result, 0, "cr(probe>exact)", measured.cr, certified.cr);
  }
  // ...and the 1e-9 right-limit offset must keep it within probe_gap_tol
  // BELOW it.
  if (certified.cr - measured.cr >
      certified.cr * options.probe_gap_tol) {
    record(result, 0, "cr(gap)", measured.cr, certified.cr);
    result.message += " — probe scan missed the certified sup at x=" +
                      real_str(certified.argsup);
  }
  return result;
}

DifferentialResult diff_exact_vs_grid(const Fleet& fleet, const int f,
                                      const CrEvalOptions& eval,
                                      const DifferentialOptions& options) {
  DifferentialResult result;
  result.name = "exact_vs_grid";
  const ExactCrResult certified =
      certified_cr(fleet, f,
                   {.window_lo = eval.window_lo,
                    .window_hi = eval.window_hi,
                    .require_finite = eval.require_finite});
  if (std::isinf(certified.cr)) return result;

  std::vector<Real> positions;
  const int count = std::max(2, options.grid_points);
  const Real ratio = std::pow(eval.window_hi / eval.window_lo,
                              Real{1} / static_cast<Real>(count - 1));
  Real magnitude = eval.window_lo;
  for (int i = 0; i < count; ++i) {
    const Real m = (i == count - 1) ? eval.window_hi : magnitude;
    positions.push_back(m);
    positions.push_back(-m);
    magnitude *= ratio;
  }
  const std::vector<Real> profile =
      k_profile_batch(fleet, f, positions, {.threads = 2});
  const std::vector<Real> serial_profile = k_profile(fleet, f, positions);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (!value_identical(profile[i], serial_profile[i])) {
      record(result, i, "k_profile(parallel)", serial_profile[i], profile[i]);
    }
    if (std::isinf(serial_profile[i])) continue;
    if (serial_profile[i] > certified.cr * (1 + options.sample_tol)) {
      record(result, i, "k>certified_sup", serial_profile[i], certified.cr);
      result.message += " at x=" + real_str(positions[i]);
    }
  }
  return result;
}

DifferentialResult diff_dense_vs_analytic(const SearchStrategy& strategy,
                                          const Real extent, const int f,
                                          const CrEvalOptions& eval) {
  DifferentialResult result;
  result.name = "dense_vs_analytic";
  if (!strategy.supports_unbounded()) {
    result.applicable = false;
    return result;
  }
  const Fleet dense = strategy.build_fleet(extent);
  const Fleet analytic = strategy.build_unbounded_fleet();
  if (dense.size() != analytic.size()) {
    record(result, 0, "fleet_size", static_cast<Real>(dense.size()),
           static_cast<Real>(analytic.size()));
    return result;
  }

  // (a) The analytic schedule must reproduce the dense waypoint stream
  // bit for bit on the prefix both backends materialize.
  constexpr std::size_t kPrefix = 64;
  for (RobotId id = 0; id < dense.size(); ++id) {
    const std::vector<Waypoint> lhs = dense.robot(id).waypoint_prefix(kPrefix);
    const std::vector<Waypoint> rhs =
        analytic.robot(id).waypoint_prefix(kPrefix);
    const std::size_t shared = std::min(lhs.size(), rhs.size());
    for (std::size_t w = 0; w < shared; ++w) {
      if (!value_identical(lhs[w].time, rhs[w].time)) {
        record(result, id, "waypoint[" + std::to_string(w) + "].time",
               lhs[w].time, rhs[w].time);
      }
      if (!value_identical(lhs[w].position, rhs[w].position)) {
        record(result, id, "waypoint[" + std::to_string(w) + "].position",
               lhs[w].position, rhs[w].position);
      }
    }
  }

  // (b) The evaluator must not be able to tell the backends apart.
  const CrEvalResult dense_cr = measure_cr(dense, f, eval);
  const CrEvalResult analytic_cr = measure_cr(analytic, f, eval);
  compare_results(result, 0, dense_cr, analytic_cr);
  return result;
}

DifferentialResult diff_crash_injected(const int n, const int f,
                                       const Real extent,
                                       const std::vector<Real>& crash_times,
                                       const CrEvalOptions& eval) {
  DifferentialResult result;
  result.name = "crash_injected";
  expects(static_cast<int>(crash_times.size()) == n,
          "diff_crash_injected: crash schedule size must match the fleet");

  const auto team = [n, f, extent]() {
    std::vector<ControllerPtr> controllers;
    controllers.reserve(static_cast<std::size_t>(n));
    for (int robot = 0; robot < n; ++robot) {
      controllers.push_back(
          std::make_unique<ProportionalController>(n, f, robot, extent));
    }
    return controllers;
  };
  std::vector<FaultSpec> plan;
  plan.reserve(crash_times.size());
  for (const Real t : crash_times) {
    plan.push_back(std::isfinite(t) ? FaultSpec::crash_at(t)
                                    : FaultSpec::none());
  }
  const Fleet injected =
      World().execute_team(team(), FaultInjector(std::move(plan)));
  const Fleet truncated =
      truncate_at_crashes(World().execute_team(team()), crash_times);

  // (a) The injected run must equal the analytic truncation waypoint by
  // waypoint (World's mid-leg cut uses the same interpolation
  // arithmetic).
  for (RobotId id = 0; id < injected.size(); ++id) {
    const std::vector<Waypoint>& lhs = injected.robot(id).waypoints();
    const std::vector<Waypoint>& rhs = truncated.robot(id).waypoints();
    if (lhs.size() != rhs.size()) {
      record(result, id, "waypoint_count", static_cast<Real>(lhs.size()),
             static_cast<Real>(rhs.size()));
      continue;
    }
    for (std::size_t w = 0; w < lhs.size(); ++w) {
      if (!value_identical(lhs[w].time, rhs[w].time)) {
        record(result, id, "waypoint[" + std::to_string(w) + "].time",
               lhs[w].time, rhs[w].time);
      }
      if (!value_identical(lhs[w].position, rhs[w].position)) {
        record(result, id, "waypoint[" + std::to_string(w) + "].position",
               lhs[w].position, rhs[w].position);
      }
    }
  }

  // (b) Nor may the evaluator tell them apart (a crashed fleet can leave
  // probes undetected, so the caller's eval must have require_finite
  // off; enforce it here rather than trusting every call site).
  CrEvalOptions relaxed = eval;
  relaxed.require_finite = false;
  const CrEvalResult lhs_cr = measure_cr(injected, f, relaxed);
  const CrEvalResult rhs_cr = measure_cr(truncated, f, relaxed);
  compare_results(result, 0, lhs_cr, rhs_cr);
  return result;
}

DifferentialResult diff_byzantine(const int n, const int f, const Real extent,
                                  const LiePlan& plan,
                                  const std::vector<Real>& targets,
                                  const CrEvalOptions& eval) {
  DifferentialResult result;
  result.name = "byzantine";
  expects(plan.size() == static_cast<std::size_t>(n),
          "diff_byzantine: lie plan size must match the fleet");

  std::vector<ControllerPtr> team;
  team.reserve(static_cast<std::size_t>(n));
  for (int robot = 0; robot < n; ++robot) {
    team.push_back(
        std::make_unique<ProportionalController>(n, f, robot, extent));
  }
  const Fleet injected = World().execute_team(team);

  const auto confirm_at = [](const ArbitrationReport& report, const Real x) {
    for (const ClaimVerdict& verdict : report.verdicts) {
      if (verdict.position == x) return verdict.confirm_time;
    }
    return kInfinity;
  };

  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Real x = targets[i];
    const ArbitrationReport arbitrated =
        arbitrate(injected, f, collect_claims(injected, x, plan));

    // (b) No falsely claimed position may ever reach quorum.
    for (const ClaimVerdict& verdict : arbitrated.verdicts) {
      if (verdict.position != x && verdict.confirmed()) {
        record(result, i, "false_confirm", verdict.position,
               verdict.confirm_time);
      }
    }

    // (a) Arbiter vs the analytic per-liar-set quorum — unless some lie
    // lands exactly on the target, where extra (accidentally true)
    // corroborations may legitimately confirm earlier.
    bool lie_on_target = false;
    for (const std::vector<LieEvent>& events : plan.claims) {
      for (const LieEvent& event : events) {
        lie_on_target = lie_on_target || event.position == x;
      }
    }
    if (!lie_on_target) {
      const Real analytic = byzantine_quorum_time(injected, x, plan.liar, f);
      const Real arbiter = confirm_at(arbitrated, x);
      if (!value_identical(arbiter, analytic)) {
        record(result, i, "confirm_time", analytic, arbiter);
      }
    }

    // (c) The worst liar set — the f earliest visitors, all silent —
    // arbitrated through the runtime path must land exactly on the
    // order statistic the sim layer promises.
    AdversarialFaults adversary;
    LiePlan silent;
    silent.liar = adversary.choose_faults(injected, x, f);
    silent.claims.assign(injected.size(), {});
    const Real worst_arbiter = confirm_at(
        arbitrate(injected, f, collect_claims(injected, x, silent)), x);
    const Real order_stat = injected.detection_time(x, 2 * f);
    if (!value_identical(worst_arbiter, order_stat)) {
      record(result, i, "worst_case_quorum", order_stat, worst_arbiter);
    }
  }

  // (d) The quorum CR scan cannot tell the executed fleet from the
  // schedule builder's (a quorum can be unreachable, so require_finite
  // must be off on both paths).
  const Fleet built = ProportionalAlgorithm(n, f).build_fleet(extent);
  CrEvalOptions relaxed = eval;
  relaxed.require_finite = false;
  const CrEvalResult lhs_cr = measure_cr(injected, 2 * f, relaxed);
  const CrEvalResult rhs_cr = measure_cr(built, 2 * f, relaxed);
  compare_results(result, targets.size(), lhs_cr, rhs_cr);
  return result;
}

DifferentialResult diff_chaos_vs_library(const svc::CrQuery& query,
                                         const std::uint64_t chaos_seed,
                                         const int fault_cap) {
  DifferentialResult result;
  result.name = "chaos_vs_library";
  try {
    // The reference: the offline library's exact response bytes.
    const svc::QueryResult direct = svc::evaluate_query_direct(query);

    svc::QueryServer server;
    svc::ChaosConfig config;
    config.seed = chaos_seed;
    config.fault_cap = fault_cap;

    // Logical time: stalls become read timeouts, backoff never sleeps.
    // max_attempts = clean_every + 2 guarantees the client reaches a
    // fault-free connection even if every faulty attempt burns one —
    // a structured failure below is therefore always a real bug.
    svc::ClientOptions options;
    options.max_attempts = config.clean_every + 2;
    options.sleep_on_backoff = false;
    options.request_timeout_ms = 1000;
    options.jitter_seed = chaos_seed ^ 0x5eedULL;
    svc::QueryClient client(
        options, std::make_unique<svc::ChaosLoopback>(server, config));

    // Three calls back to back: the first races the cold cache, the
    // rest the warm one — retries must replay byte-identically in both.
    for (long long id = 1; id <= 3; ++id) {
      const std::string expected = svc::render_response(id, direct);
      const svc::ClientResult call = client.call(id, query);
      if (!call.ok) {
        result.passed = false;
        result.message = "client gave up (id " + std::to_string(id) +
                         ", attempts " + std::to_string(call.attempts) +
                         "): " + call.error;
        return result;
      }
      if (call.response != expected) {
        result.passed = false;
        result.message = "response bytes differ from library (id " +
                         std::to_string(id) + "): got " + call.response +
                         " want " + expected;
        return result;
      }
    }
  } catch (const Error& error) {
    result.passed = false;
    result.message = error.what();
  }
  return result;
}

DifferentialResult diff_expectation_vs_montecarlo(
    const int n, const int f, const Real p,
    const std::vector<Real>& targets, const std::uint64_t seed,
    const int trials) {
  DifferentialResult result;
  result.name = "expectation_vs_montecarlo";
  expects(in_proportional_regime(n, f),
          "diff_expectation_vs_montecarlo: (n, f) must be in regime");
  expects(p >= 0 && p < 1,
          "diff_expectation_vs_montecarlo: need 0 <= p < 1");
  expects(trials >= 2,
          "diff_expectation_vs_montecarlo: trials must be >= 2");
  const Fleet fleet = ProportionalAlgorithm(n, f).build_unbounded_fleet();
  const bool converges = expectation_converges(n, f, p);
  // The SECOND moment converges iff p^(2n) kappa^4 < 1, a strictly
  // narrower band than the mean's p^(2n) kappa^2 < 1.  Between the two
  // the exact mean is finite but every finite sample mean is heavy-
  // tailed garbage, so the CLT comparison only runs with headroom.
  const Real kappa = optimal_expansion_factor(n, f);
  const Real variance_q =
      std::pow(p, 2 * n) * kappa * kappa * kappa * kappa;
  const bool clt_comparable = p > 0 && converges && variance_q <= 0.8L;

  std::size_t job = 0;
  for (const Real x : targets) {
    if (x == 0) continue;
    ExpectationOptions exact_options;
    exact_options.p = p;
    const Real exact = expected_detection_time(fleet, x, exact_options);
    const Real first_visit = fleet.detection_time(x, 0);
    if (p == 0) {
      // No faults, no sampling: the series IS the first visit, bitwise.
      if (!value_identical(exact, first_visit)) {
        record(result, job, "p0_identity", first_visit, exact);
      }
      ++job;
      continue;
    }
    if (!converges) {
      if (!std::isinf(exact)) {
        record(result, job, "divergence", kInfinity, exact);
      }
      ++job;
      continue;
    }
    if (!std::isfinite(exact)) {
      record(result, job, "finite", first_visit, exact);
      ++job;
      continue;
    }
    // E[T] is a mixture of visit times all >= the first visit.
    if (exact < first_visit * (1 - Real{1e-9L})) {
      record(result, job, "first_visit_bound", first_visit, exact);
    }
    if (clt_comparable) {
      ProbabilisticMcOptions mc_options;
      mc_options.p = p;
      mc_options.trials = trials;
      // Decorrelate targets: consecutive SplitMix64 seeds mix apart.
      mc_options.seed = seed + job;
      const ProbabilisticMcResult mc =
          mc_expected_detection_time(fleet, x, mc_options);
      const int detected = mc.trials - mc.undetected;
      if (detected < 2 || !std::isfinite(mc.stddev)) {
        record(result, job, "mc_detected", static_cast<Real>(trials),
               static_cast<Real>(detected));
        ++job;
        continue;
      }
      // 7-sigma CLT band plus relative slack for the exact engine's own
      // rel_tol tail truncation: wide enough that a false alarm across
      // the whole fuzz corpus is essentially impossible, tight enough
      // that a wrong closed form (off by a term, wrong ratio) trips it.
      const Real band = 7 * mc.stddev / std::sqrt(static_cast<Real>(detected)) +
                        Real{0.02L} * exact + Real{1e-9L};
      if (std::fabs(exact - mc.mean) > band) {
        record(result, job, "mc_mean", exact, mc.mean);
      }
    }
    ++job;
  }
  if (!result.passed && result.mismatches.size() > 1) {
    result.message += " (+" +
                      std::to_string(result.mismatches.size() - 1) +
                      " more mismatches)";
  }
  return result;
}

DifferentialResult diff_scalar_vs_simd(const Fleet& fleet, const int f,
                                       const CrEvalOptions& eval) {
  DifferentialResult result;
  result.name = "scalar_vs_simd";
  // A fleet that leaves probes undetected throws under require_finite on
  // BOTH paths with the same message; compare the relaxed results so the
  // engine reports value mismatches instead of aborting.
  CrEvalOptions relaxed = eval;
  relaxed.require_finite = false;

  // (a) Full scan: the SoA kernel vs the scalar reference loop backed by
  // direct (unbatched) Fleet queries.
  const CrEvalResult kernel = kernels::measure_cr_kernel(fleet, f, relaxed);
  const CrEvalResult scalar = detail::measure_cr_with(
      fleet, f, relaxed,
      [&fleet, f](const Real x) { return fleet.detection_time(x, f); });
  compare_results(result, 0, scalar, kernel);

  // (b) Columns: every batched per-probe detection time vs the scalar
  // oracle at the identical signed position (the same side * magnitude
  // product the kernel feeds its sweep).
  const kernels::ProbeBatch batch = kernels::build_probe_batch(fleet, relaxed);
  kernels::VisitColumns columns;
  kernels::fill_visit_columns(fleet, f, batch, columns);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Real x = static_cast<Real>(batch.sides[i]) * batch.magnitudes[i];
    const Real direct = fleet.detection_time(x, f);
    if (!value_identical(direct, columns.detection[i])) {
      record(result, i, "detection", direct, columns.detection[i]);
    }
  }
  if (!result.passed && result.mismatches.size() > 1) {
    result.message += " (+" +
                      std::to_string(result.mismatches.size() - 1) +
                      " more mismatches)";
  }
  return result;
}

std::vector<DifferentialResult> run_differentials(
    const Fleet& fleet, const int f, const CrEvalOptions& eval,
    const DifferentialOptions& options) {
  // The thread race uses a small (f', window) sweep around the instance,
  // the shape real sweeps have: several jobs over one shared fleet.
  std::vector<CrBatchJob> jobs;
  const int n = static_cast<int>(fleet.size());
  for (const int g : {0, f, n - 1}) {
    if (g < 0 || (!jobs.empty() && jobs.back().f == g)) continue;
    CrEvalOptions job_options = eval;
    jobs.push_back({&fleet, g, job_options});
  }

  std::vector<DifferentialResult> results;
  results.push_back(diff_batch_threads(jobs, options));
  results.push_back(diff_probe_vs_exact(fleet, f, eval, options));
  results.push_back(diff_exact_vs_grid(fleet, f, eval, options));
  results.push_back(diff_scalar_vs_simd(fleet, f, eval));
  return results;
}

bool all_ok(const std::vector<DifferentialResult>& results) {
  return std::all_of(results.begin(), results.end(),
                     [](const DifferentialResult& r) { return r.ok(); });
}

std::string describe_failures(
    const std::vector<DifferentialResult>& results) {
  std::string out;
  for (const DifferentialResult& result : results) {
    if (result.ok()) continue;
    if (!out.empty()) out += '\n';
    out += result.name + ": " + result.message;
  }
  return out;
}

}  // namespace verify
}  // namespace linesearch
