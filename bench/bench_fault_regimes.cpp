// bench_fault_regimes — the sweep rows of the three fault regimes beyond
// the paper's crash faults, each next to its reference value:
//
//   - Byzantine (extension A7, arXiv:1611.08209): quorum CR of every
//     regime pair vs the closed form; only the diagonal n = 2f+1 is
//     feasible.
//   - Degraded mode (docs/robustness.md): crash -> silence-detect ->
//     re-plan -> re-measure, vs Theorem 1 for the reduced pair.
//   - Probabilistic (arXiv:2002.07797): the exact expected CR over a
//     p grid, with the closed-form convergence verdict per row.
//
// bench_perf times the same three sweeps (BM_ByzantineSweep,
// BM_DegradedSweep, BM_ProbabilisticSweep); this binary prints them.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "eval/byzantine.hpp"
#include "eval/expectation.hpp"
#include "runtime/supervisor.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace linesearch;

/// Fold one row into the running worst |measured / theory - 1|; a row
/// without a finite ratio leaves it unchanged.
Real worst_gap(const Real worst, const Real ratio) {
  return std::isfinite(ratio) ? std::max(worst, std::fabs(ratio - 1))
                              : worst;
}

/// Byzantine table; returns measured and theory CR over the feasible
/// rows, x = n.
std::vector<Series> byzantine_table() {
  ByzantineSweepOptions options;
  options.n_max = 6;
  TablePrinter table({"n", "f", "feasible", "cr", "theory cr"});
  table.set_caption(
      "Byzantine quorum CR (budget 2f) vs the arXiv:1611.08209 closed "
      "form, regime pairs n <= 6");
  Series measured{"measured", {}, {}}, theory{"theory", {}, {}};
  Real worst = 0;
  for (const ByzantineSweepRow& row : byzantine_sweep(options)) {
    table.add_row({cell(static_cast<long long>(row.n)),
                   cell(static_cast<long long>(row.f)),
                   row.feasible ? "yes" : "no", fixed(row.measured_cr, 3),
                   fixed(row.theory_cr, 3)});
    if (!row.feasible) continue;
    measured.x.push_back(row.n);
    measured.y.push_back(row.measured_cr);
    theory.x.push_back(row.n);
    theory.y.push_back(row.theory_cr);
    worst = worst_gap(worst, row.ratio_to_theory);
  }
  table.print(std::cout);
  std::cout << "feasible rows: " << measured.x.size()
            << "; worst gap to theory: " << scientific(worst, 2) << "\n\n";
  return {measured, theory};
}

/// Degraded-mode table; returns measured and theory CR over the
/// recovered rows, x = recovered-row index.
std::vector<Series> degraded_table() {
  DegradedSweepOptions options;
  options.n_max = 6;
  options.max_crashes = 2;
  TablePrinter table(
      {"n", "f", "crashes", "survivors", "cr", "theory cr", "ratio"});
  table.set_caption(
      "Degraded mode: crash -> detect -> re-plan, measured CR vs Theorem 1 "
      "for (survivors, f), regime pairs n <= 6");
  Series measured{"measured", {}, {}}, theory{"theory", {}, {}};
  Real worst = 0;
  for (const DegradedSweepRow& row : degraded_mode_sweep(options)) {
    table.add_row({cell(static_cast<long long>(row.n)),
                   cell(static_cast<long long>(row.f)),
                   cell(static_cast<long long>(row.crashes)),
                   cell(static_cast<long long>(row.survivors)),
                   fixed(row.measured_cr, 3), fixed(row.theory_cr, 3),
                   fixed(row.ratio_to_theory, 4)});
    if (!row.recovered) continue;
    const auto index = static_cast<Real>(measured.x.size() + 1);
    measured.x.push_back(index);
    measured.y.push_back(row.measured_cr);
    theory.x.push_back(index);
    theory.y.push_back(row.theory_cr);
    worst = worst_gap(worst, row.ratio_to_theory);
  }
  table.print(std::cout);
  std::cout << "recovered rows: " << measured.x.size()
            << "; worst gap to theory: " << scientific(worst, 2) << "\n\n";
  return {measured, theory};
}

/// p-faulty table; returns one expected-CR series per regime pair,
/// x = p.
std::vector<Series> probabilistic_table() {
  ExpectationSweepOptions options;
  options.n_max = 6;
  options.p_count = 3;
  options.p_max = 0.4L;
  TablePrinter table({"n", "f", "p", "converges", "expected cr"});
  table.set_caption(
      "p-faulty robots: exact expected CR over a p grid, regime pairs "
      "n <= 6");
  std::vector<Series> curves;
  int divergent = 0;
  for (const ExpectationSweepRow& row : expectation_sweep(options)) {
    table.add_row({cell(static_cast<long long>(row.n)),
                   cell(static_cast<long long>(row.f)), fixed(row.p, 2),
                   row.converges ? "yes" : "no", fixed(row.expected_cr, 3)});
    const std::string name =
        "A(" + std::to_string(row.n) + " " + std::to_string(row.f) + ")";
    if (curves.empty() || curves.back().name != name) {
      curves.push_back({name, {}, {}});
    }
    curves.back().x.push_back(row.p);
    curves.back().y.push_back(row.expected_cr);
    if (!std::isfinite(row.expected_cr)) ++divergent;
  }
  table.print(std::cout);
  std::cout << "divergent rows: " << divergent << '\n';
  return curves;
}

void body() {
  const std::vector<Series> byzantine = byzantine_table();
  const std::vector<Series> degraded = degraded_table();
  const std::vector<Series> probabilistic = probabilistic_table();

  bench::csv_header("byzantine");
  write_series_csv(std::cout, byzantine);
  bench::csv_header("degraded");
  write_series_csv(std::cout, degraded);
  bench::csv_header("probabilistic");
  write_series_csv(std::cout, probabilistic);
}

}  // namespace

int main() {
  return linesearch::bench::run(
      "Extensions A7 / degraded / probabilistic",
      "fault-regime sweep rows vs their reference values", body);
}
