// eval/kernels.hpp — the structure-of-arrays detection fill behind
// measure_cr.
//
// Asking the fleet one detection time per probe (Fleet::detection_time)
// allocates a times vector and walks every robot's segment list from the
// start, once per probe.  fill_visit_columns answers a whole
// detail::ProbeBatch (eval/cr_eval) instead: one frontier sweep per
// robot (ScheduleSource::first_visit_times_into) over the
// position-sorted probes, both half-lines in one sorted array, streamed
// straight into the per-probe (f+1)-st order statistic — a
// bounded-buffer selection over the cheaper side of the statistic that
// never materializes the robots x probes visit matrix.  measure_cr hands
// the filled column to detail::scan_probes, the one supremum loop.
//
// Bit-identity contract: every filled detection time equals
// Fleet::detection_time(side * magnitude, f), bitwise, in both the SIMD
// and the scalar fallback build (util/simd.hpp), so measure_cr equals
// detail::measure_cr_with over the direct Fleet::detection_time oracle
// on every result field.  The scalar-vs-SIMD differential engine
// (verify/differential) and the kernel test suite enforce it;
// LS_SIMD_LOOP annotates the elementwise passes.
#pragma once

#include <cstdint>
#include <vector>

#include "eval/cr_eval.hpp"
#include "sim/fleet.hpp"
#include "util/real.hpp"

namespace linesearch::kernels {

/// SoA visit-time columns for a probe batch.  `detection` is the result
/// (parallel to the batch arrays, emission order); the remaining members
/// are reusable working storage so a sweep amortizes its allocations.
struct VisitColumns {
  std::vector<Real> detection;  ///< T_{f+1} per probe, emission order

  std::vector<std::uint32_t> order;  ///< slice permutation, position-sorted
  std::vector<Real> sorted_x;        ///< signed positions, ascending
  std::vector<Real> first_visits;    ///< one robot's visit row, reused
  std::vector<Real> selection;       ///< per-probe order-statistic scratch
};

/// Fill columns.detection with the worst-case detection time of every
/// probe in `batch`: bit-identical to Fleet::detection_time(side *
/// magnitude, f) per probe, computed with ONE frontier sweep per robot
/// covering both half-lines of the position-sorted batch, streamed
/// through a bounded-buffer order-statistic selection.
void fill_visit_columns(const Fleet& fleet, int f,
                        const detail::ProbeBatch& batch,
                        VisitColumns& columns);

/// True when the kernels were compiled with `#pragma omp simd`
/// (LINESEARCH_SIMD=ON); false in the scalar fallback build.
[[nodiscard]] bool simd_compiled() noexcept;

}  // namespace linesearch::kernels
