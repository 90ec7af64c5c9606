#include "eval/kernels.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace linesearch::kernels {

bool simd_compiled() noexcept { return kSimdCompiled; }

void fill_visit_columns(const Fleet& fleet, const int f,
                        const detail::ProbeBatch& batch,
                        VisitColumns& columns) {
  expects(f >= 0, "fill_visit_columns: f must be >= 0");
  const std::size_t robots = fleet.size();
  const std::size_t total = batch.size();
  columns.detection.assign(total, kInfinity);
  const auto k = static_cast<std::size_t>(f);
  // Mirrors Fleet::detection_time: with fewer than f+1 robots every
  // probe stays undetected.
  if (k >= robots || total == 0) return;

  // Position-sorted permutation over the WHOLE batch.  Each side is
  // sorted by magnitude separately (the emission order is nearly
  // sorted, which std::sort digests well; sorting the concatenated
  // signed positions directly would hand introsort an organ-pipe input
  // that degenerates to heapsort), then the negative side is reversed
  // into place: descending magnitude = ascending signed position.
  // Magnitudes are positive and exact-deduplicated per side, so the
  // order is strict and unambiguous.
  const Real* magnitudes = batch.magnitudes.data();
  const std::int8_t* sides = batch.sides.data();
  const std::size_t positives = batch.positive_count;
  columns.order.resize(total);
  std::uint32_t* order = columns.order.data();
  std::iota(order, order + total, 0U);
  const auto by_magnitude = [magnitudes](const std::uint32_t p,
                                         const std::uint32_t q) {
    return magnitudes[p] < magnitudes[q];
  };
  // iota seeded batch order, so positive-probe indices occupy
  // order[0, positives) and negative-probe indices the rest.
  std::sort(order, order + positives, by_magnitude);
  std::sort(order + positives, order + total, by_magnitude);
  std::reverse(order + positives, order + total);
  // Negatives come first on the signed line; rotate them to the front.
  std::rotate(order, order + positives, order + total);
  columns.sorted_x.resize(total);
  for (std::size_t p = 0; p < total; ++p) {
    // Same product detail::measure_cr_with feeds its oracle.
    const std::uint32_t i = order[p];
    columns.sorted_x[p] = static_cast<Real>(sides[i]) * magnitudes[i];
  }

  // Per-probe (f+1)-st order statistic, streamed: ONE frontier sweep
  // per robot answers both half-lines at once (the sweep's coverage
  // interval grows both ways from the start, walking the segment list a
  // single time with early exit) into a single reused row, and the row
  // is folded into the selection scratch before the next robot sweeps.
  // The robots x probes visit matrix is never materialized.
  //
  // The selection keeps a sorted scratch of each probe's
  // min(k + 1, robots - k) extreme values — whichever side of the order
  // statistic is cheaper — and reads the answer off its edge.  Like
  // nth_element, this returns the k-th smallest VALUE of the probe's
  // multiset with no arithmetic on the times, so any exact selection
  // algorithm (this one, nth_element, analysis/stats kth_smallest) is
  // bit-identical.
  const bool from_below = k + 1 <= robots - k;
  const std::size_t limit = from_below ? k + 1 : robots - k;
  columns.first_visits.resize(total);
  columns.selection.resize(limit * total);
  Real* row = columns.first_visits.data();
  Real* scratch = columns.selection.data();
  // Row r's fill level is uniformly min(r, limit) across every probe's
  // scratch (the contiguous `limit` entries at p * limit) — no
  // per-probe counters.
  for (std::size_t r = 0; r < robots; ++r) {
    fleet.robot(r).first_visit_times_into(columns.sorted_x.data(), total, row);
    const std::size_t filled = r < limit ? r : limit;
    if (from_below) {
      // scratch = the `limit` smallest seen, ascending; answer is the
      // last entry (rank k).
      for (std::size_t p = 0; p < total; ++p) {
        Real* s = scratch + p * limit;
        const Real time = row[p];
        std::size_t at;
        if (filled < limit) {
          at = filled;
        } else if (time < s[limit - 1]) {
          at = limit - 1;
        } else {
          continue;
        }
        while (at > 0 && s[at - 1] > time) {
          s[at] = s[at - 1];
          --at;
        }
        s[at] = time;
      }
    } else {
      // scratch = the `limit` largest seen, ascending; the first entry
      // has rank robots - limit = k.
      for (std::size_t p = 0; p < total; ++p) {
        Real* s = scratch + p * limit;
        const Real time = row[p];
        std::size_t at;
        if (filled < limit) {
          at = filled;
          while (at > 0 && s[at - 1] > time) {
            s[at] = s[at - 1];
            --at;
          }
        } else if (time > s[0]) {
          at = 0;
          while (at + 1 < limit && s[at + 1] < time) {
            s[at] = s[at + 1];
            ++at;
          }
        } else {
          continue;
        }
        s[at] = time;
      }
    }
  }
  const std::size_t answer_at = from_below ? limit - 1 : 0;
  for (std::size_t p = 0; p < total; ++p) {
    columns.detection[columns.order[p]] = scratch[p * limit + answer_at];
  }
}

}  // namespace linesearch::kernels
