#include "eval/cr_eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace linesearch {
namespace detail {

// Collect the probe magnitudes for one half-line.
std::vector<Real> probe_magnitudes(const Fleet& fleet, const int side,
                                   const CrEvalOptions& options) {
  // Windowed turning enumeration: exact on dense fleets (same filter the
  // scan used to apply itself) and the only finite query on unbounded
  // (analytic) fleets.  The slack band just below window_lo admits a
  // turning point whose RIGHT-LIMIT lands inside the window; the turn
  // itself (and any probe derived from it) is clamped below.
  std::vector<Real> turns = fleet.turning_positions_in(
      side, options.window_lo * (1 - tol::kRelative), options.window_hi);
  turns.push_back(options.window_lo);
  turns.push_back(options.window_hi);
  std::sort(turns.begin(), turns.end());
  turns.erase(std::unique(turns.begin(), turns.end(),
                          [](const Real a, const Real b) {
                            return approx_equal(a, b);
                          }),
              turns.end());

  // Every probe must stay inside [window_lo, window_hi]: turns from the
  // slack band (and interior samples toward them) would otherwise leak
  // probes strictly below window_lo, silently widening the measurement
  // window the caller asked for.
  const auto in_window = [&](const Real magnitude) {
    return magnitude >= options.window_lo && magnitude <= options.window_hi;
  };

  std::vector<Real> probes;
  probes.reserve(turns.size() *
                 (2 + static_cast<std::size_t>(
                          std::max(options.interior_samples, 0))));
  for (std::size_t i = 0; i < turns.size(); ++i) {
    // Right-limit just past the turning point (the jump of Lemma 3)...
    const Real limit = turns[i] * (1 + tol::kLimitProbe);
    if (in_window(limit)) probes.push_back(limit);
    // ...the point itself...
    if (in_window(turns[i])) probes.push_back(turns[i]);
    // ...and interior samples up to the next turning point.
    if (i + 1 < turns.size() && options.interior_samples > 0) {
      const Real lo = turns[i];
      const Real hi = turns[i + 1];
      const int k = options.interior_samples;
      for (int s = 1; s <= k; ++s) {
        const Real sample = lo + (hi - lo) * static_cast<Real>(s) /
                                     static_cast<Real>(k + 1);
        if (in_window(sample)) probes.push_back(sample);
      }
    }
  }

  // Exact-duplicate pass: tau*(1+eps) can collide bit-for-bit with a
  // window endpoint or an adjacent interior sample (e.g. when tau*(1+eps)
  // rounds to the endpoint value), and the turning-point grid itself may
  // carry the same magnitude from several robots.  Evaluating such a
  // probe twice double-counts it in `probes` and makes the reported count
  // depend on rounding accidents.  Keep the FIRST occurrence only —
  // order is preserved, so the argmax (first strict maximum) is
  // untouched.  Exact equality only: approx-equal probes (the point vs
  // its right-limit) are exactly the distinction the limit probes exist
  // to test.  A (value, index)-sorted permutation finds every duplicate
  // run in O(P log P); the first element of a run is the first
  // occurrence, so the kept set — and the output order — match the old
  // quadratic std::find scan exactly.
  const std::size_t count = probes.size();
  std::vector<std::uint32_t> by_value(count);
  std::iota(by_value.begin(), by_value.end(), 0U);
  std::sort(by_value.begin(), by_value.end(),
            [&](const std::uint32_t p, const std::uint32_t q) {
              if (probes[p] != probes[q]) return probes[p] < probes[q];
              return p < q;
            });
  std::vector<char> keep(count, 1);
  for (std::size_t i = 1; i < count; ++i) {
    if (probes[by_value[i]] == probes[by_value[i - 1]]) {
      keep[by_value[i]] = 0;
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (keep[i]) probes[kept++] = probes[i];
  }
  probes.resize(kept);
  return probes;
}

ProbeBatch build_probe_batch(const Fleet& fleet,
                             const CrEvalOptions& options) {
  expects(options.window_lo > 0, "measure_cr: window_lo must be positive");
  expects(options.window_hi > options.window_lo,
          "measure_cr: window_hi must exceed window_lo");
  ProbeBatch batch;
  for (const int side : {+1, -1}) {
    const std::vector<Real> magnitudes = probe_magnitudes(fleet, side, options);
    if (side > 0) batch.positive_count = magnitudes.size();
    batch.magnitudes.insert(batch.magnitudes.end(), magnitudes.begin(),
                            magnitudes.end());
    batch.sides.insert(batch.sides.end(), magnitudes.size(),
                       static_cast<std::int8_t>(side));
  }
  return batch;
}

void fill_visit_columns(const Fleet& fleet, const int f,
                        const ProbeBatch& batch, VisitColumns& columns) {
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

CrEvalResult scan_probes(const ProbeBatch& batch,
                         const std::vector<Real>& detection,
                         const CrEvalOptions& options) {
  expects(detection.size() == batch.size(),
          "scan_probes: one detection time per probe");
  LS_OBS_SPAN("eval.cr.scan");

  CrEvalResult result;
  result.probes = static_cast<int>(batch.size());
  Real pos_best_x = 0;
  Real neg_best_x = 0;
  // Counters are accumulated locally and recorded once per scan below:
  // per-probe relaxed adds are cheap but not free, and this loop is the
  // library's hottest (the sums are identical either way).
  std::uint64_t refinements = 0;
  for (const int side : {+1, -1}) {
    const std::size_t begin = side > 0 ? 0 : batch.positive_count;
    const std::size_t end = side > 0 ? batch.positive_count : batch.size();
    Real best = 0;
    Real best_x = 0;
    bool any_detected = false;
    Real first_undetected_x = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Real magnitude = batch.magnitudes[i];
      const Real x = static_cast<Real>(side) * magnitude;
      const Real time = detection[i];
      if (std::isinf(time)) {
        if (options.require_finite) {
          throw NumericError(
              "measure_cr: undetected probe — fleet extent too small for "
              "the measurement window");
        }
        ++result.undetected_probes;
        if (first_undetected_x == 0) first_undetected_x = x;
        continue;
      }
      any_detected = true;
      const Real ratio = time / magnitude;
      if (ratio > best) {
        best = ratio;
        best_x = x;
        ++refinements;
      }
    }
    // A half-line where NO probe is ever detected has sup K = infinity
    // (the target there is simply never found); reporting 0 would be a
    // silently optimistic lie.
    if (!any_detected && first_undetected_x != 0) {
      best = kInfinity;
      best_x = first_undetected_x;
    }
    if (side > 0) {
      result.cr_positive = best;
      pos_best_x = best_x;
    } else {
      result.cr_negative = best;
      neg_best_x = best_x;
    }
  }
  // Overall worst case.  Tie-break is pinned: when both half-lines attain
  // the same supremum, the POSITIVE side's witness wins — independent of
  // the side evaluation order above.
  if (result.cr_negative > result.cr_positive) {
    result.cr = result.cr_negative;
    result.argmax = neg_best_x;
  } else {
    result.cr = result.cr_positive;
    result.argmax = pos_best_x;
  }
  LS_OBS_COUNT("eval.cr.probes", result.probes);
  LS_OBS_COUNT("eval.cr.undetected_probes", result.undetected_probes);
  LS_OBS_COUNT("eval.cr.supremum_refinements", refinements);
  LS_OBS_OBSERVE("eval.cr.probes_per_scan", result.probes,
                 {16, 64, 256, 1024, 4096});
  return result;
}

CrEvalResult measure_cr_with(const Fleet& fleet, const int f,
                             const CrEvalOptions& options,
                             const DetectionOracle& oracle) {
  expects(f >= 0, "measure_cr: f must be >= 0");
  const ProbeBatch batch = build_probe_batch(fleet, options);
  std::vector<Real> detection(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    detection[i] = oracle(static_cast<Real>(batch.sides[i]) *
                          batch.magnitudes[i]);
  }
  return scan_probes(batch, detection, options);
}

}  // namespace detail

CrEvalResult measure_cr(const Fleet& fleet, const int f,
                        const CrEvalOptions& options) {
  expects(f >= 0, "measure_cr: f must be >= 0");
  const detail::ProbeBatch batch = detail::build_probe_batch(fleet, options);
  // Reused across calls on each thread so the sweep's working storage is
  // allocated once per thread, not once per scan.  Every member is
  // written before it is read, so reuse cannot leak state.
  static thread_local detail::VisitColumns columns;
  detail::fill_visit_columns(fleet, f, batch, columns);
  return detail::scan_probes(batch, columns.detection, options);
}

std::vector<Real> k_profile(const Fleet& fleet, const int f,
                            const std::vector<Real>& positions) {
  expects(f >= 0, "k_profile: f must be >= 0");
  std::vector<Real> profile;
  profile.reserve(positions.size());
  for (const Real x : positions) {
    expects(x != 0, "k_profile: positions must be non-zero");
    profile.push_back(fleet.detection_time(x, f) / std::fabs(x));
  }
  return profile;
}

}  // namespace linesearch
