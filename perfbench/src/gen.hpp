// gen.hpp — seeded input generators of the benchmark workloads.
//
// Every input is a pure function of (seed, stream, index), so a run can
// regenerate any request after the fact for the output oracle, and the
// same seed always yields byte-identical request lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "svc/query.hpp"
#include "util/real.hpp"

namespace perfbench {

struct Pair {
  int n = 0;
  int f = 0;
};

/// The 41 regime pairs f < n < 2f+2 with n <= 12 (Theorem 1's grid).
[[nodiscard]] const std::vector<Pair>& regime_pairs();

/// SplitMix64 finalizer over (seed, stream, index): the root of every
/// seeded draw below.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                                     std::uint64_t index);

/// Request line "{"id":<id>" + tail, where tail is a rendered request
/// with its id field cut off.  Keeps the rendering of a hot request out
/// of the timed loop.
[[nodiscard]] std::string line_with_id(long long id, const std::string& tail);

/// Split "{"id":<n>,rest" into rest-with-leading-comma; throws if the
/// line does not start with an id field.
[[nodiscard]] std::string tail_after_id(const std::string& line);

// --- wire_hot ------------------------------------------------------------

inline constexpr int kHotWindows = 8;

/// The hot set: every regime pair at kHotWindows windows, plain regime,
/// default (optimal) beta.  Fixed; only the draws over it are seeded.
[[nodiscard]] std::vector<linesearch::svc::CrQuery> hot_queries();

/// Index into hot_queries() of request `index` on connection `conn`.
[[nodiscard]] std::size_t hot_draw(std::uint64_t seed, int conn,
                                   std::uint64_t index,
                                   std::size_t hot_count);

// --- wire_cold -----------------------------------------------------------

/// Largest per-connection request index wire_cold can number distinctly.
inline constexpr std::uint64_t kColdIndexLimit = 1ull << 22;

/// Request `index` of connection `conn` (conn in [0, 4)): a plain,
/// Byzantine or crash query whose window carries (index, conn) in its
/// low bits, so no two requests of one seed share a query_key.
[[nodiscard]] linesearch::svc::CrQuery cold_query(std::uint64_t seed, int conn,
                                                  std::uint64_t index);

/// Render a query as a wire request line (the benchmark's own renderer,
/// so no library code runs on the client side of the timed loop).
[[nodiscard]] std::string render_line(long long id,
                                      const linesearch::svc::CrQuery& query);

/// Request id of request `index` on connection `conn` (ids are >= 1 and
/// distinct across connections).
[[nodiscard]] long long request_id(int conn, std::uint64_t index);

// --- grid workloads ------------------------------------------------------

inline constexpr int kGridWindowsPerPair = 3;

/// Probe window upper ends of one grid_sweep request: kGridWindowsPerPair
/// per pair, log-uniform in [256, 4096], pair-major.
[[nodiscard]] std::vector<linesearch::Real> grid_windows(std::uint64_t seed,
                                                         std::uint64_t rep);

/// One grid_expected row: pair index, failure probability and window.
struct ExpectedRow {
  std::size_t pair = 0;
  linesearch::Real p = 0;
  linesearch::Real window_hi = 0;
};

/// The rows of one grid_expected request: kGridWindowsPerPair per pair,
/// p uniform in [0.05, 0.5], window log-uniform in [8, 32].
[[nodiscard]] std::vector<ExpectedRow> expected_rows(std::uint64_t seed,
                                                     std::uint64_t rep);

}  // namespace perfbench
