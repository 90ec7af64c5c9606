#include "gen.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/competitive.hpp"
#include "eval/validation.hpp"
#include "util/rng.hpp"

namespace perfbench {

using linesearch::Real;
using linesearch::SplitMix64;
using linesearch::svc::CrQuery;
using linesearch::svc::FaultRegime;

namespace {

// Stream tags keep the draws of different generators independent.
constexpr std::uint64_t kHotStream = 1;
constexpr std::uint64_t kColdStream = 2;
constexpr std::uint64_t kGridStream = 3;
constexpr std::uint64_t kExpectedStream = 4;

Real log_uniform(const Real lo, const Real hi, const Real unit) {
  return lo * std::pow(hi / lo, unit);
}

Real unit_of(const std::uint64_t bits53) {
  return static_cast<Real>(bits53) * 0x1.0p-53L;
}

void append_real(std::string& out, const Real value) {
  if (std::isinf(value)) {
    out += value > 0 ? "\"inf\"" : "\"-inf\"";
    return;
  }
  char buffer[64];
  const int written = std::snprintf(buffer, sizeof buffer, "%.21Lg", value);
  out.append(buffer, static_cast<std::size_t>(written));
}

}  // namespace

const std::vector<Pair>& regime_pairs() {
  static const std::vector<Pair> pairs = [] {
    std::vector<Pair> out;
    for (const auto& [n, f] : linesearch::proportional_regime_pairs(12)) {
      out.push_back({n, f});
    }
    return out;
  }();
  return pairs;
}

std::uint64_t mix_seed(const std::uint64_t seed, const std::uint64_t stream,
                       const std::uint64_t index) {
  SplitMix64 outer(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  SplitMix64 inner(outer.next() ^ (index * 0x9E3779B97F4A7C15ULL));
  return inner.next();
}

std::string line_with_id(const long long id, const std::string& tail) {
  std::string line = "{\"id\":";
  line += std::to_string(id);
  line += tail;
  return line;
}

std::string tail_after_id(const std::string& line) {
  const std::string prefix = "{\"id\":";
  if (line.compare(0, prefix.size(), prefix) != 0) {
    throw std::runtime_error("perfbench: line does not start with an id: " +
                             line);
  }
  std::size_t cut = prefix.size();
  if (cut < line.size() && line[cut] == '-') ++cut;
  while (cut < line.size() && line[cut] >= '0' && line[cut] <= '9') ++cut;
  return line.substr(cut);
}

std::vector<CrQuery> hot_queries() {
  std::vector<CrQuery> queries;
  for (const Pair& pair : regime_pairs()) {
    for (int w = 0; w < kHotWindows; ++w) {
      CrQuery query;
      query.n = pair.n;
      query.f = pair.f;
      query.window_hi = std::ldexp(Real{1}, 8 + w);  // 256 .. 32768
      queries.push_back(query);
    }
  }
  return queries;
}

std::size_t hot_draw(const std::uint64_t seed, const int conn,
                     const std::uint64_t index, const std::size_t hot_count) {
  const std::uint64_t bits =
      mix_seed(seed, kHotStream, index * 4 + static_cast<std::uint64_t>(conn));
  return static_cast<std::size_t>(bits % hot_count);
}

CrQuery cold_query(const std::uint64_t seed, const int conn,
                   const std::uint64_t index) {
  if (conn < 0 || conn >= 4 || index >= kColdIndexLimit) {
    throw std::out_of_range("perfbench: cold request index out of range");
  }
  SplitMix64 rng(mix_seed(seed, kColdStream,
                          index * 4 + static_cast<std::uint64_t>(conn)));
  const std::vector<Pair>& pairs = regime_pairs();
  const Pair& pair = pairs[rng.next() % pairs.size()];
  CrQuery query;
  query.n = pair.n;
  query.f = pair.f;
  query.regime = static_cast<FaultRegime>(rng.next() % 3);
  // Three cone parameters per pair, so analytic backends are shared.
  const Real star = linesearch::optimal_beta(pair.n, pair.f);
  static constexpr Real kBetaStretch[3] = {1.0L, 0.8L, 1.25L};
  query.beta = 1 + (star - 1) * kBetaStretch[rng.next() % 3];
  // window_hi = 256 * 16^u.  The low 24 of u's 53 bits are the request
  // counter, so the window (and with it the query_key) never repeats.
  const std::uint64_t counter = index * 4 + static_cast<std::uint64_t>(conn);
  const std::uint64_t bits =
      ((rng.next() >> 11) & ~((1ull << 24) - 1)) | counter;
  query.window_hi = log_uniform(256, 4096, unit_of(bits));
  query.interior_samples = 2 + static_cast<int>(rng.next() % 5);
  if (query.regime == FaultRegime::kCrash) {
    query.crash_times.assign(static_cast<std::size_t>(pair.n),
                             linesearch::kInfinity);
    const std::size_t robot = rng.next() % static_cast<std::uint64_t>(pair.n);
    query.crash_times[robot] =
        log_uniform(1, 4 * query.window_hi, unit_of(rng.next() >> 11));
  }
  return query;
}

std::string render_line(const long long id, const CrQuery& query) {
  std::string line = "{\"id\":";
  line += std::to_string(id);
  line += ",\"op\":\"cr\",\"n\":";
  line += std::to_string(query.n);
  line += ",\"f\":";
  line += std::to_string(query.f);
  if (!std::isnan(query.beta)) {
    line += ",\"beta\":";
    append_real(line, query.beta);
  }
  line += ",\"window_lo\":";
  append_real(line, query.window_lo);
  line += ",\"window_hi\":";
  append_real(line, query.window_hi);
  line += ",\"interior_samples\":";
  line += std::to_string(query.interior_samples);
  line += ",\"regime\":\"";
  line += linesearch::svc::fault_regime_name(query.regime);
  line += '"';
  if (!query.crash_times.empty()) {
    line += ",\"crash_times\":[";
    for (std::size_t i = 0; i < query.crash_times.size(); ++i) {
      if (i > 0) line += ',';
      append_real(line, query.crash_times[i]);
    }
    line += ']';
  }
  line += '}';
  return line;
}

long long request_id(const int conn, const std::uint64_t index) {
  return static_cast<long long>(index * 4 + static_cast<std::uint64_t>(conn)) +
         1;
}

std::vector<Real> grid_windows(const std::uint64_t seed,
                               const std::uint64_t rep) {
  SplitMix64 rng(mix_seed(seed, kGridStream, rep));
  std::vector<Real> windows;
  const std::size_t count = regime_pairs().size() * kGridWindowsPerPair;
  windows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    windows.push_back(log_uniform(256, 4096, unit_of(rng.next() >> 11)));
  }
  return windows;
}

std::vector<ExpectedRow> expected_rows(const std::uint64_t seed,
                                       const std::uint64_t rep) {
  SplitMix64 rng(mix_seed(seed, kExpectedStream, rep));
  std::vector<ExpectedRow> rows;
  for (std::size_t pair = 0; pair < regime_pairs().size(); ++pair) {
    for (int k = 0; k < kGridWindowsPerPair; ++k) {
      ExpectedRow row;
      row.pair = pair;
      row.p = rng.uniform(0.05L, 0.5L);
      row.window_hi = log_uniform(8, 32, unit_of(rng.next() >> 11));
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace perfbench
