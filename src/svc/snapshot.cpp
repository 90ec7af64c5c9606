#include "svc/snapshot.hpp"

#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/jsonio.hpp"

namespace linesearch::svc {
namespace {

/// Snapshot lifecycle counters (I/O and operator dependent, hence
/// deterministic = false), in SnapshotCounter order.
enum SnapshotCounter : std::size_t {
  kSaved, kRestored, kRejected, kEntriesRestored
};
constexpr obs::CounterRow kSnapshotCounters[] = {
    {"svc.snapshot_saved", false},
    {"svc.snapshot_restored", false},
    {"svc.snapshot_rejected", false},
    {"svc.snapshot_entries_restored", false},
};

void bump(const SnapshotCounter counter, const std::uint64_t delta = 1) {
  static const auto ids = obs::register_counters(kSnapshotCounters);
  obs::count(ids[counter], delta);
}

std::string hex16(const std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = digits[(value >> (4 * i)) & 0xFu];
  }
  return out;
}

std::string render_entry(const QueryService::CacheEntry& entry) {
  std::ostringstream out;
  JsonWriter json(out, /*compact=*/true);
  json.begin_object();
  json.field("key", entry.key);
  json.field("feasible", entry.result.feasible);
  json.field("cr", entry.result.cr);
  json.field("argmax", entry.result.argmax);
  json.field("cr_positive", entry.result.cr_positive);
  json.field("cr_negative", entry.result.cr_negative);
  json.field("probes", entry.result.probes);
  json.field("undetected_probes", entry.result.undetected_probes);
  json.end_object();
  return out.str();
}

QueryService::CacheEntry parse_entry(const std::string& line) {
  const JsonValue doc = parse_json(line);
  expects(doc.is_object(), "snapshot: entry is not an object");
  QueryService::CacheEntry entry;
  entry.key = doc.at("key").as_string();
  entry.result.feasible = doc.at("feasible").as_bool();
  entry.result.cr = doc.at("cr").as_real();
  entry.result.argmax = doc.at("argmax").as_real();
  entry.result.cr_positive = doc.at("cr_positive").as_real();
  entry.result.cr_negative = doc.at("cr_negative").as_real();
  const long long probes = doc.at("probes").as_int();
  const long long undetected = doc.at("undetected_probes").as_int();
  expects(probes >= 0 && probes <= INT_MAX && undetected >= 0 &&
              undetected <= INT_MAX,
          "snapshot: probe counts out of range");
  entry.result.probes = static_cast<int>(probes);
  entry.result.undetected_probes = static_cast<int>(undetected);
  return entry;
}

SnapshotLoadReport reject(const std::string& reason) {
  bump(kRejected);
  SnapshotLoadReport report;
  report.error = reason;
  return report;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string render_snapshot(const QueryService& service) {
  const std::vector<QueryService::CacheEntry> entries =
      service.export_cache();
  std::string payload = kSnapshotMagic;
  payload += '\n';
  payload += "{\"entries\":" + std::to_string(entries.size()) + "}\n";
  for (const QueryService::CacheEntry& entry : entries) {
    payload += render_entry(entry);
    payload += '\n';
  }
  payload += "checksum:" + hex16(fnv1a64(payload)) + '\n';
  return payload;
}

SnapshotWriteReport save_snapshot(const QueryService& service,
                                  const std::string& path) {
  expects(!path.empty(), "snapshot: path must be non-empty");
  const std::string payload = render_snapshot(service);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("snapshot: cannot open " + tmp + " for writing");
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) throw Error("snapshot: write to " + tmp + " failed");
  }
  // rename(2) is atomic within a filesystem: readers see either the old
  // snapshot or the new one, never a torn write.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("snapshot: rename " + tmp + " -> " + path + " failed");
  }
  bump(kSaved);
  SnapshotWriteReport report;
  report.entries = service.cached_count();
  report.bytes = payload.size();
  return report;
}

SnapshotLoadReport load_snapshot(QueryService& service,
                                 const std::string& path) noexcept {
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) return reject("snapshot: cannot open " + path);
    std::ostringstream slurp;
    slurp << in.rdbuf();
    const std::string payload = slurp.str();

    // Split off the trailing checksum line and verify it first: any
    // bit flip in the body is caught before a single record is parsed.
    const std::string tail = "checksum:";
    const std::size_t checksum_at = payload.rfind(tail);
    if (checksum_at == std::string::npos ||
        payload.size() != checksum_at + tail.size() + 17 ||
        payload.back() != '\n') {
      return reject("snapshot: missing or malformed checksum line");
    }
    const std::string body = payload.substr(0, checksum_at);
    const std::string claimed =
        payload.substr(checksum_at + tail.size(), 16);
    if (claimed != hex16(fnv1a64(body))) {
      return reject("snapshot: checksum mismatch (corrupted file)");
    }

    // Version gate, entry count, then every record — all validated
    // before the first import so a rejection leaves the cache cold.
    std::istringstream lines(body);
    std::string line;
    if (!std::getline(lines, line) || line != kSnapshotMagic) {
      return reject("snapshot: version mismatch (want " +
                    std::string(kSnapshotMagic) + ", got '" + line + "')");
    }
    if (!std::getline(lines, line)) {
      return reject("snapshot: missing entry-count line");
    }
    const JsonValue header = parse_json(line);
    const long long declared = header.at("entries").as_int();
    if (declared < 0) return reject("snapshot: negative entry count");

    std::vector<QueryService::CacheEntry> entries;
    entries.reserve(static_cast<std::size_t>(declared));
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      entries.push_back(parse_entry(line));
    }
    if (entries.size() != static_cast<std::size_t>(declared)) {
      return reject("snapshot: entry count mismatch (declared " +
                    std::to_string(declared) + ", found " +
                    std::to_string(entries.size()) + ")");
    }

    SnapshotLoadReport report;
    report.entries = service.import_cache(entries);
    report.ok = true;
    bump(kRestored);
    bump(kEntriesRestored, report.entries);
    return report;
  } catch (const std::exception& failure) {
    return reject(std::string("snapshot: ") + failure.what());
  }
}

}  // namespace linesearch::svc
