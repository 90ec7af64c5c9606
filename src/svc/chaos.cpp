#include "svc/chaos.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace linesearch::svc {
namespace {

/// Chaos-layer counters, in ChaosCounter order.  Injection totals depend
/// on traffic volume and arrival order, hence deterministic = false.
enum ChaosCounter : std::size_t {
  kChaosConnections, kCleanConnections, kFaultsInjected
};
constexpr obs::CounterRow kChaosCounters[] = {
    {"svc.chaos_connections", false},
    {"svc.chaos_clean_connections", false},
    {"svc.chaos_faults_injected", false},
};

void bump(const ChaosCounter counter) {
  static const auto ids = obs::register_counters(kChaosCounters);
  obs::count(ids[counter]);
}

/// Stream-private seed: decorrelates (connection, direction) pairs while
/// staying a pure function of the three inputs.
std::uint64_t stream_seed(const std::uint64_t seed,
                          const std::uint64_t connection,
                          const int direction) {
  std::uint64_t mixed = seed;
  mixed ^= 0x9E3779B97F4A7C15ULL * (connection + 1);
  mixed ^= 0xBF58476D1CE4E5B9ULL * static_cast<std::uint64_t>(direction + 1);
  return mixed;
}

}  // namespace

const char* wire_fault_kind_name(const WireFaultKind kind) {
  switch (kind) {
    case WireFaultKind::kSplit: return "split";
    case WireFaultKind::kHold: return "hold";
    case WireFaultKind::kGarbage: return "garbage";
    case WireFaultKind::kStall: return "stall";
    case WireFaultKind::kDisconnect: return "disconnect";
  }
  return "unknown";
}

bool connection_is_clean(const ChaosConfig& config,
                         const std::uint64_t connection) {
  if (config.seed == 0 || config.fault_cap <= 0) return true;
  if (config.clean_every <= 1) return false;
  const auto every = static_cast<std::uint64_t>(config.clean_every);
  return connection % every == every - 1;
}

std::vector<WireFault> fault_script(const ChaosConfig& config,
                                    const std::uint64_t connection,
                                    const int direction) {
  expects(direction == 0 || direction == 1,
          "chaos: direction must be 0 (to server) or 1 (to client)");
  std::vector<WireFault> script;
  if (connection_is_clean(config, connection)) return script;

  SplitMix64 rng(stream_seed(config.seed, connection, direction));
  const int count = rng.uniform_int(1, std::max(1, config.fault_cap));
  script.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    WireFault fault;
    const std::uint64_t window = std::max<std::uint64_t>(1, config.script_window);
    fault.at_byte = rng.next() % window;
    switch (rng.uniform_int(0, 4)) {
      case 0: fault.kind = WireFaultKind::kSplit; break;
      case 1:
        fault.kind = WireFaultKind::kHold;
        fault.param = static_cast<std::uint32_t>(rng.uniform_int(8, 96));
        break;
      case 2:
        fault.kind = WireFaultKind::kGarbage;
        fault.param = static_cast<std::uint32_t>(rng.uniform_int(
            1, static_cast<int>(std::max<std::uint32_t>(1, config.max_garbage))));
        break;
      case 3:
        fault.kind = WireFaultKind::kStall;
        fault.param = static_cast<std::uint32_t>(rng.uniform_int(
            1, static_cast<int>(std::max<std::uint32_t>(1, config.max_stall_ms))));
        break;
      default: fault.kind = WireFaultKind::kDisconnect; break;
    }
    script.push_back(fault);
  }
  std::stable_sort(script.begin(), script.end(),
                   [](const WireFault& a, const WireFault& b) {
                     return a.at_byte < b.at_byte;
                   });
  return script;
}

std::string describe_script(const std::vector<WireFault>& script) {
  if (script.empty()) return "clean";
  std::string out;
  for (const WireFault& fault : script) {
    if (!out.empty()) out += ',';
    out += wire_fault_kind_name(fault.kind);
    out += '@';
    out += std::to_string(fault.at_byte);
    if (fault.kind == WireFaultKind::kHold ||
        fault.kind == WireFaultKind::kGarbage) {
      out += 'x';
      out += std::to_string(fault.param);
    } else if (fault.kind == WireFaultKind::kStall) {
      out += 'x';
      out += std::to_string(fault.param);
      out += "ms";
    }
  }
  return out;
}

std::string garbage_bytes(const ChaosConfig& config,
                          const std::uint64_t connection, const int direction,
                          const std::uint64_t at_byte,
                          const std::uint32_t count) {
  // Alphabet {0x01..0x07, '\n'} only: util/jsonio rejects raw control
  // characters in every lexical position, so injected bytes can break a
  // frame but never silently alter a parsed value (svc/chaos.hpp).
  SplitMix64 rng(stream_seed(config.seed, connection, direction) ^
                 (0x94D049BB133111EBULL * (at_byte + 1)));
  std::string out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const int pick = rng.uniform_int(0, 7);
    out += pick == 7 ? '\n' : static_cast<char>(pick + 1);
  }
  return out;
}

ChaosStream::ChaosStream(const ChaosConfig& config,
                         const std::uint64_t connection, const int direction)
    : config_(config),
      connection_(connection),
      direction_(direction),
      script_(fault_script(config, connection, direction)) {}

void ChaosStream::emit_pending(std::vector<ChaosEvent>& events) {
  if (pending_.empty()) return;
  ChaosEvent event;
  event.kind = ChaosEvent::Kind::kDeliver;
  event.bytes = std::move(pending_);
  pending_.clear();
  events.push_back(std::move(event));
}

std::vector<ChaosEvent> ChaosStream::feed(const std::string_view data) {
  std::vector<ChaosEvent> events;
  if (disconnected_) return events;

  const auto fire_due = [&] {
    while (!disconnected_ && next_fault_ < script_.size() &&
           script_[next_fault_].at_byte <= offset_) {
      const WireFault& fault = script_[next_fault_++];
      bump(kFaultsInjected);
      switch (fault.kind) {
        case WireFaultKind::kSplit:
          // Forced delivery boundary: the receiver sees a partial write.
          emit_pending(events);
          break;
        case WireFaultKind::kHold:
          // Merged frames / delayed ACK: withhold delivery until
          // `param` more input bytes have been consumed.
          hold_until_ = std::max(hold_until_, offset_ + fault.param);
          break;
        case WireFaultKind::kGarbage:
          pending_ += garbage_bytes(config_, connection_, direction_,
                                    fault.at_byte, fault.param);
          break;
        case WireFaultKind::kStall: {
          emit_pending(events);
          ChaosEvent event;
          event.kind = ChaosEvent::Kind::kStall;
          event.stall_ms = fault.param;
          events.push_back(std::move(event));
          break;
        }
        case WireFaultKind::kDisconnect: {
          // Deliver what made it out, then drop the connection: the
          // receiver sees a truncated frame and EOF.
          emit_pending(events);
          ChaosEvent event;
          event.kind = ChaosEvent::Kind::kDisconnect;
          events.push_back(std::move(event));
          disconnected_ = true;
          break;
        }
      }
    }
  };

  fire_due();
  std::size_t pos = 0;
  while (pos < data.size() && !disconnected_) {
    std::uint64_t take = data.size() - pos;
    if (next_fault_ < script_.size()) {
      take = std::min<std::uint64_t>(take,
                                     script_[next_fault_].at_byte - offset_);
    }
    pending_.append(data.substr(pos, static_cast<std::size_t>(take)));
    pos += static_cast<std::size_t>(take);
    offset_ += take;
    fire_due();
  }

  if (!disconnected_ && offset_ >= hold_until_) emit_pending(events);
  return events;
}

std::vector<ChaosEvent> ChaosStream::flush() {
  std::vector<ChaosEvent> events;
  if (!disconnected_) emit_pending(events);
  return events;
}

ChaosLoopback::ChaosLoopback(QueryServer& server, const ChaosConfig& config)
    : server_(&server), config_(config) {}

bool ChaosLoopback::connect() {
  const std::uint64_t index = connections_++;
  bump(kChaosConnections);
  if (connection_is_clean(config_, index)) {
    bump(kCleanConnections);
  }
  to_server_ = std::make_unique<ChaosStream>(config_, index, 0);
  to_client_ = std::make_unique<ChaosStream>(config_, index, 1);
  server_buffer_.clear();
  client_inbox_.clear();
  inbox_next_ = 0;
  connected_ = true;
  return true;
}

void ChaosLoopback::route_to_client(const std::string_view bytes) {
  for (ChaosEvent& event : to_client_->feed(bytes)) {
    client_inbox_.push_back(std::move(event));
  }
}

bool ChaosLoopback::send_bytes(const std::string& data) {
  if (!connected_) return false;
  for (const ChaosEvent& event : to_server_->feed(data)) {
    switch (event.kind) {
      case ChaosEvent::Kind::kDeliver: {
        server_buffer_ += event.bytes;
        std::size_t line_start = 0;
        while (true) {
          const std::size_t newline = server_buffer_.find('\n', line_start);
          if (newline == std::string::npos) break;
          const std::string line =
              server_buffer_.substr(line_start, newline - line_start);
          line_start = newline + 1;
          if (line.empty()) continue;
          route_to_client(server_->handle_line(line) + '\n');
        }
        server_buffer_.erase(0, line_start);
        break;
      }
      case ChaosEvent::Kind::kStall: {
        // Request-path stall: in logical time the client's deadline
        // fires before anything queued behind the stall arrives.
        ChaosEvent stalled;
        stalled.kind = ChaosEvent::Kind::kStall;
        stalled.stall_ms = event.stall_ms;
        client_inbox_.push_back(std::move(stalled));
        break;
      }
      case ChaosEvent::Kind::kDisconnect: {
        ChaosEvent dropped;
        dropped.kind = ChaosEvent::Kind::kDisconnect;
        client_inbox_.push_back(std::move(dropped));
        break;
      }
    }
  }
  return true;
}

ClientTransport::ReadStatus ChaosLoopback::read_some(std::string& out,
                                                     int /*timeout_ms*/) {
  if (!connected_) return ReadStatus::kClosed;
  while (inbox_next_ < client_inbox_.size()) {
    const ChaosEvent& event = client_inbox_[inbox_next_++];
    switch (event.kind) {
      case ChaosEvent::Kind::kDeliver:
        if (event.bytes.empty()) continue;
        out += event.bytes;
        return ReadStatus::kData;
      case ChaosEvent::Kind::kStall:
        // The stall outlives the per-request deadline: surface a
        // timeout without sleeping.
        return ReadStatus::kTimeout;
      case ChaosEvent::Kind::kDisconnect:
        connected_ = false;
        return ReadStatus::kClosed;
    }
  }
  // Nothing queued and nothing more will arrive without another send:
  // the response (or its tail) never made it — the deadline fires.
  return ReadStatus::kTimeout;
}

void ChaosLoopback::disconnect() { connected_ = false; }

}  // namespace linesearch::svc
