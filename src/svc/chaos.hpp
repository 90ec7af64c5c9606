// svc/chaos.hpp — deterministic wire fault injection for the service.
//
// The paper's discipline applied to the serving layer: assume the wire
// misbehaves adversarially and prove the answer is still exact.  A
// chaos channel perturbs a byte stream with partial writes (forced
// delivery boundaries), merged frames (held bytes), garbage bytes,
// mid-stream disconnects, and stalls/delayed ACKs — every fault a PURE
// FUNCTION of (seed, connection index, direction, byte offset) on the
// shared SplitMix64 substrate, so a failing (seed, fault-script) pair
// replays bit-identically in a fuzzer repro.
//
// Two consumers share the same transform:
//   * `tools/chaos_proxy` — an AF_UNIX man-in-the-middle relaying real
//     sockets through a ChaosStream per direction (stalls sleep for
//     real, disconnects shut the sockets down);
//   * `ChaosLoopback` — an in-process ClientTransport wiring a
//     resilient QueryClient straight into QueryServer::handle_line
//     through the same byte transform, with LOGICAL time (a stall
//     surfaces as a deadline timeout instead of a sleep), which is what
//     verify::diff_chaos_vs_library and the fuzzer's wire route
//     run — fast, deterministic, no real sockets.
//
// Soundness of the bit-identical differential: garbage bytes are drawn
// only from {0x01..0x07} ∪ {'\n'}.  util/jsonio rejects raw control
// characters everywhere — inside strings, numbers, and between tokens —
// so an injected byte can NEVER silently alter a parsed value: either
// the frame fails to parse (the client retries) or, for an injected
// '\n' landing exactly on a frame boundary, the split is harmless.  A
// proper prefix of a JSON object is never valid JSON, so any line that
// parses AND echoes the expected id is byte-exactly the server's
// intended response.
//
// Liveness: every `clean_every`-th connection carries an empty fault
// script (connection_is_clean), so a client that reconnects on failure
// reaches a clean channel within clean_every attempts — the property
// that makes the 120-seed corpus deterministically green.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "svc/client.hpp"
#include "svc/server.hpp"

namespace linesearch::svc {

/// One fault kind a wire script can schedule.
enum class WireFaultKind {
  kSplit,       ///< force a delivery boundary at the offset (partial write)
  kHold,        ///< hold bytes from the offset until `param` more arrive
                ///< (merged frames / delayed ACK)
  kGarbage,     ///< inject `param` garbage bytes at the offset
  kStall,       ///< pause `param` ms at the offset (loopback: deadline fires)
  kDisconnect,  ///< drop the connection at the offset
};

/// Stable spelling for repros and docs.
[[nodiscard]] const char* wire_fault_kind_name(WireFaultKind kind);

/// One scheduled fault: fires when the stream's cumulative INPUT byte
/// offset reaches `at_byte`.
struct WireFault {
  std::uint64_t at_byte = 0;
  WireFaultKind kind = WireFaultKind::kSplit;
  std::uint32_t param = 0;
};

/// The chaos channel's knobs.  seed = 0 is the documented clean channel:
/// every script is empty regardless of the other knobs.
struct ChaosConfig {
  std::uint64_t seed = 0;
  /// Max faults per (connection, direction) — the shrinker walks this
  /// toward 0 to minimize a failing fault script.
  int fault_cap = 3;
  /// Every clean_every-th connection (index % clean_every ==
  /// clean_every - 1) is relayed untouched: the liveness guarantee.
  int clean_every = 4;
  std::uint32_t max_garbage = 12;   ///< garbage bytes per kGarbage fault
  std::uint32_t max_stall_ms = 40;  ///< real-time stall bound (proxy only)
  /// Fault offsets are drawn in [0, script_window): early enough to hit
  /// single-request exchanges.
  std::uint64_t script_window = 192;
};

/// Liveness guarantee: does this connection index carry an empty script?
[[nodiscard]] bool connection_is_clean(const ChaosConfig& config,
                                       std::uint64_t connection);

/// The fault script for one (connection, direction) — a pure function of
/// (config.seed, connection, direction), sorted by at_byte.  direction 0
/// is client->server, 1 is server->client.
[[nodiscard]] std::vector<WireFault> fault_script(const ChaosConfig& config,
                                                  std::uint64_t connection,
                                                  int direction);

/// Human/JSON-readable rendering of one script: e.g.
/// "garbage@17x4,split@60,stall@88x20ms".  Empty script -> "clean".
[[nodiscard]] std::string describe_script(
    const std::vector<WireFault>& script);

/// Deterministic garbage for a kGarbage fault: bytes from
/// {0x01..0x07, '\n'} only (see the soundness note above).
[[nodiscard]] std::string garbage_bytes(const ChaosConfig& config,
                                        std::uint64_t connection,
                                        int direction, std::uint64_t at_byte,
                                        std::uint32_t count);

/// What a ChaosStream tells its consumer to do, in order.
struct ChaosEvent {
  enum class Kind { kDeliver, kStall, kDisconnect };
  Kind kind = Kind::kDeliver;
  std::string bytes;           ///< kDeliver payload
  std::uint32_t stall_ms = 0;  ///< kStall duration
};

/// Applies one (connection, direction)'s fault script to a byte stream.
/// Feed input as it arrives; obey the returned events in order.  After a
/// kDisconnect event the stream is dead: further feeds return nothing.
class ChaosStream {
 public:
  ChaosStream(const ChaosConfig& config, std::uint64_t connection,
              int direction);

  /// Push input bytes through the script.
  [[nodiscard]] std::vector<ChaosEvent> feed(std::string_view data);

  /// Release any held bytes (call at upstream EOF).
  [[nodiscard]] std::vector<ChaosEvent> flush();

  [[nodiscard]] bool disconnected() const { return disconnected_; }

 private:
  void emit_pending(std::vector<ChaosEvent>& events);

  ChaosConfig config_;
  std::uint64_t connection_ = 0;
  int direction_ = 0;
  std::vector<WireFault> script_;
  std::size_t next_fault_ = 0;
  std::uint64_t offset_ = 0;      ///< cumulative input bytes consumed
  std::uint64_t hold_until_ = 0;  ///< suppress delivery until this offset
  std::string pending_;           ///< output accumulated, not yet delivered
  bool disconnected_ = false;
};

/// In-process chaos transport: a QueryClient on one side,
/// QueryServer::handle_line on the other, both directions routed through
/// ChaosStreams.  Time is logical — a stall event surfaces as a read
/// timeout (the per-request deadline "fires"), a disconnect as a closed
/// connection — so differentials and fuzz runs are fast and exactly
/// reproducible.  Single-threaded use only (one client).
class ChaosLoopback final : public ClientTransport {
 public:
  ChaosLoopback(QueryServer& server, const ChaosConfig& config);

  bool connect() override;
  [[nodiscard]] bool connected() const override { return connected_; }
  bool send_bytes(const std::string& data) override;
  ReadStatus read_some(std::string& out, int timeout_ms) override;
  void disconnect() override;

  /// Connections opened so far (== reconnects + 1 once used).
  [[nodiscard]] std::uint64_t connections() const { return connections_; }

 private:
  void route_to_client(std::string_view bytes);

  QueryServer* server_;
  ChaosConfig config_;
  std::uint64_t connections_ = 0;
  bool connected_ = false;
  std::unique_ptr<ChaosStream> to_server_;
  std::unique_ptr<ChaosStream> to_client_;
  std::string server_buffer_;           ///< bytes delivered server-side
  std::vector<ChaosEvent> client_inbox_;  ///< events awaiting read_some
  std::size_t inbox_next_ = 0;
};

}  // namespace linesearch::svc
