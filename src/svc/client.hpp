// svc/client.hpp — the resilient wire client.
//
// Queries are pure (docs/service.md's determinism contract), so a
// retry can never double-apply anything: re-issuing a request on a
// fresh connection is always safe.  QueryClient exploits exactly that —
// per-attempt deadlines, capped exponential backoff with seeded jitter,
// and connection re-establishment — and promises the one property the
// chaos differential pins: it NEVER returns a wrong answer.  Every call
// ends in one of
//   * success: a response line that parsed, echoed the request id, and
//     is therefore byte-exactly the server's intended response (a
//     proper prefix of a JSON object never parses, and injected garbage
//     bytes are rejected by util/jsonio everywhere — see svc/chaos.hpp);
//   * a structured failure: attempts exhausted / deadline exceeded,
//     reported in ClientResult::error — never a corrupted value.
//
// Transports are pluggable: SocketTransport speaks AF_UNIX with
// poll-bounded reads (what tools/client_main and the CI chaos replay
// use); svc/chaos.hpp's ChaosLoopback wires the same client logic
// straight into an in-process QueryServer under logical time (what
// verify::diff_chaos_vs_library and the fuzzer's wire route use).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "svc/query.hpp"

namespace linesearch::svc {

/// Byte transport under the client.  One connection at a time; the
/// client reconnects by disconnect() + connect().
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;

  /// Open a fresh connection.  false = connection refused / unavailable.
  virtual bool connect() = 0;
  [[nodiscard]] virtual bool connected() const = 0;

  /// Send all of `data` on the current connection.  false = broken.
  virtual bool send_bytes(const std::string& data) = 0;

  enum class ReadStatus {
    kData,     ///< bytes were appended to `out`
    kTimeout,  ///< nothing arrived within timeout_ms
    kClosed,   ///< peer closed / connection broken
  };
  /// Wait up to timeout_ms for bytes; append them to `out`.
  virtual ReadStatus read_some(std::string& out, int timeout_ms) = 0;

  virtual void disconnect() = 0;
};

/// AF_UNIX transport with poll-bounded connect/read and EPIPE-tolerant
/// (MSG_NOSIGNAL) writes.
class SocketTransport final : public ClientTransport {
 public:
  explicit SocketTransport(std::string socket_path);
  ~SocketTransport() override;

  bool connect() override;
  [[nodiscard]] bool connected() const override { return fd_ >= 0; }
  bool send_bytes(const std::string& data) override;
  ReadStatus read_some(std::string& out, int timeout_ms) override;
  void disconnect() override;

 private:
  std::string socket_path_;
  int fd_ = -1;
};

/// Retry/deadline policy.  Defaults suit a local socket; the chaos
/// differential shrinks the timings to zero-cost logical time.
struct ClientOptions {
  std::string socket_path;        ///< SocketTransport target
  int request_timeout_ms = 2000;  ///< per-attempt response deadline
  int max_attempts = 8;           ///< total attempts per call
  int backoff_initial_ms = 1;     ///< doubles per attempt...
  int backoff_cap_ms = 64;        ///< ...up to this cap
  std::uint64_t jitter_seed = 0x5eed;  ///< SplitMix64 jitter substrate
  /// false: compute backoff deterministically but do not sleep —
  /// loopback differentials run in logical time.
  bool sleep_on_backoff = true;
};

/// Outcome of one call.  `ok` means an AUTHORITATIVE response line was
/// received (it may itself carry {"ok":false} for a query the server
/// rejected — that is the server's genuine answer, not a transport
/// failure).  !ok means the transport never yielded one: `error` says
/// why, `timed_out` flags deadline exhaustion specifically.
struct ClientResult {
  bool ok = false;
  bool timed_out = false;
  std::string response;  ///< exact response line, no trailing newline
  std::string error;
  int attempts = 0;    ///< attempts consumed (>= 1)
  int reconnects = 0;  ///< connections re-established
};

/// The resilient client.  Not thread-safe: one outstanding request per
/// client (lock-step, like every wire consumer in this repo).
class QueryClient {
 public:
  /// Socket transport to options.socket_path.
  explicit QueryClient(ClientOptions options);
  /// Custom transport (chaos loopback, test fakes).
  QueryClient(ClientOptions options, std::unique_ptr<ClientTransport> transport);
  ~QueryClient();

  /// Issue one raw request line (no trailing newline).  The line's "id"
  /// field is the match key; ids >= 1 are required for full corruption
  /// detection (the server answers unparseable requests with id 0, so a
  /// 0-id response to a nonzero-id request is provably a damaged or
  /// foreign frame and is retried).
  [[nodiscard]] ClientResult call_line(const std::string& request_line);

  /// Render and issue a CrQuery (id >= 1 enforced).
  [[nodiscard]] ClientResult call(long long id, const CrQuery& query);

 private:
  ClientOptions options_;
  std::unique_ptr<ClientTransport> transport_;
};

/// Render the wire request line for a query (compact JSON, no trailing
/// newline) — the inverse of svc::parse_request for canonical fields.
[[nodiscard]] std::string render_request(long long id, const CrQuery& query);

}  // namespace linesearch::svc
