// svc/server: the NDJSON wire protocol, the golden request/response
// corpus, and the socket lifecycle (serve / connect / drain).  The
// golden fixture pins the response BYTES for a corpus spanning all
// three fault regimes — regenerate deliberately with
//
//   LS_SVC_GOLDEN_REGEN=1 tests/svc_test --gtest_filter='SvcGolden*'
//
// Responses carry only values (no timestamps, no cache provenance), so
// the replay must be byte-identical on every machine, cache state, and
// thread count.
#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace svc {
namespace {

using verify::value_identical;

TEST(WireRequestParse, AppliesDefaultsAndOverrides) {
  const WireRequest defaults = parse_request(R"({"op": "cr"})");
  EXPECT_EQ(defaults.id, 0);
  EXPECT_EQ(defaults.query.n, 2);
  EXPECT_EQ(defaults.query.f, 1);
  EXPECT_TRUE(std::isnan(defaults.query.beta));
  EXPECT_EQ(defaults.query.regime, FaultRegime::kNone);

  const WireRequest full = parse_request(
      R"({"id": 7, "op": "cr", "n": 5, "f": 2, "beta": 2.5,)"
      R"( "window_lo": 2, "window_hi": 32, "interior_samples": 3,)"
      R"( "regime": "byzantine"})");
  EXPECT_EQ(full.id, 7);
  EXPECT_EQ(full.query.n, 5);
  EXPECT_EQ(full.query.f, 2);
  EXPECT_TRUE(value_identical(full.query.beta, 2.5L));
  EXPECT_TRUE(value_identical(full.query.window_hi, 32.0L));
  EXPECT_EQ(full.query.interior_samples, 3);
  EXPECT_EQ(full.query.regime, FaultRegime::kByzantine);

  const WireRequest crash = parse_request(
      R"({"op": "cr", "n": 3, "f": 1, "regime": "crash",)"
      R"( "crash_times": [2.0, "inf", "inf"]})");
  EXPECT_EQ(crash.query.regime, FaultRegime::kCrash);
  ASSERT_EQ(crash.query.crash_times.size(), 3u);
  EXPECT_TRUE(std::isinf(crash.query.crash_times[1]));
}

TEST(WireRequestParse, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_request("not json"), PreconditionError);
  EXPECT_THROW((void)parse_request(R"({"n": 3})"), PreconditionError);
  EXPECT_THROW((void)parse_request(R"({"op": "shutdown"})"),
               PreconditionError);
  EXPECT_THROW((void)parse_request(R"({"op": "cr", "regime": "weird"})"),
               PreconditionError);
}

TEST(QueryServerHandleLine, MatchesTheDirectPath) {
  QueryServer server;
  const std::string request =
      R"({"id": 3, "op": "cr", "n": 5, "f": 2, "window_hi": 16})";
  const std::string response = server.handle_line(request);
  CrQuery query;
  query.n = 5;
  query.f = 2;
  query.window_hi = 16;
  EXPECT_EQ(response, render_response(3, evaluate_query_direct(query)));
  // The warm (cached) pass must be byte-identical — the wire-level
  // determinism contract.
  EXPECT_EQ(server.handle_line(request), response);
  EXPECT_GT(server.service().stats().cache_hits, 0u);
}

TEST(QueryServerHandleLine, ErrorsNeverThrowAndNameTheProblem) {
  QueryServer server;
  const std::string malformed = server.handle_line("garbage");
  EXPECT_NE(malformed.find("\"ok\":false"), std::string::npos) << malformed;
  const std::string invalid =
      server.handle_line(R"({"id": 9, "op": "cr", "n": 4, "f": 1})");
  EXPECT_NE(invalid.find("\"id\":9"), std::string::npos) << invalid;
  EXPECT_NE(invalid.find("\"ok\":false"), std::string::npos) << invalid;
  EXPECT_EQ(server.stats().errors, 2u);
  EXPECT_EQ(server.stats().requests, 2u);
}

TEST(QueryServerHandleLine, RejectsAtTheAdmissionBound) {
  QueryServerOptions options;
  options.max_inflight = 0;  // every request is over the bound
  QueryServer server(options);
  const std::string response =
      server.handle_line(R"({"op": "cr", "n": 3, "f": 1})");
  EXPECT_NE(response.find("overloaded"), std::string::npos) << response;
  EXPECT_EQ(server.stats().rejected, 1u);
}

/// The golden corpus: one request per line, spanning defaults, explicit
/// beta, both infeasible and feasible Byzantine queries (the infeasible
/// one pins the non-finite codec on the wire), a crash schedule, a
/// canonicalization error, and three probabilistic queries — a
/// convergent p, a past-threshold p whose divergent expected CR pins
/// the "inf" codec on the wire, and an out-of-range fault_p error.
std::vector<std::string> golden_requests() {
  return {
      R"({"id": 1, "op": "cr"})",
      R"({"id": 2, "op": "cr", "n": 5, "f": 2, "window_hi": 16})",
      R"({"id": 3, "op": "cr", "n": 5, "f": 2, "beta": 2.5, "window_hi": 16})",
      R"({"id": 4, "op": "cr", "n": 5, "f": 2, "regime": "byzantine", "window_hi": 16})",
      R"({"id": 5, "op": "cr", "n": 4, "f": 2, "regime": "byzantine", "window_hi": 16})",
      R"({"id": 6, "op": "cr", "n": 3, "f": 1, "regime": "crash", "crash_times": [2.0, "inf", "inf"], "window_hi": 16})",
      R"({"id": 7, "op": "cr", "n": 4, "f": 1})",
      R"({"id": 8, "op": "cr", "n": 5, "f": 2, "regime": "probabilistic", "fault_p": 0.25, "window_hi": 16})",
      R"({"id": 9, "op": "cr", "n": 3, "f": 1, "regime": "probabilistic", "fault_p": 0.8, "window_hi": 16})",
      R"({"id": 10, "op": "cr", "n": 3, "f": 1, "regime": "probabilistic", "fault_p": 1.5, "window_hi": 16})",
  };
}

std::string serialize_golden(const std::vector<std::string>& requests,
                             const std::vector<std::string>& responses) {
  std::ostringstream out;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out << requests[i] << '\n' << responses[i] << '\n';
  }
  return out.str();
}

TEST(SvcGoldenWire, CorpusReplayIsByteIdentical) {
  const std::vector<std::string> requests = golden_requests();
  QueryServer server;
  std::vector<std::string> responses;
  responses.reserve(requests.size());
  for (const std::string& request : requests) {
    responses.push_back(server.handle_line(request));
  }
  // A second, warm replay through the SAME server must not change a
  // byte, and a fresh server must agree with the warm one.
  QueryServer fresh;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(server.handle_line(requests[i]), responses[i]) << requests[i];
    EXPECT_EQ(fresh.handle_line(requests[i]), responses[i]) << requests[i];
  }
  const std::string actual = serialize_golden(requests, responses);

  const std::string path = LS_SVC_GOLDEN_FIXTURE;
  if (std::getenv("LS_SVC_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " — regenerate with LS_SVC_GOLDEN_REGEN=1";
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), actual)
      << "wire responses diverged from the committed corpus; if the "
         "change is intended, regenerate with LS_SVC_GOLDEN_REGEN=1";
}

/// Minimal blocking NDJSON client for the socket tests.
class WireClient {
 public:
  explicit WireClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::strncpy(address.sun_path, path.c_str(),
                 sizeof(address.sun_path) - 1);
    // The server binds asynchronously; retry briefly.
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)) == 0) {
        connected_ = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return connected_; }

  [[nodiscard]] std::string round_trip(const std::string& line) {
    if (!send_raw(line + "\n")) return "";
    return read_line();
  }

  bool send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t wrote =
          ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (wrote <= 0) return false;
      sent += static_cast<std::size_t>(wrote);
    }
    return true;
  }

  [[nodiscard]] std::string read_line() {
    std::string response;
    char byte = 0;
    while (::read(fd_, &byte, 1) == 1) {
      if (byte == '\n') break;
      response.push_back(byte);
    }
    return response;
  }

  /// Every remaining response line until the server closes the socket.
  [[nodiscard]] std::vector<std::string> read_lines_until_eof() {
    std::vector<std::string> lines;
    std::string current;
    char byte = 0;
    while (::read(fd_, &byte, 1) == 1) {
      if (byte == '\n') {
        lines.push_back(current);
        current.clear();
      } else {
        current.push_back(byte);
      }
    }
    if (!current.empty()) lines.push_back(current);
    return lines;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(QueryServerSocket, ServesAndDrainsCleanly) {
  const std::string path = "/tmp/ls_svc_test_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.threads = 2;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  {
    WireClient client(path);
    ASSERT_TRUE(client.connected()) << "server never bound " << path;
    const std::string request =
        R"({"id": 11, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
    const std::string over_socket = client.round_trip(request);
    // The socket path and the in-process path are the same bytes.
    QueryServer reference;
    EXPECT_EQ(over_socket, reference.handle_line(request));
    // Errors keep the connection open.
    const std::string error = client.round_trip("garbage");
    EXPECT_NE(error.find("\"ok\":false"), std::string::npos) << error;
    const std::string again = client.round_trip(request);
    EXPECT_EQ(again, over_socket);
  }

  server.stop();
  accept_loop.join();
  EXPECT_GE(server.stats().connections, 1u);
  EXPECT_EQ(server.stats().requests, 3u);
  // Drain removed the socket file.
  std::ifstream gone(path);
  EXPECT_FALSE(gone.good());
}

/// The drain contract's reject half, deterministically: one visible
/// "draining" error per COMPLETE pending line, ids echoed whenever the
/// line parses, blank lines skipped, a trailing fragment (no newline =
/// never a request) ignored.
TEST(QueryServerHardening, DrainRejectLinesAnswerEveryPendingLine) {
  EXPECT_TRUE(drain_reject_lines("").empty());
  EXPECT_TRUE(drain_reject_lines("no newline yet").empty());
  const std::vector<std::string> rejections = drain_reject_lines(
      "{\"id\": 4, \"op\": \"cr\"}\n\nnot json\n{\"id\": 6}\ntail fragment");
  ASSERT_EQ(rejections.size(), 3u);
  const std::string reason = "draining: server is shutting down";
  EXPECT_EQ(rejections[0], render_error(4, reason));
  EXPECT_EQ(rejections[1], render_error(0, reason));
  EXPECT_EQ(rejections[2], render_error(6, reason));
}

/// Regression: a peer that closes without reading used to raise SIGPIPE
/// from the response write and kill the whole process.  MSG_NOSIGNAL in
/// write_line turns that into a counted EPIPE; the server — and this
/// very test binary — must survive and keep serving.
TEST(QueryServerSocket, SurvivesAPeerThatClosesWithoutReading) {
  const std::string path = "/tmp/ls_svc_epipe_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.threads = 2;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  {
    WireClient rude(path);
    ASSERT_TRUE(rude.connected()) << "server never bound " << path;
    // A cold evaluation outlives the peer's immediate close below, so
    // the response write lands on a closed socket.
    ASSERT_TRUE(rude.send_raw(
        R"({"id": 1, "op": "cr", "n": 6, "f": 2, "window_hi": 1024})"
        "\n"));
  }  // closed before reading a byte

  WireClient polite(path);
  ASSERT_TRUE(polite.connected());
  const std::string request =
      R"({"id": 2, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  QueryServer reference;
  EXPECT_EQ(polite.round_trip(request), reference.handle_line(request));

  server.stop();
  accept_loop.join();
  EXPECT_GE(server.stats().connections, 2u);
  EXPECT_GE(server.stats().write_failures, 1u);
}

TEST(QueryServerSocket, OversizedFrameIsRejectedVisiblyThenClosed) {
  const std::string path = "/tmp/ls_svc_frame_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.max_request_bytes = 64;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  {
    WireClient client(path);
    ASSERT_TRUE(client.connected()) << "server never bound " << path;
    // A newline-free line that outgrew the bound can only get worse:
    // the server answers with a structured rejection, then closes.
    ASSERT_TRUE(client.send_raw(std::string(256, 'a')));
    const std::vector<std::string> lines = client.read_lines_until_eof();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("malformed: request line exceeds 64 bytes"),
              std::string::npos)
        << lines[0];
  }

  // The rejection closed ONE connection, not the server.
  WireClient next(path);
  ASSERT_TRUE(next.connected());
  const std::string request =
      R"({"id": 3, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  EXPECT_NE(next.round_trip(request).find("\"ok\":true"),
            std::string::npos);

  server.stop();
  accept_loop.join();
  EXPECT_EQ(server.stats().frame_rejected, 1u);
}

TEST(QueryServerSocket, IdleConnectionsExpireEvenWhileTrickling) {
  const std::string path = "/tmp/ls_svc_idle_to_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.idle_timeout_ms = 50;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  WireClient client(path);
  ASSERT_TRUE(client.connected()) << "server never bound " << path;
  // A complete request resets the idle clock...
  const std::string request =
      R"({"id": 4, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  EXPECT_NE(client.round_trip(request).find("\"ok\":true"),
            std::string::npos);
  // ...but a dribbled partial line does NOT: the slowloris pattern
  // expires exactly like silence, with a structured timeout then close.
  ASSERT_TRUE(client.send_raw("{\"id\": 5"));
  const std::vector<std::string> lines = client.read_lines_until_eof();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("timeout: connection idle beyond 50 ms"),
            std::string::npos)
      << lines[0];

  server.stop();
  accept_loop.join();
  EXPECT_EQ(server.stats().idle_closed, 1u);
}

TEST(QueryServerSocket, GarbageBytesKeepTheConnectionAndServerAlive) {
  const std::string path = "/tmp/ls_svc_garbage_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServer server;
  std::thread accept_loop([&server, &path] { server.serve(path); });

  WireClient client(path);
  ASSERT_TRUE(client.connected()) << "server never bound " << path;
  // The chaos injector's whole garbage alphabet, framed as a line: a
  // structured parse error comes back and the connection stays open.
  ASSERT_TRUE(client.send_raw("\x01\x02\x03\x04\x05\x06\x07\n"));
  const std::string error = client.read_line();
  EXPECT_NE(error.find("\"ok\":false"), std::string::npos) << error;
  EXPECT_NE(error.find("\"id\":0"), std::string::npos) << error;
  const std::string request =
      R"({"id": 6, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  EXPECT_NE(client.round_trip(request).find("\"ok\":true"),
            std::string::npos);

  server.stop();
  accept_loop.join();
}

/// The drain contract over a live socket: a burst already in the socket
/// when stop() lands is never silently dropped — every request draws
/// either its genuine answer or a visible "draining" rejection, the
/// counts reconcile, serve() returns, and the socket file is unlinked.
TEST(QueryServerSocket, DrainMidBurstAnswersOrRejectsEveryRequest) {
  const std::string path = "/tmp/ls_svc_burst_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServerOptions options;
  options.threads = 2;
  QueryServer server(options);
  std::thread accept_loop([&server, &path] { server.serve(path); });

  WireClient client(path);
  ASSERT_TRUE(client.connected()) << "server never bound " << path;
  const std::string warm =
      R"({"id": 1, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  EXPECT_NE(client.round_trip(warm).find("\"ok\":true"),
            std::string::npos);

  // The burst is written BEFORE stop(), so the bytes are queued when the
  // server observes the flag: the drain owes each line a response.
  std::ostringstream burst;
  for (int id = 2; id <= 6; ++id) {
    burst << R"({"id": )" << id
          << R"(, "op": "cr", "n": 3, "f": 1, "window_hi": 8})" << "\n";
  }
  ASSERT_TRUE(client.send_raw(burst.str()));
  server.stop();
  const std::vector<std::string> responses = client.read_lines_until_eof();
  accept_loop.join();

  ASSERT_EQ(responses.size(), 5u);
  std::uint64_t drained = 0;
  for (const std::string& response : responses) {
    const bool answered =
        response.find("\"ok\":true") != std::string::npos;
    const bool rejected = response.find("draining") != std::string::npos;
    EXPECT_TRUE(answered || rejected) << response;
    if (rejected) ++drained;
  }
  EXPECT_EQ(server.stats().drain_rejected, drained);
  std::ifstream gone(path);
  EXPECT_FALSE(gone.good());
}

/// Counter parity: one scripted session reaches every Stats field but
/// coalesced (which needs racing callers), each with an exact expected
/// value, and — with the obs layer compiled in — every svc.* registry
/// counter moves by exactly its Stats field.  The overload needs its own
/// server (max_inflight = 0 rejects everything), so the registry deltas
/// are compared with the two servers' sums.
TEST(QueryServerStats, EveryFieldMatchesItsRegistryCounter) {
  const auto registry_value = [](const std::string& name) {
    for (const obs::MetricSnapshot& metric :
         obs::Registry::instance().snapshot()) {
      if (metric.name == name) return metric.value;
    }
    return std::uint64_t{0};
  };
  using Wire = QueryServer::Stats;
  using Svc = QueryService::Stats;
  const std::vector<std::pair<std::string, std::uint64_t Wire::*>>
      wire_names = {{"svc.requests", &Wire::requests},
                    {"svc.errors", &Wire::errors},
                    {"svc.rejected", &Wire::rejected},
                    {"svc.connections", &Wire::connections},
                    {"svc.frame_rejected", &Wire::frame_rejected},
                    {"svc.deadline_idle_closed", &Wire::idle_closed},
                    {"svc.drain_rejected", &Wire::drain_rejected},
                    {"svc.write_failures", &Wire::write_failures},
                    {"svc.deadline_write_timeout", &Wire::write_timeouts}};
  const std::vector<std::pair<std::string, std::uint64_t Svc::*>>
      svc_names = {{"svc.queries", &Svc::queries},
                   {"svc.cache_hits", &Svc::cache_hits},
                   {"svc.coalesced", &Svc::coalesced},
                   {"svc.evaluations", &Svc::evaluations},
                   {"svc.backend_builds", &Svc::backend_builds},
                   {"svc.backend_hits", &Svc::backend_hits},
                   {"svc.evictions", &Svc::evictions}};
  std::vector<std::uint64_t> before;
  for (const auto& [name, field] : wire_names) {
    before.push_back(registry_value(name));
  }
  for (const auto& [name, field] : svc_names) {
    before.push_back(registry_value(name));
  }

  const std::string pid = std::to_string(::getpid());
  const std::string path = "/tmp/ls_svc_parity_" + pid + ".sock";
  QueryServerOptions options;
  options.service.shard_count = 1;
  options.service.shard_capacity = 1;  // the second distinct query evicts
  options.max_request_bytes = 64;
  options.idle_timeout_ms = 50;
  options.snapshot_path = "/tmp/ls_svc_parity_missing_" + pid + "/cache.snap";
  QueryServer server(options);

  const std::string cold = R"({"id": 1, "op": "cr", "n": 3, "f": 1})";
  EXPECT_NE(server.handle_line(cold).find("\"ok\":true"), std::string::npos);
  EXPECT_NE(server.handle_line(cold).find("\"ok\":true"), std::string::npos);
  // Same (n, f) backend, different window: a backend hit and an eviction.
  const std::string other =
      R"({"id": 2, "op": "cr", "n": 3, "f": 1, "window_hi": 8})";
  EXPECT_NE(server.handle_line(other).find("\"ok\":true"),
            std::string::npos);
  const std::string malformed = server.handle_line("garbage");
  EXPECT_NE(malformed.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(malformed.find(".cpp:"), std::string::npos) << malformed;

  std::thread accept_loop([&server, &path] { server.serve(path); });
  {
    WireClient oversized(path);
    ASSERT_TRUE(oversized.connected()) << "server never bound " << path;
    ASSERT_TRUE(oversized.send_raw(std::string(256, 'a')));
    EXPECT_EQ(oversized.read_lines_until_eof().size(), 1u);
  }
  {
    WireClient idle(path);
    ASSERT_TRUE(idle.connected());
    const std::vector<std::string> lines = idle.read_lines_until_eof();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("timeout"), std::string::npos) << lines[0];
  }
  server.stop();
  accept_loop.join();  // the drain-time snapshot save fails: no directory

  QueryServerOptions overload_options;
  overload_options.max_inflight = 0;
  QueryServer overload(overload_options);
  EXPECT_NE(overload.handle_line(cold).find("overloaded"), std::string::npos);

  const Wire wire = server.stats();
  EXPECT_EQ(wire.requests, 4u);
  EXPECT_EQ(wire.errors, 1u);
  EXPECT_EQ(wire.rejected, 0u);
  EXPECT_EQ(wire.connections, 2u);
  EXPECT_EQ(wire.frame_rejected, 1u);
  EXPECT_EQ(wire.idle_closed, 1u);
  EXPECT_EQ(wire.drain_rejected, 0u);
  EXPECT_EQ(wire.write_failures, 1u);
  EXPECT_EQ(wire.write_timeouts, 0u);
  const Wire shed = overload.stats();
  EXPECT_EQ(shed.requests, 1u);
  EXPECT_EQ(shed.errors, 1u);
  EXPECT_EQ(shed.rejected, 1u);
  EXPECT_EQ(shed.connections + shed.frame_rejected + shed.idle_closed +
                shed.drain_rejected + shed.write_failures +
                shed.write_timeouts,
            0u);
  const Svc svc = server.service().stats();
  EXPECT_EQ(svc.queries, 3u);
  EXPECT_EQ(svc.cache_hits, 1u);
  EXPECT_EQ(svc.coalesced, 0u);
  EXPECT_EQ(svc.evaluations, 2u);
  EXPECT_EQ(svc.backend_builds, 1u);
  EXPECT_EQ(svc.backend_hits, 1u);
  EXPECT_EQ(svc.evictions, 1u);
  const Svc shed_svc = overload.service().stats();
  EXPECT_EQ(shed_svc.queries + shed_svc.evaluations, 0u);

  if constexpr (obs::kEnabled) {
    std::size_t i = 0;
    for (const auto& [name, field] : wire_names) {
      EXPECT_EQ(registry_value(name) - before[i++],
                wire.*field + shed.*field)
          << name;
    }
    for (const auto& [name, field] : svc_names) {
      EXPECT_EQ(registry_value(name) - before[i++],
                svc.*field + shed_svc.*field)
          << name;
    }
  }
}

TEST(QueryServerSocket, StopWithoutConnectionsReturnsPromptly) {
  const std::string path = "/tmp/ls_svc_idle_" +
                           std::to_string(::getpid()) + ".sock";
  QueryServer server;
  std::thread accept_loop([&server, &path] { server.serve(path); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  accept_loop.join();
  EXPECT_EQ(server.stats().connections, 0u);
}

}  // namespace
}  // namespace svc
}  // namespace linesearch
