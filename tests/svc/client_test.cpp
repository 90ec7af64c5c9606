// svc/client: the resilient wire client.  The contract under test is
// the one the chaos differential pins — the client NEVER returns a
// wrong answer: every call ends in either the server's exact intended
// response bytes or a structured failure.  Scripted fake transports pin
// the retry/deadline/corruption-detection paths one at a time; the
// chaos loopback then hammers the whole loop across seeds.
#include "svc/client.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "svc/chaos.hpp"
#include "svc/server.hpp"
#include "util/error.hpp"

namespace linesearch {
namespace svc {
namespace {

ClientOptions fast_options() {
  ClientOptions options;
  options.sleep_on_backoff = false;  // logical time in tests
  options.request_timeout_ms = 50;
  return options;
}

/// A transport whose every connection replays a scripted byte sequence.
/// Each inner vector is one connection's read results; an empty string
/// means "closed".
class ScriptedTransport final : public ClientTransport {
 public:
  explicit ScriptedTransport(std::vector<std::vector<std::string>> connections)
      : connections_(std::move(connections)) {}

  bool connect() override {
    if (next_connection_ >= connections_.size()) return false;
    reads_ = connections_[next_connection_++];
    next_read_ = 0;
    connected_ = true;
    return true;
  }
  [[nodiscard]] bool connected() const override { return connected_; }
  bool send_bytes(const std::string& data) override {
    sent_ += data;
    return connected_;
  }
  ReadStatus read_some(std::string& out, int /*timeout_ms*/) override {
    if (!connected_) return ReadStatus::kClosed;
    if (next_read_ >= reads_.size()) return ReadStatus::kTimeout;
    const std::string& chunk = reads_[next_read_++];
    if (chunk.empty()) {
      connected_ = false;
      return ReadStatus::kClosed;
    }
    out += chunk;
    return ReadStatus::kData;
  }
  void disconnect() override { connected_ = false; }

  [[nodiscard]] std::size_t connections_used() const {
    return next_connection_;
  }
  [[nodiscard]] const std::string& sent() const { return sent_; }

 private:
  std::vector<std::vector<std::string>> connections_;
  std::vector<std::string> reads_;
  std::size_t next_read_ = 0;
  std::size_t next_connection_ = 0;
  bool connected_ = false;
  std::string sent_;
};

QueryClient make_client(ClientOptions options,
                        std::vector<std::vector<std::string>> script) {
  return QueryClient(std::move(options), std::make_unique<ScriptedTransport>(
                                             std::move(script)));
}

TEST(RenderRequest, RoundTripsThroughTheServerParser) {
  CrQuery query;
  query.n = 5;
  query.f = 2;
  query.window_hi = 16;
  query.regime = FaultRegime::kCrash;
  query.crash_times = {2.0L, kInfinity, kInfinity, kInfinity, kInfinity};
  const std::string line = render_request(9, query);
  const WireRequest parsed = parse_request(line);
  EXPECT_EQ(parsed.id, 9);
  EXPECT_EQ(parsed.query.n, 5);
  EXPECT_EQ(parsed.query.f, 2);
  EXPECT_EQ(parsed.query.regime, FaultRegime::kCrash);
  ASSERT_EQ(parsed.query.crash_times.size(), 5u);
  EXPECT_EQ(query_key(parsed.query), query_key(query));
}

TEST(QueryClient, FirstTryDeliversTheExactResponseLine) {
  const std::string response = R"({"id":1,"ok":true,"feasible":true})";
  QueryClient client =
      make_client(fast_options(), {{response + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 1, "op": "cr"})");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response, response);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.reconnects, 0);
}

TEST(QueryClient, SplitFramesReassembleBeforeTheDeadline) {
  const std::string response = R"({"id":2,"ok":true,"feasible":true})";
  QueryClient client = make_client(
      fast_options(),
      {{response.substr(0, 7), response.substr(7) + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 2, "op": "cr"})");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response, response);
}

TEST(QueryClient, ZeroIdResponseIsProofOfADamagedFrameAndIsRetried) {
  // The server answers unparseable requests with id 0: to a client that
  // sent id 3, that response is provably not an answer to its intact
  // request — retry on a fresh connection, where the true answer waits.
  const std::string damaged = R"({"id":0,"ok":false,"error":"parse"})";
  const std::string good = R"({"id":3,"ok":true,"feasible":true})";
  QueryClient client = make_client(
      fast_options(), {{damaged + "\n"}, {good + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 3, "op": "cr"})");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response, good);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(result.reconnects, 1);
}

TEST(QueryClient, GarbageLinesNeverSurfaceAsAnswers) {
  const std::string good = R"({"id":4,"ok":true,"feasible":true})";
  QueryClient client = make_client(
      fast_options(),
      {{"\x01\x02\x03\n"}, {"{\"id\":4,\"ok\"\n"}, {good + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 4, "op": "cr"})");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response, good);
  EXPECT_EQ(result.attempts, 3);
}

TEST(QueryClient, RetryableServerErrorsAreRetriedOtherErrorsAreFinal) {
  const std::string overloaded =
      R"({"id":5,"ok":false,"error":"overloaded"})";
  const std::string draining =
      R"({"id":5,"ok":false,"error":"draining: server is shutting down"})";
  const std::string genuine =
      R"({"id":5,"ok":false,"error":"svc: bad query"})";
  QueryClient client = make_client(
      fast_options(),
      {{overloaded + "\n"}, {draining + "\n"}, {genuine + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 5, "op": "cr"})");
  // The genuine server-side rejection IS the authoritative answer.
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response, genuine);
  EXPECT_EQ(result.attempts, 3);
}

TEST(QueryClient, ExhaustedAttemptsFailStructurallyNeverWrongly) {
  ClientOptions options = fast_options();
  options.max_attempts = 3;
  options.request_timeout_ms = 5;
  QueryClient client = make_client(options, {{}, {}, {}});
  const ClientResult result =
      client.call_line(R"({"id": 6, "op": "cr"})");
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_NE(result.error.find("attempt(s) exhausted"), std::string::npos)
      << result.error;
  EXPECT_TRUE(result.response.empty());
}

TEST(QueryClient, ClosedConnectionsReconnectUntilTheScriptRunsOut) {
  const std::string good = R"({"id":7,"ok":true,"feasible":true})";
  QueryClient client = make_client(
      fast_options(), {{""}, {""}, {good + "\n"}});
  const ClientResult result =
      client.call_line(R"({"id": 7, "op": "cr"})");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(result.reconnects, 2);
}

TEST(QueryClient, RejectsUnparseableRequestLinesAndBadIds) {
  QueryClient client = make_client(fast_options(), {});
  const ClientResult result = client.call_line("not json");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("bad request line"), std::string::npos);

  QueryClient typed = make_client(fast_options(), {});
  EXPECT_THROW((void)typed.call(0, CrQuery{}), Error);
}

/// The headline property, end to end: through chaotic channels at many
/// seeds, the client's answer — when it answers — is byte-identical to
/// the offline library's rendering.  (The full 120-seed corpus runs in
/// the fuzzer's chaos-wire row; this is the direct unit-level pin.)
TEST(QueryClient, NeverReturnsAWrongAnswerThroughChaos) {
  CrQuery query;
  query.n = 3;
  query.f = 1;
  query.window_hi = 8;
  const QueryResult direct = evaluate_query_direct(query);

  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    QueryServer server;
    ChaosConfig config;
    config.seed = seed;
    ClientOptions options = fast_options();
    options.max_attempts = config.clean_every + 2;
    options.jitter_seed = seed;
    QueryClient client(options,
                       std::make_unique<ChaosLoopback>(server, config));
    for (long long id = 1; id <= 2; ++id) {
      const ClientResult result = client.call(id, query);
      ASSERT_TRUE(result.ok)
          << "seed " << seed << " id " << id << ": " << result.error;
      EXPECT_EQ(result.response, render_response(id, direct))
          << "seed " << seed << " id " << id;
    }
  }
}

}  // namespace
}  // namespace svc
}  // namespace linesearch
