// wire.cpp — wire_hot and wire_cold: svc::QueryClient -> AF_UNIX ->
// in-process QueryServer::serve, one closed-loop connection.  On
// wire_cold its client and server threads share one CPU.
//
// A run alternates timed rounds and oracle pauses.  During a round the
// connection sends its seeded requests lock-step until the round's
// deadline; the clock then stops and every response of the round is
// checked byte-for-byte against render_response(id,
// evaluate_query_direct(query)).  Rounds keep the oracle's memory fixed
// (wire_cold buffers at most one round of responses), so peak RSS does
// not grow with throughput.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "gen.hpp"
#include "sim/faults.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "svc/client.hpp"
#include "svc/query.hpp"
#include "svc/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = linesearch::svc;
using linesearch::Real;

/// One lock-step connection, served by one server worker.
constexpr int kConnections = 1;
constexpr int kServerThreads = 1;
constexpr int kSetupRepeats = 7;
constexpr int kOracleThreads = 4;
constexpr double kRoundSeconds = 0.25;
/// wire_cold warm-up requests: twice the result LRU's default capacity
/// (8 shards x 128), so every shard is full before timing starts.
constexpr std::uint64_t kColdWarmupRequests = 2048;
/// Untimed traffic between set-up and the timed phase.  On a virtual
/// machine the first second under load runs measurably slower (idle
/// vCPUs wake slowly), so timing starts after it.
constexpr double kConditionSeconds = 2.0;
/// First request index of the conditioning traffic on the warm-up
/// streams, past wire_cold's set-up warm-up.
constexpr std::uint64_t kConditionIndex = 1u << 20;
/// Cap of one traced phase; spans of a longer phase would only cost
/// memory.
constexpr double kTracedPhaseCap = 4.0;
/// wire_cold round buffer per connection; a full buffer ends the round
/// early (the run then has more, shorter rounds).
constexpr std::size_t kArenaBytes = 2u << 20;
constexpr std::size_t kRoundMaxRequests = 16384;

const char* const kRegimeTag[] = {"none", "byzantine", "crash"};

/// A QueryServer serving `path` from its own thread; the destructor
/// drains it.  Holds no client connection itself.
class ServedServer {
 public:
  explicit ServedServer(std::string path)
      : path_(std::move(path)), server_(options()), thread_([this] { run(); }) {
    wait_ready();
  }
  ~ServedServer() {
    server_.stop();
    thread_.join();
  }
  ServedServer(const ServedServer&) = delete;
  ServedServer& operator=(const ServedServer&) = delete;

  svc::QueryServer& server() { return server_; }
  const std::string& path() const { return path_; }

 private:
  static svc::QueryServerOptions options() {
    svc::QueryServerOptions options;
    options.threads = kServerThreads;
    return options;
  }

  void run() {
    try {
      server_.serve(path_);
    } catch (const std::exception& failure) {
      const std::lock_guard<std::mutex> lock(mutex_);
      error_ = failure.what();
    }
    done_.store(true);
  }

  void wait_ready() {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      if (done_.load()) break;
      svc::SocketTransport probe(path_);
      if (probe.connect()) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // The destructor will not run: drain the serving thread here.
    server_.stop();
    thread_.join();
    const std::lock_guard<std::mutex> lock(mutex_);
    throw std::runtime_error("perfbench: server did not come up on " + path_ +
                             (error_.empty() ? "" : ": " + error_));
  }

  std::string path_;
  svc::QueryServer server_;
  std::mutex mutex_;
  std::string error_;
  std::atomic<bool> done_{false};
  std::thread thread_;  // last: it uses every member above
};

/// Persistent worker threads; run(job) calls job(i) on worker i and
/// returns when every worker is done.  The benchmark creates no thread
/// per round: every thread that records an obs metric keeps a registry
/// sink for the life of the process, so thread churn alone would make
/// peak RSS grow with the number of rounds.
class Crew {
 public:
  explicit Crew(const int size) {
    for (int i = 0; i < size; ++i) {
      threads_.emplace_back([this, i] { loop(i); });
    }
  }
  ~Crew() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Rethrows the first exception a worker raised.
  void run(std::function<void(int)> job) {
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = std::move(job);
    pending_ = threads_.size();
    failure_ = nullptr;
    ++generation_;
    wake_.notify_all();
    done_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    if (failure_) std::rethrow_exception(failure_);
  }

 private:
  void loop(const int index) {
    std::uint64_t seen = 0;
    while (true) {
      std::function<void(int)> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stopping_ || generation_ != seen; });
        if (stopping_) return;
        seen = generation_;
        job = job_;
      }
      std::exception_ptr failure;
      try {
        job(index);
      } catch (...) {
        failure = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      if (failure && !failure_) failure_ = failure;
      if (--pending_ == 0) done_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::function<void(int)> job_;
  std::exception_ptr failure_;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> threads_;  // last: the workers use the above
};

/// The CPU the client and the server share: the highest-numbered one
/// this process may run on (interrupts tend to land on the lowest), or
/// -1 if the affinity mask cannot be read.
int serve_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) return cpu;
  }
  return -1;
}

/// Pin the calling thread to `cpu`; threads it starts later inherit the
/// pin.  False if the kernel refused.
bool pin_current_thread(const int cpu) {
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set) == 0;
}

std::unique_ptr<svc::QueryClient> connect_client(const std::string& path) {
  auto transport = std::make_unique<svc::SocketTransport>(path);
  if (!transport->connect()) {
    throw std::runtime_error("perfbench: cannot connect to " + path);
  }
  svc::ClientOptions options;
  options.socket_path = path;
  return std::make_unique<svc::QueryClient>(options, std::move(transport));
}

/// Counter deltas of the server over a window.
struct ServerWindow {
  svc::QueryServer::Stats wire;
  svc::QueryService::Stats query;
};

ServerWindow snapshot(svc::QueryServer& server) {
  return {server.stats(), server.service().stats()};
}

double ratio(const double num, const double den) {
  return den > 0 ? num / den : 0;
}

/// Counters of one connection over a phase.
struct ConnStats {
  LatencyHistogram latency;
  std::uint64_t attempted = 0;
  std::uint64_t transport_failures = 0;
  std::uint64_t extra_attempts = 0;
  std::uint64_t hot_correct = 0;
  std::uint64_t hot_wrong = 0;
  std::uint64_t replay_mismatches = 0;
  double hot_probes = 0;

  /// Zero every counter, keeping the histogram's memory.
  void reset() {
    latency.clear();
    attempted = transport_failures = extra_attempts = 0;
    hot_correct = hot_wrong = replay_mismatches = 0;
    hot_probes = 0;
  }
};

/// Per-connection state of one run.
struct Connection {
  /// Generator stream: the connection's index, plus kConnections while
  /// it sends untimed warm-up traffic.
  int stream = 0;
  std::unique_ptr<svc::QueryClient> client;
  std::uint64_t next_index = 0;
  ConnStats stats;
  // wire_cold round buffer: response bytes and their request indices.
  std::string arena;
  std::vector<std::size_t> ends;
  std::vector<std::uint64_t> indices;
  std::unique_ptr<SpanLog> log;  ///< set in the traced phase
};

/// Oracle verdict over the buffered wire_cold responses of a round.
struct ColdTally {
  std::uint64_t checked = 0;
  std::uint64_t correct = 0;
  std::uint64_t theorem_failures = 0;
  double probes = 0;
};

/// What a timed phase measured.
struct Phase {
  std::vector<double> round_qps;
  double seconds = 0;
  std::uint64_t correct = 0;
  std::uint64_t theorem_failures = 0;
  double cold_probes = 0;
  std::uint64_t cold_checked = 0;
  ConnStats stats;  ///< merged over the connections
};

class WireRun {
 public:
  explicit WireRun(const RunOptions& options)
      : options_(options), hot_(options.workload == "wire_hot") {}

  RunResult run();

 private:
  void prepare_oracle();
  double setup_once(int attempt, bool keep);
  void warm_fill();
  void cold_warmup();
  void condition();
  Phase timed_phase(double seconds, bool traced);
  void round(Clock::time_point deadline, std::uint64_t max_requests,
             bool traced);
  void send_one(Connection& c, bool traced);
  void trace_request(Connection& c, const std::string& line,
                     const svc::ClientResult& reply, std::int64_t root);
  ColdTally verify_cold_round() const;
  std::string socket_path(int attempt) const;

  RunOptions options_;
  bool hot_;
  Clock::time_point epoch_ = Clock::now();

  // Oracle of wire_hot: request and response tails of every hot query.
  std::vector<svc::CrQuery> hot_queries_;
  std::vector<std::string> hot_request_tails_;
  std::vector<std::string> hot_response_tails_;
  std::vector<int> hot_probes_;

  std::unique_ptr<ServedServer> served_;
  std::vector<Connection> connections_;
  std::unique_ptr<svc::QueryService> replay_;

  std::uint64_t setup_failures_ = 0;
  // Last: their workers run jobs that use every member above.  Both are
  // started before run() pins wire_cold's serving threads, so the oracle
  // keeps every CPU; the senders pin themselves.
  Crew senders_{kConnections};
  mutable Crew oracle_{kOracleThreads};
};

std::string WireRun::socket_path(const int attempt) const {
  return options_.run_dir + "/wire-" + std::to_string(::getpid()) + "-" +
         std::to_string(attempt) + ".sock";
}

void WireRun::prepare_oracle() {
  if (!hot_) return;
  hot_queries_ = hot_queries();
  for (const svc::CrQuery& query : hot_queries_) {
    const svc::QueryResult expected = svc::evaluate_query_direct(query);
    hot_request_tails_.push_back(tail_after_id(render_line(1, query)));
    hot_response_tails_.push_back(
        tail_after_id(svc::render_response(1, expected)));
    hot_probes_.push_back(expected.probes);
    // The id splice must reproduce render_response for any id.
    if (svc::render_response(987654321, expected) !=
        line_with_id(987654321, hot_response_tails_.back())) {
      throw std::runtime_error("perfbench: response id splice differs");
    }
    if (!matches_theorem(expected.cr,
                         linesearch::algorithm_cr(query.n, query.f))) {
      ++setup_failures_;
    }
  }
}

void WireRun::warm_fill() {
  // The connections share the hot set out between them.
  std::vector<std::uint64_t> bad(kConnections, 0);
  senders_.run([this, &bad](const int k) {
    Connection& c = connections_[static_cast<std::size_t>(k)];
    for (std::size_t q = static_cast<std::size_t>(k);
         q < hot_queries_.size(); q += kConnections) {
      // Negative ids never collide with the timed stream's.
      const long long id = -static_cast<long long>(q) - 1;
      const svc::ClientResult reply =
          c.client->call_line(line_with_id(id, hot_request_tails_[q]));
      if (!reply.ok ||
          reply.response != line_with_id(id, hot_response_tails_[q])) {
        ++bad[static_cast<std::size_t>(k)];
      }
    }
  });
  for (const std::uint64_t b : bad) setup_failures_ += b;
}

void WireRun::cold_warmup() {
  // Fill the result LRU past capacity from streams the timed requests
  // never use, so timed misses insert AND evict, as in steady state.
  for (Connection& c : connections_) c.stream += kConnections;
  round(Clock::time_point::max(), kColdWarmupRequests / kConnections, false);
}

void WireRun::condition() {
  for (Connection& c : connections_) {
    c.stream += kConnections;
    c.next_index = kConditionIndex;
  }
  const Phase warm = timed_phase(kConditionSeconds, false);
  setup_failures_ +=
      warm.stats.attempted - warm.correct + warm.theorem_failures;
  for (Connection& c : connections_) {
    c.stream -= kConnections;
    c.next_index = 0;
  }
}

double WireRun::setup_once(const int attempt, const bool keep) {
  for (int k = 0; k < kConnections; ++k) {
    Connection& c = connections_[static_cast<std::size_t>(k)];
    c.stream = k;
    c.next_index = 0;
    c.stats.reset();
  }
  const auto start = Clock::now();
  auto served = std::make_unique<ServedServer>(socket_path(attempt));
  for (Connection& c : connections_) c.client = connect_client(served->path());
  if (hot_) {
    warm_fill();
  } else {
    cold_warmup();
  }
  const double elapsed = seconds_between(start, Clock::now());

  if (!hot_) {
    // The warm-up's answers face the oracle too, outside the setup time.
    const ColdTally tally = verify_cold_round();
    std::uint64_t attempted = 0;
    for (Connection& c : connections_) {
      attempted += c.stats.attempted;
      c.stats.reset();
      c.stream -= kConnections;
      c.next_index = 0;
    }
    setup_failures_ += attempted - tally.correct + tally.theorem_failures;
  }
  if (keep) {
    served_ = std::move(served);
  } else {
    for (Connection& c : connections_) c.client.reset();  // before the drain
    served.reset();
  }
  return elapsed;
}

void WireRun::send_one(Connection& c, const bool traced) {
  const std::uint64_t index = c.next_index++;
  const long long id = request_id(c.stream, index);
  std::size_t hot_index = 0;
  std::string line;
  if (hot_) {
    hot_index = hot_draw(options_.seed, c.stream, index, hot_queries_.size());
    line = line_with_id(id, hot_request_tails_[hot_index]);
  } else {
    line = render_line(id, cold_query(options_.seed, c.stream, index));
  }
  std::int64_t root = kNoParent;
  std::size_t call_span = 0;
  if (traced) {
    root = static_cast<std::int64_t>(c.log->open("request", id));
    call_span = c.log->open("svc.client.call", id, root);
  }
  const auto start = Clock::now();
  const svc::ClientResult reply = c.client->call_line(line);
  const std::int64_t ns = to_ns(Clock::now() - start);
  if (traced) c.log->close(call_span);

  ConnStats& stats = c.stats;
  stats.latency.add(ns);
  ++stats.attempted;
  stats.extra_attempts +=
      static_cast<std::uint64_t>(std::max(0, reply.attempts - 1));
  if (!reply.ok) {
    ++stats.transport_failures;
  } else if (hot_) {
    // Byte-for-byte against render_response(id, direct result).
    if (reply.response == line_with_id(id, hot_response_tails_[hot_index])) {
      ++stats.hot_correct;
    } else {
      ++stats.hot_wrong;
    }
    stats.hot_probes += hot_probes_[hot_index];
  } else {
    c.arena += reply.response;
    c.ends.push_back(c.arena.size());
    c.indices.push_back(index);
  }
  if (traced) {
    trace_request(c, line, reply, root);
    c.log->close(static_cast<std::size_t>(root));
  }
}

void WireRun::trace_request(Connection& c, const std::string& line,
                            const svc::ClientResult& reply,
                            const std::int64_t root) {
  SpanLog& log = *c.log;
  const std::int64_t id = log.at(static_cast<std::size_t>(root)).request;
  // In-process replay of the same line against a service in the same
  // cache state as the server's.
  const auto handle = static_cast<std::int64_t>(
      log.open("svc.server.handle_line", id, root));
  std::size_t span = log.open("svc.server.parse", id, handle);
  const svc::WireRequest request = svc::parse_request(line);
  log.close(span);
  const std::uint64_t hits_before = replay_->stats().cache_hits;
  span = log.open("svc.query.evaluate", id, handle);
  const svc::QueryResult result = replay_->evaluate(request.query);
  log.close(span);
  log.at(span).name = replay_->stats().cache_hits > hits_before
                          ? "svc.query.hit"
                          : "svc.query.miss";
  span = log.open("svc.server.render", id, handle);
  const std::string response = svc::render_response(request.id, result);
  log.close(span);
  log.close(static_cast<std::size_t>(handle));
  if (reply.ok && response != reply.response) ++c.stats.replay_mismatches;

  span = log.open("svc.query.canonicalize", id, root);
  const svc::CrQuery canonical = svc::canonicalize_query(request.query);
  log.close(span);
  span = log.open("svc.query.key", id, root);
  const std::string key = svc::query_key(canonical);
  log.close(span);
  if (key.empty()) ++c.stats.replay_mismatches;
  if (hot_) return;

  // wire_cold: split evaluate_query_direct into the sim build and the
  // eval remainder.
  const int tag = static_cast<int>(canonical.regime);
  span = log.open("eval.direct", id, root, tag);
  const svc::QueryResult direct = svc::evaluate_query_direct(request.query);
  log.close(span);
  if (direct.probes != result.probes) ++c.stats.replay_mismatches;
  span = log.open("sim.backend_build", id, root, tag);
  const linesearch::ProportionalAlgorithm algorithm(canonical.n, canonical.f,
                                                    canonical.beta);
  const bool crash = canonical.regime == svc::FaultRegime::kCrash;
  const linesearch::Fleet backend =
      crash ? algorithm.build_fleet(4 * canonical.window_hi)
            : algorithm.build_unbounded_fleet();
  log.close(span);
  if (crash) {
    span = log.open("sim.truncate", id, root, tag);
    const linesearch::Fleet truncated =
        linesearch::truncate_at_crashes(backend, canonical.crash_times);
    log.close(span);
    if (truncated.size() != backend.size()) ++c.stats.replay_mismatches;
  }
}

void WireRun::round(const Clock::time_point deadline,
                    const std::uint64_t max_requests, const bool traced) {
  senders_.run([this, deadline, max_requests, traced](const int k) {
    Connection& c = connections_[static_cast<std::size_t>(k)];
    c.arena.clear();
    c.ends.clear();
    c.indices.clear();
    for (std::uint64_t sent = 0;
         sent < max_requests && Clock::now() < deadline &&
         c.arena.size() < kArenaBytes && c.ends.size() < kRoundMaxRequests;
         ++sent) {
      send_one(c, traced);
    }
  });
}

ColdTally WireRun::verify_cold_round() const {
  struct Item {
    const Connection* c;
    std::size_t slot;
  };
  std::vector<Item> items;
  for (const Connection& c : connections_) {
    for (std::size_t i = 0; i < c.ends.size(); ++i) items.push_back({&c, i});
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> correct{0};
  std::atomic<std::uint64_t> theorem{0};
  std::atomic<std::uint64_t> probes{0};
  oracle_.run([&](int) {
    for (std::size_t k = next++; k < items.size(); k = next++) {
      const Connection& c = *items[k].c;
      const std::size_t slot = items[k].slot;
      const std::size_t begin = slot == 0 ? 0 : c.ends[slot - 1];
      const std::string_view got(c.arena.data() + begin,
                                 c.ends[slot] - begin);
      const std::uint64_t index = c.indices[slot];
      const svc::WireRequest request = svc::parse_request(render_line(
          request_id(c.stream, index),
          cold_query(options_.seed, c.stream, index)));
      const svc::QueryResult expected =
          svc::evaluate_query_direct(request.query);
      probes += static_cast<std::uint64_t>(expected.probes);
      if (svc::render_response(request.id, expected) == got) ++correct;
      if (request.query.regime == svc::FaultRegime::kNone) {
        // Independent check: Lemma 5 at the query's beta (Theorem 1
        // at the optimal one).
        const svc::CrQuery canonical =
            svc::canonicalize_query(request.query);
        if (!matches_theorem(expected.cr,
                             linesearch::schedule_cr(canonical.n,
                                                     canonical.f,
                                                     canonical.beta))) {
          ++theorem;
        }
      }
    }
  });
  return {items.size(), correct, theorem, static_cast<double>(probes.load())};
}

Phase WireRun::timed_phase(const double seconds, const bool traced) {
  Phase phase;
  while (phase.seconds < seconds) {
    std::uint64_t correct_before = 0;
    for (const Connection& c : connections_) {
      correct_before += c.stats.hot_correct;
    }
    const double length = std::min(kRoundSeconds, seconds - phase.seconds);
    const auto start = Clock::now();
    round(start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(length)),
          kRoundMaxRequests, traced);
    const double elapsed = seconds_between(start, Clock::now());
    phase.seconds += elapsed;

    std::uint64_t correct = 0;
    if (hot_) {
      for (const Connection& c : connections_) correct += c.stats.hot_correct;
      correct -= correct_before;
    } else {
      const ColdTally tally = verify_cold_round();
      correct = tally.correct;
      phase.theorem_failures += tally.theorem_failures;
      phase.cold_probes += tally.probes;
      phase.cold_checked += tally.checked;
    }
    phase.correct += correct;
    phase.round_qps.push_back(static_cast<double>(correct) / elapsed);
  }
  for (Connection& c : connections_) {
    ConnStats& s = phase.stats;
    s.latency.merge(c.stats.latency);
    s.attempted += c.stats.attempted;
    s.transport_failures += c.stats.transport_failures;
    s.extra_attempts += c.stats.extra_attempts;
    s.hot_correct += c.stats.hot_correct;
    s.hot_wrong += c.stats.hot_wrong;
    s.replay_mismatches += c.stats.replay_mismatches;
    s.hot_probes += c.stats.hot_probes;
    c.stats.reset();
  }
  return phase;
}

RunResult WireRun::run() {
  prepare_oracle();
  // QueryServer runs each connection as a task on the process-wide pool,
  // which the first serve creates with LINESEARCH_THREADS workers.  One
  // worker serves every connection of every set-up, so the threads that
  // allocate, and with them the malloc arenas that set peak RSS, are the
  // same in every run.
  ::setenv("LINESEARCH_THREADS", std::to_string(kServerThreads).c_str(), 1);
  // wire_cold pins the client and the server's threads (its serving
  // thread and the pool worker, which inherit this thread's pin) to one
  // CPU, so a round trip is two context switches on that CPU.  Its
  // ~0.1 ms evaluations likely outlast the hypervisor's halt polling:
  // across CPUs, each request would wait twice for a halted vCPU to
  // wake, and on a shared virtual machine that wait follows the host's
  // load, not the program (it spread the wire_cold median over a third
  // of its value between runs).  wire_hot's ~15 us requests end within
  // the polling window; pinned, its median was less steady, not more.
  if (!hot_) {
    const int cpu = serve_cpu();
    bool pinned = pin_current_thread(cpu);
    std::atomic<int> pinned_senders{0};
    senders_.run([cpu, &pinned_senders](int) {
      if (pin_current_thread(cpu)) ++pinned_senders;
    });
    pinned = pinned && pinned_senders.load() == kConnections;
    std::fprintf(stderr, "%s: client and server %s\n",
                 options_.workload.c_str(),
                 pinned ? ("pinned to CPU " + std::to_string(cpu)).c_str()
                        : "NOT pinned (affinity refused)");
  }
  // Harness buffers are allocated and touched here, so no set-up time is
  // spent faulting in the benchmark's own memory.
  connections_ = std::vector<Connection>(kConnections);
  if (!hot_) {
    for (Connection& c : connections_) {
      c.arena.assign(kArenaBytes + (64u << 10), '\0');
      c.arena.clear();
      c.ends.reserve(kRoundMaxRequests);
      c.indices.reserve(kRoundMaxRequests);
    }
  }
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setups.push_back(setup_once(k, k + 1 == kSetupRepeats));
  }
  svc::QueryServer& server = served_->server();
  condition();

  const ServerWindow before = snapshot(server);
  const Phase untraced = timed_phase(
      options_.trace ? options_.seconds / 2 : options_.seconds, false);
  ServerWindow traced_before = before;
  Phase traced;
  if (options_.trace) {
    replay_ = std::make_unique<svc::QueryService>();
    if (hot_) {
      for (const svc::CrQuery& query : hot_queries_) {
        (void)replay_->evaluate(query);
      }
    }
    for (Connection& c : connections_) {
      c.log = std::make_unique<SpanLog>(epoch_);
    }
    traced_before = snapshot(server);
    traced = timed_phase(std::min(options_.seconds / 2, kTracedPhaseCap), true);
  }
  const ServerWindow after = snapshot(server);

  // Close the clients, then drain the server.
  SpanLog merged(epoch_);
  for (Connection& c : connections_) {
    c.client.reset();
    if (c.log) merged.absorb(*c.log);
  }
  served_.reset();

  RunResult result;
  const std::uint64_t attempted =
      untraced.stats.attempted + traced.stats.attempted;
  const std::uint64_t correct = untraced.correct + traced.correct;
  const std::uint64_t extra_attempts =
      untraced.stats.extra_attempts + traced.stats.extra_attempts;
  result.attempted = attempted;
  result.wrong = attempted - correct - untraced.stats.transport_failures -
                 traced.stats.transport_failures + untraced.theorem_failures +
                 traced.theorem_failures + traced.stats.replay_mismatches +
                 setup_failures_;
  result.failed = attempted - correct + untraced.theorem_failures +
                  traced.theorem_failures + traced.stats.replay_mismatches +
                  setup_failures_;

  // Layer-separation guard over the whole timed window.
  const double queries =
      static_cast<double>(after.query.queries - before.query.queries);
  const double hit_ratio = ratio(
      static_cast<double>(after.query.cache_hits - before.query.cache_hits),
      queries);
  const double rejected_frac = ratio(
      static_cast<double>(after.wire.rejected - before.wire.rejected),
      static_cast<double>(after.wire.requests - before.wire.requests));
  const double retries_per_call =
      ratio(static_cast<double>(extra_attempts),
            static_cast<double>(attempted));
  const bool hit_ok = hot_ ? hit_ratio >= 0.99 : hit_ratio <= 0.01;
  result.guard_ok = hit_ok && extra_attempts == 0 &&
                    after.wire.rejected == before.wire.rejected;
  char guard[256];
  std::snprintf(guard, sizeof guard,
                "hit_ratio=%.6f (%s) retries_per_call=%.6f rejected_frac=%.6f "
                "fail_frac=%.6f",
                hit_ratio, hot_ ? ">= 0.99" : "<= 0.01", retries_per_call,
                rejected_frac,
                ratio(static_cast<double>(result.failed),
                      static_cast<double>(attempted)));
  result.guard = guard;

  const LatencyHistogram& latency = untraced.stats.latency;
  std::fprintf(stderr,
               "%s: %llu samples untraced over %zu rounds, p50 %.3f us, "
               "p99 %.3f us, round qps quartiles %.0f / %.0f / %.0f\n",
               options_.workload.c_str(),
               static_cast<unsigned long long>(latency.count()),
               untraced.round_qps.size(), latency.quantile_ns(0.5) / 1e3,
               latency.quantile_ns(0.99) / 1e3,
               quantile(untraced.round_qps, 0.25),
               quantile(untraced.round_qps, 0.5),
               quantile(untraced.round_qps, 0.75));


  auto& v = result.values;
  v["setup_s"] = median(setups);
  v["qps"] = median(untraced.round_qps);
  v["p50_us"] = latency.quantile_ns(0.5) / 1e3;
  v["peak_rss_mb"] = peak_rss_mb();
  if (!options_.trace) return result;

  // Per-layer metrics of the traced phase.
  const std::vector<Span>& spans = merged.spans();
  const auto summary = summarize(spans);
  const auto median_us = [&summary](const char* name) {
    const auto it = summary.find(name);
    return it == summary.end() ? 0.0 : it->second.median_self_ns / 1e3;
  };
  v["p99_us"] = latency.quantile_ns(0.99) / 1e3;
  v["svc.client.call_us"] = median_us("svc.client.call");
  v["svc.server.parse_us"] = median_us("svc.server.parse");
  v["svc.server.render_us"] = median_us("svc.server.render");
  v["svc.query.hit_us"] = median_us("svc.query.hit");
  v["svc.query.miss_us"] = median_us("svc.query.miss");
  v["svc.query.canonicalize_us"] = median_us("svc.query.canonicalize");
  v["svc.query.key_us"] = median_us("svc.query.key");
  v["sim.backend_build_us"] = median_us("sim.backend_build");
  v["sim.truncate_us"] = median_us("sim.truncate");
  {
    const auto it = summary.find("svc.server.handle_line");
    v["svc.server.handle_line_us"] =
        it == summary.end() ? 0.0 : it->second.median_duration_ns / 1e3;
  }
  // Per request: call - handle_line, and direct - build per regime.  A
  // request's spans are contiguous in its connection's log.
  std::vector<double> wire_self;
  std::vector<double> scan[3];
  {
    std::int64_t call = 0;
    std::int64_t direct = 0;
    for (const Span& s : spans) {
      const std::string name = s.name;
      if (name == "svc.client.call") call = s.duration_ns();
      if (name == "svc.server.handle_line") {
        wire_self.push_back(static_cast<double>(call - s.duration_ns()));
      }
      if (name == "eval.direct") direct = s.duration_ns();
      if (name == "sim.backend_build" && s.tag >= 0 && s.tag < 3) {
        scan[s.tag].push_back(static_cast<double>(direct - s.duration_ns()));
      }
    }
  }
  v["svc.wire.self_us"] = median(wire_self) / 1e3;
  for (int r = 0; r < 3; ++r) {
    v[std::string("eval.scan_us.") + kRegimeTag[r]] = median(scan[r]) / 1e3;
  }
  const auto delta = [&](std::uint64_t svc::QueryService::Stats::*field) {
    return static_cast<double>(after.query.*field - traced_before.query.*field);
  };
  const double traced_queries = delta(&svc::QueryService::Stats::queries);
  v["svc.client.retries_per_call"] = retries_per_call;
  v["svc.server.rejected_frac"] = rejected_frac;
  v["svc.query.hit_ratio"] =
      ratio(delta(&svc::QueryService::Stats::cache_hits), traced_queries);
  v["svc.query.evictions_per_query"] =
      ratio(delta(&svc::QueryService::Stats::evictions), traced_queries);
  const double backend_hits = delta(&svc::QueryService::Stats::backend_hits);
  v["svc.query.backend_hit_ratio"] = ratio(
      backend_hits,
      backend_hits + delta(&svc::QueryService::Stats::backend_builds));
  v["svc.query.coalesced_frac"] =
      ratio(delta(&svc::QueryService::Stats::coalesced), traced_queries);
  v["eval.probes_per_query"] =
      hot_ ? ratio(untraced.stats.hot_probes + traced.stats.hot_probes,
                   static_cast<double>(attempted))
           : ratio(untraced.cold_probes + traced.cold_probes,
                   static_cast<double>(untraced.cold_checked +
                                       traced.cold_checked));
  // Tracing overhead on the primary metric, the request rate 1/p50.
  const double untraced_p50 = latency.quantile_ns(0.5);
  const double traced_p50 = traced.stats.latency.quantile_ns(0.5);
  v["trace.overhead_frac"] = 1 - untraced_p50 / traced_p50;

  for (const auto& [name, s] : summary) {
    std::fprintf(stderr,
                 "  span %-24s n=%-8zu median %10.3f us  self %10.3f us\n",
                 name.c_str(), s.count, s.median_duration_ns / 1e3,
                 s.median_self_ns / 1e3);
  }
  if (hot_) {
    std::fprintf(stderr,
                 "  parse + hit + render = %.3f us vs handle_line %.3f us\n",
                 v["svc.server.parse_us"] + v["svc.query.hit_us"] +
                     v["svc.server.render_us"],
                 v["svc.server.handle_line_us"]);
  }
  const std::string path =
      options_.run_dir + "/" + options_.workload + ".spans.csv";
  if (!write_spans_csv(spans, path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  return result;
}

}  // namespace

RunResult run_wire(const RunOptions& options) {
  WireRun run(options);
  return run.run();
}

}  // namespace perfbench
