#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <iterator>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "svc/snapshot.hpp"
#include "util/error.hpp"
#include "util/jsonio.hpp"
#include "util/parallel.hpp"

namespace linesearch::svc {
namespace {

/// QueryServer's counter table, in Counter order.  All are timing or
/// arrival dependent under concurrency, hence deterministic = false (the
/// determinism tests filter them out).
constexpr obs::CounterRow kCounterRows[] = {
    {"svc.requests", false},       {"svc.errors", false},
    {"svc.rejected", false},       {"svc.connections", false},
    {"svc.frame_rejected", false}, {"svc.deadline_idle_closed", false},
    {"svc.drain_rejected", false}, {"svc.write_failures", false},
    {"svc.deadline_write_timeout", false},
};

/// Poll interval of the accept/read loops: how often the stop flag is
/// observed while blocked on the socket.
constexpr int kPollMillis = 100;

Real real_field(const JsonValue& doc, const char* name,
                const Real fallback) {
  const JsonValue* found = doc.find(name);
  return found == nullptr ? fallback : found->as_real();
}

int int_field(const JsonValue& doc, const char* name, const int fallback) {
  const JsonValue* found = doc.find(name);
  if (found == nullptr) return fallback;
  const long long value = found->as_int();
  expects(value >= INT_MIN && value <= INT_MAX,
          std::string("svc: field '") + name + "' out of int range");
  return static_cast<int>(value);
}

}  // namespace

WireRequest parse_request(const std::string& line) {
  const JsonValue doc = parse_json(line);
  expects(doc.is_object(), "svc: request must be a JSON object");
  WireRequest request;
  if (const JsonValue* id = doc.find("id"); id != nullptr) {
    request.id = id->as_int();
  }
  const std::string op = doc.at("op").as_string();
  expects(op == "cr", "svc: unknown op '" + op + "' (valid: cr)");
  CrQuery& query = request.query;
  query.n = int_field(doc, "n", query.n);
  query.f = int_field(doc, "f", query.f);
  query.beta = real_field(doc, "beta", query.beta);
  query.window_lo = real_field(doc, "window_lo", query.window_lo);
  query.window_hi = real_field(doc, "window_hi", query.window_hi);
  query.interior_samples =
      int_field(doc, "interior_samples", query.interior_samples);
  if (const JsonValue* regime = doc.find("regime"); regime != nullptr) {
    query.regime = fault_regime_from_name(regime->as_string());
  }
  if (const JsonValue* crashes = doc.find("crash_times");
      crashes != nullptr) {
    for (const JsonValue& entry : crashes->as_array()) {
      query.crash_times.push_back(entry.as_real());
    }
  }
  query.fault_p = real_field(doc, "fault_p", query.fault_p);
  return request;
}

std::string render_response(const long long id, const QueryResult& result) {
  std::ostringstream out;
  JsonWriter json(out, /*compact=*/true);
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.field("feasible", result.feasible);
  json.field("cr", result.cr);
  json.field("argmax", result.argmax);
  json.field("cr_positive", result.cr_positive);
  json.field("cr_negative", result.cr_negative);
  json.field("probes", result.probes);
  json.field("undetected_probes", result.undetected_probes);
  json.end_object();
  return out.str();
}

long long peek_request_id(const std::string& line) noexcept {
  try {
    const JsonValue doc = parse_json(line);
    if (!doc.is_object()) return 0;
    const JsonValue* id = doc.find("id");
    return id == nullptr ? 0 : id->as_int();
  } catch (const std::exception&) {
    return 0;
  }
}

std::vector<std::string> drain_reject_lines(const std::string& pending) {
  std::vector<std::string> responses;
  std::size_t line_start = 0;
  while (line_start <= pending.size()) {
    const std::size_t newline = pending.find('\n', line_start);
    if (newline == std::string::npos) break;
    const std::string line =
        pending.substr(line_start, newline - line_start);
    line_start = newline + 1;
    if (line.empty()) continue;
    responses.push_back(render_error(peek_request_id(line),
                                     "draining: server is shutting down"));
  }
  return responses;
}

std::string render_error(const long long id, const std::string& message) {
  std::ostringstream out;
  JsonWriter json(out, /*compact=*/true);
  json.begin_object();
  json.field("id", id);
  json.field("ok", false);
  json.field("error", message);
  json.end_object();
  return out.str();
}

QueryServer::QueryServer(QueryServerOptions options)
    : options_(std::move(options)), service_(options_.service) {
  // max_inflight == 0 is a valid (degenerate) bound: every request is
  // over capacity, which is how the backpressure path is tested
  // deterministically.
  expects(options_.threads > 0, "svc: threads must be positive");
}

std::string QueryServer::handle_line(const std::string& line) {
  // High-water mark of concurrently evaluating requests, and the
  // per-request wall latency in microseconds.
  static const obs::MetricId queue_depth =
      obs::Registry::instance().gauge("svc.queue_depth",
                                      /*deterministic=*/false);
  static const obs::MetricId latency = obs::Registry::instance().histogram(
      "svc.latency_usec",
      {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
       100000, 250000, 1000000},
      /*deterministic=*/false);
  const auto start = std::chrono::steady_clock::now();
  bump(kRequests);

  long long id = 0;
  std::string response;
  // Admission control: bound concurrent evaluations; excess requests see
  // an explicit overload error instead of unbounded queueing.
  const std::size_t depth =
      inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  obs::gauge_to(queue_depth, depth);
  if (depth > options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    bump(kRejected);
    bump(kErrors);
    return render_error(id, "overloaded");
  }
  try {
    const WireRequest request = parse_request(line);
    id = request.id;
    response = render_response(id, service_.evaluate(request.query));
  } catch (const std::exception& failure) {
    bump(kErrors);
    // Echo the request id whenever the line itself parsed (the failure
    // was a bad op/field): clients can then match the structured error
    // to its request.  A 0-id error means the REQUEST was unparseable —
    // to a client that only sends ids >= 1, proof of a damaged frame.
    if (id == 0) id = peek_request_id(line);
    // A library error renders its message without the call site, so the
    // wire bytes do not depend on the source tree.
    const auto* error = dynamic_cast<const Error*>(&failure);
    response = render_error(
        id, error != nullptr ? std::string(error->message()) : failure.what());
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);

  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  obs::observe(latency, static_cast<std::uint64_t>(micros));
  return response;
}

bool QueryServer::write_line(const int fd, const std::string& line) {
  const std::string response = line + '\n';
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.write_timeout_ms);
  std::size_t written = 0;
  while (written < response.size()) {
    if (options_.write_timeout_ms > 0) {
      // A peer that stops reading must not park this worker forever:
      // wait for writability only up to the write deadline.
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        bump(kWriteTimeouts);
        bump(kWriteFailures);
        return false;
      }
      pollfd poller{};
      poller.fd = fd;
      poller.events = POLLOUT;
      const int wait = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count());
      const int ready = ::poll(&poller, 1, std::max(1, wait));
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready == 0) continue;  // re-check the deadline
    }
    // MSG_NOSIGNAL: a client that closed mid-response yields EPIPE here
    // instead of a process-killing SIGPIPE — the library-level half of
    // the fix (serve_main's SIG_IGN only covers its own process, not
    // embedders or the test binaries).
    const ssize_t sent = ::send(fd, response.data() + written,
                                response.size() - written, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;  // EPIPE/ECONNRESET: the peer is gone
    }
    written += static_cast<std::size_t>(sent);
  }
  if (written >= response.size()) return true;
  bump(kWriteFailures);
  return false;
}

void QueryServer::handle_connection(const int fd) {
  bump(kConnections);
  std::string buffer;
  char chunk[4096];
  bool open = true;
  // The idle clock starts at accept and resets only on a COMPLETE
  // request line — receiving stray bytes does not count as progress, so
  // a trickling (slowloris) client and a silent one expire the same way.
  auto last_progress = std::chrono::steady_clock::now();
  while (open) {
    // Drain every complete line already buffered before blocking again;
    // responses go back in request order (the lock-step clients the
    // golden replay uses never see reordering).
    std::size_t line_start = 0;
    while (true) {
      const std::size_t newline = buffer.find('\n', line_start);
      if (newline == std::string::npos) break;
      const std::string line =
          buffer.substr(line_start, newline - line_start);
      line_start = newline + 1;
      if (line.empty()) continue;
      last_progress = std::chrono::steady_clock::now();
      if (!write_line(fd, handle_line(line))) {
        open = false;
        break;
      }
    }
    buffer.erase(0, line_start);
    if (!open) break;

    // Frame bound: a pending line that outgrew the limit can only get
    // worse — reject it visibly and close before it becomes an OOM.
    if (buffer.size() > options_.max_request_bytes) {
      bump(kFrameRejected);
      (void)write_line(
          fd, render_error(0, "malformed: request line exceeds " +
                                  std::to_string(options_.max_request_bytes) +
                                  " bytes"));
      break;
    }

    // Graceful drain: once stop() is requested, what was already
    // buffered has been ANSWERED above; anything still queued in the
    // socket gets a visible "draining" rejection — answered or
    // rejected, never silently dropped.
    if (stopping()) {
      std::string pending;
      while (true) {
        pollfd sweep{};
        sweep.fd = fd;
        sweep.events = POLLIN;
        if (::poll(&sweep, 1, 0) <= 0) break;
        const ssize_t got = ::read(fd, chunk, sizeof chunk);
        if (got <= 0) break;
        pending.append(chunk, static_cast<std::size_t>(got));
      }
      for (const std::string& rejection : drain_reject_lines(pending)) {
        bump(kDrainRejected);
        if (!write_line(fd, rejection)) break;
      }
      break;
    }

    // Idle deadline, from the last complete request.
    if (options_.idle_timeout_ms > 0) {
      const auto idle_for =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - last_progress)
              .count();
      if (idle_for > options_.idle_timeout_ms) {
        bump(kIdleClosed);
        (void)write_line(
            fd, render_error(0, "timeout: connection idle beyond " +
                                    std::to_string(options_.idle_timeout_ms) +
                                    " ms"));
        break;
      }
    }

    pollfd poller{};
    poller.fd = fd;
    poller.events = POLLIN;
    const int ready = ::poll(&poller, 1, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // timeout: re-check stop flag + deadlines
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (got == 0) break;  // EOF
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
}

void QueryServer::serve(const std::string& socket_path) {
  expects(!socket_path.empty(), "svc: socket path must be non-empty");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  expects(socket_path.size() < sizeof address.sun_path,
          "svc: socket path too long for AF_UNIX");
  std::memcpy(address.sun_path, socket_path.c_str(),
              socket_path.size() + 1);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    throw Error(std::string("svc: socket() failed: ") +
                std::strerror(errno));
  }
  ::unlink(socket_path.c_str());  // replace a stale socket file
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listener);
    throw Error("svc: bind(" + socket_path + ") failed: " + reason);
  }
  if (::listen(listener, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listener);
    ::unlink(socket_path.c_str());
    throw Error("svc: listen() failed: " + reason);
  }

  ThreadPool& pool = ThreadPool::global();
  pool.ensure_workers(options_.threads);

  // Outstanding connection tasks, for the shutdown drain.
  std::mutex drain_mutex;
  std::condition_variable drained;
  std::size_t active = 0;

  while (!stopping()) {
    pollfd poller{};
    poller.fd = listener;
    poller.events = POLLIN;
    const int ready = ::poll(&poller, 1, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Live checkpoint (SIGUSR1): write the snapshot from the accept
    // thread — export_cache takes per-shard locks, so serving threads
    // are never blocked for the whole write.
    if (checkpoint_.exchange(false, std::memory_order_relaxed)) {
      maybe_snapshot();
    }
    if (ready == 0) continue;  // timeout: re-check the stop flag
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    {
      const std::lock_guard<std::mutex> lock(drain_mutex);
      ++active;
    }
    pool.submit([this, fd, &drain_mutex, &drained, &active] {
      handle_connection(fd);
      const std::lock_guard<std::mutex> lock(drain_mutex);
      --active;
      drained.notify_all();
    });
  }

  // Drain: no new connections, in-flight ones finish their buffered
  // requests (handle_connection observes the stop flag).
  ::close(listener);
  {
    std::unique_lock<std::mutex> lock(drain_mutex);
    drained.wait(lock, [&active] { return active == 0; });
  }
  // Drain-time snapshot: the cache is quiescent now, so this capture is
  // the warmest possible restart image.
  maybe_snapshot();
  ::unlink(socket_path.c_str());
}

void QueryServer::maybe_snapshot() noexcept {
  if (options_.snapshot_path.empty()) return;
  try {
    (void)save_snapshot(service_, options_.snapshot_path);
  } catch (const std::exception&) {
    // A full disk or unwritable path must not take the service down;
    // the next checkpoint retries.
    bump(kWriteFailures);
  }
}

void QueryServer::bump(const Counter counter) {
  static_assert(std::size(kCounterRows) == kCounterCount &&
                sizeof(Stats) == kCounterCount * sizeof(std::uint64_t));
  counters_[counter].fetch_add(1, std::memory_order_relaxed);
  static const auto ids = obs::register_counters(kCounterRows);
  obs::count(ids[counter]);
}

QueryServer::Stats QueryServer::stats() const {
  const auto load = [this](const Counter counter) {
    return counters_[counter].load(std::memory_order_relaxed);
  };
  return {.requests = load(kRequests),
          .errors = load(kErrors),
          .rejected = load(kRejected),
          .connections = load(kConnections),
          .frame_rejected = load(kFrameRejected),
          .idle_closed = load(kIdleClosed),
          .drain_rejected = load(kDrainRejected),
          .write_failures = load(kWriteFailures),
          .write_timeouts = load(kWriteTimeouts)};
}

}  // namespace linesearch::svc
