// tools/serve_main — the always-on CR evaluation service binary.
//
//   serve_main --socket /tmp/linesearch.sock
//
// listens on a local AF_UNIX socket and answers newline-delimited JSON
// CR queries (docs/service.md) until SIGTERM/SIGINT, then drains
// gracefully: the listener closes, in-flight connections finish their
// buffered requests, and the process exits 0 after printing the final
// svc.* stats to stderr.  All responses carry only values, so replaying
// a request corpus against any instance (any thread count, any cache
// configuration) yields byte-identical bytes — CI's server-smoke job
// does exactly that.
//
// Crash-safe warm restarts: --snapshot PATH restores the result cache
// from a prior snapshot on startup (a corrupt or version-mismatched
// file is rejected and the server starts cold — never half-warm), saves
// it atomically on drain, and SIGUSR1 checkpoints it live without
// interrupting service.
#include <csignal>
#include <iostream>
#include <string>

#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

linesearch::svc::QueryServer* g_server = nullptr;

extern "C" void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // async-signal-safe: atomic flip
}

extern "C" void handle_checkpoint(int) {
  if (g_server != nullptr) g_server->request_checkpoint();  // atomic flip
}

}  // namespace

int main(const int argc, const char* const* argv) {
  using linesearch::CliParser;
  using linesearch::svc::QueryServer;
  using linesearch::svc::QueryServerOptions;

  std::string socket_path;
  int threads = 4;
  int max_inflight = 64;
  int shard_count = 8;
  int shard_capacity = 128;
  bool no_cache = false;
  bool no_coalesce = false;
  std::string snapshot_path;
  int idle_timeout_ms = 30000;
  int write_timeout_ms = 5000;

  CliParser cli("serve_main",
                "serve CR queries over a local socket (NDJSON; see "
                "docs/service.md)");
  cli.add_option("socket", &socket_path, "PATH",
                 "AF_UNIX socket path to listen on (required)");
  cli.add_option("threads", &threads, "N",
                 "connection worker threads (default 4)", 1);
  cli.add_option("max-inflight", &max_inflight, "N",
                 "admission bound before overload rejection (default 64)",
                 1);
  cli.add_option("shards", &shard_count, "N",
                 "result-LRU shard count (default 8)", 1);
  cli.add_option("shard-capacity", &shard_capacity, "N",
                 "LRU entries per shard (default 128)", 1);
  cli.add_flag("no-cache", &no_cache, "disable the result LRU");
  cli.add_flag("no-coalesce", &no_coalesce,
               "disable in-flight query coalescing");
  cli.add_option("snapshot", &snapshot_path, "PATH",
                 "warm-restart cache snapshot: restored on startup, "
                 "saved atomically on drain and on SIGUSR1");
  cli.add_option("idle-timeout-ms", &idle_timeout_ms, "MS",
                 "close connections idle beyond this (0 disables; "
                 "default 30000)", 0);
  cli.add_option("write-timeout-ms", &write_timeout_ms, "MS",
                 "per-response write deadline (0 disables; default 5000)",
                 0);
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << '\n' << cli.usage();
    return 2;
  }
  if (socket_path.empty()) {
    std::cerr << "serve_main: --socket is required\n" << cli.usage();
    return 2;
  }

  QueryServerOptions options;
  options.threads = threads;
  options.max_inflight = static_cast<std::size_t>(max_inflight);
  options.service.cache_results = !no_cache;
  options.service.coalesce = !no_coalesce;
  options.service.shard_count = static_cast<std::size_t>(shard_count);
  options.service.shard_capacity =
      static_cast<std::size_t>(shard_capacity);
  options.snapshot_path = snapshot_path;
  options.idle_timeout_ms = idle_timeout_ms;
  options.write_timeout_ms = write_timeout_ms;

  QueryServer server(options);
  if (!snapshot_path.empty()) {
    const linesearch::svc::SnapshotLoadReport restore =
        linesearch::svc::load_snapshot(server.service(), snapshot_path);
    if (restore.ok) {
      std::cerr << "serve_main: restored " << restore.entries
                << " cached entries from " << snapshot_path << '\n';
    } else {
      std::cerr << "serve_main: cold start (" << restore.error << ")\n";
    }
  }
  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGUSR1, handle_checkpoint);
  // A client vanishing mid-write must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);

  std::cerr << "serve_main: listening on " << socket_path << '\n';
  try {
    server.serve(socket_path);
  } catch (const linesearch::Error& failure) {
    std::cerr << "serve_main: " << failure.what() << '\n';
    return 1;
  }

  const QueryServer::Stats wire = server.stats();
  const linesearch::svc::QueryService::Stats svc = server.service().stats();
  std::cerr << "serve_main: drained; connections=" << wire.connections
            << " requests=" << wire.requests << " errors=" << wire.errors
            << " rejected=" << wire.rejected
            << " frame_rejected=" << wire.frame_rejected
            << " idle_closed=" << wire.idle_closed
            << " drain_rejected=" << wire.drain_rejected
            << " write_failures=" << wire.write_failures
            << " write_timeouts=" << wire.write_timeouts
            << " queries=" << svc.queries << " cache_hits=" << svc.cache_hits
            << " coalesced=" << svc.coalesced
            << " evaluations=" << svc.evaluations
            << " backend_builds=" << svc.backend_builds
            << " backend_hits=" << svc.backend_hits
            << " evictions=" << svc.evictions << '\n';
  return 0;
}
