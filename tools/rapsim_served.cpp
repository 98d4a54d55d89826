// rapsim-served — the resident analysis daemon.
//
// Speaks newline-delimited JSON over a UNIX domain socket (default) or
// TCP loopback (--tcp[-port]); see DESIGN.md §11 for the wire protocol.
// Methods: certify, lint, replay, advise (worker pool, cached), plus
// ping / stats / shutdown on the control plane.
//
//   $ rapsim-served --socket=/tmp/rapsim.sock
//   $ rapsim-served --tcp-port=7411
//   $ rapsim-served --tcp-port=0          # kernel picks; port printed
//
// Flags:
//   --socket=PATH        UNIX socket path (default rapsim-served.sock)
//   --tcp / --tcp-port=N serve TCP loopback instead (N=0: ephemeral)
//   --workers=N          pool size (default RAPSIM_THREADS/hardware)
//   --queue-depth=N      admission queue bound (default 64)
//   --cache-capacity=N   response cache entries (default 1024; 0 = off)
//   --cache-shards=N     cache shards (default 8)
//   --metrics-out=PATH   metrics flush target on drain
//                        (default results/serve/metrics.json; "" = none)
//   --trace-out=PATH     record request-scoped spans and write a
//                        chrome://tracing document here on drain
//                        (default "" = tracing off)
//   --max-connections=N  concurrent connection cap (default 256)
// Any other flag, or any positional argument, is a usage error.
//
// Startup prints one machine-readable line on stdout:
//   rapsim-served listening on unix:/tmp/rapsim.sock
// SIGTERM/SIGINT (or a client shutdown request) drains gracefully:
// stop accepting, finish in-flight work, flush metrics, exit 0.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv, {"tcp"});

  serve::ServerConfig config;
  if (args.get("tcp") || args.get("tcp-port")) {
    config.endpoint.port =
        static_cast<std::uint16_t>(args.get_uint("tcp-port", 0));
  } else {
    config.endpoint.path = args.get_string("socket", "rapsim-served.sock");
  }
  config.service.workers =
      static_cast<std::size_t>(args.get_uint("workers", 0));
  config.service.queue_depth =
      static_cast<std::size_t>(args.get_uint("queue-depth", 64));
  config.service.cache_capacity =
      static_cast<std::size_t>(args.get_uint("cache-capacity", 1024));
  config.service.cache_shards =
      static_cast<std::size_t>(args.get_uint("cache-shards", 8));
  config.metrics_path =
      args.get_string("metrics-out", "results/serve/metrics.json");
  config.trace_path = args.get_string("trace-out", "");
  config.max_connections =
      static_cast<std::size_t>(args.get_uint("max-connections", 256));

  try {
    args.reject_unknown({"socket", "tcp-port", "workers",
                         "queue-depth", "cache-capacity", "cache-shards",
                         "metrics-out", "trace-out", "max-connections"});
    args.reject_positional();
    serve::Server server(std::move(config));
    std::printf("rapsim-served listening on %s\n",
                server.endpoint().describe().c_str());
    std::fflush(stdout);

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    // The signal handler can only flip a flag; a watcher thread turns
    // the flag into the drain request the accept loop polls.
    std::thread watcher([&server] {
      while (!g_stop && !server.service().shutdown_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      server.request_stop();
    });

    const int rc = server.run();
    watcher.join();
    std::printf("rapsim-served drained cleanly\n");
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rapsim-served: %s\n", e.what());
    return 1;
  }
}
