#include "serve/server.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "telemetry/chrome_trace.hpp"
#include "util/clock.hpp"

namespace rapsim::serve {

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      service_(config_.service),
      listener_(config_.endpoint) {
  if (!config_.trace_path.empty()) {
    tracer_.enable();
    service_.set_tracer(&tracer_);
  }
}

Server::~Server() {
  request_stop();
  // run() owns the joins; if run() was never called, connections_ is
  // empty and there is nothing to wait for.
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  for (Connection& connection : connections_) {
    if (connection.thread.joinable()) connection.thread.join();
  }
}

const Endpoint& Server::endpoint() const noexcept {
  return listener_.endpoint();
}

void Server::request_stop() noexcept { stop_.store(true); }

void Server::reap_finished_connections() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done->load()) {
      if (it->thread.joinable()) it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

int Server::run() {
  while (!stop_.load()) {
    if (service_.shutdown_requested()) break;
    std::optional<Socket> accepted = listener_.accept(kPollMs);
    reap_finished_connections();
    if (!accepted) continue;

    if (open_connections_.load() >= config_.max_connections) {
      // Connection-level backpressure mirrors request-level shedding:
      // refuse with a structured line rather than hanging the client.
      Socket refused = std::move(*accepted);
      (void)write_all(refused,
                      make_parse_error_response(
                          ErrorCode::kOverloaded,
                          "connection limit reached; retry later") +
                          "\n");
      continue;
    }

    auto done = std::make_shared<std::atomic<bool>>(false);
    open_connections_.fetch_add(1);
    std::thread thread(
        [this, done, socket = std::move(*accepted)]() mutable {
          connection_loop(std::move(socket));
          open_connections_.fetch_sub(1);
          done->store(true);
        });
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(Connection{std::move(thread), std::move(done)});
  }

  // Drain: stop accepting (close the listener so backlogged connects
  // fail fast), connection pumps observe stop_ and wind down, then the
  // pool empties.
  stop_.store(true);
  listener_.close();
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (Connection& connection : connections_) {
      if (connection.thread.joinable()) connection.thread.join();
    }
    connections_.clear();
  }
  service_.drain();
  if (!config_.metrics_path.empty()) {
    service_.write_metrics(config_.metrics_path);
  }
  if (!config_.trace_path.empty()) write_trace();
  return 0;
}

void Server::write_trace() {
  const std::string document =
      telemetry::spans_to_chrome_trace(tracer_.snapshot(), "rapsim-served");
  const std::filesystem::path target(config_.trace_path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path());
  }
  const std::string tmp = config_.trace_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("serve: cannot write " + tmp);
    out << document << '\n';
    if (!out) throw std::runtime_error("serve: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), config_.trace_path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("serve: cannot rename " + tmp + " to " +
                             config_.trace_path);
  }
}

void Server::connection_loop(Socket socket) {
  LineReader reader(socket);
  std::string line;
  for (;;) {
    // On stop: answer complete lines already buffered, then hang up.
    if (stop_.load() && !reader.buffered_line_ready()) return;
    const LineReader::Status status =
        reader.read_line(line, kPollMs, kMaxRequestBytes + 1024);
    if (status == LineReader::Status::kClosed) return;
    if (status == LineReader::Status::kTimeout) continue;
    if (line.empty()) continue;  // tolerate blank keep-alive lines
    // The transport owns the root "request" span; the engine parents its
    // phase spans under it and the write phase closes the flame.
    const std::uint64_t root = tracer_.begin("request");
    const std::string response = service_.handle_line(line, root);
    const std::uint64_t write_span = tracer_.begin("write", root);
    const util::TimePoint write_start = util::now();
    const bool ok = write_all(socket, response + "\n");
    service_.observe_phase("write", util::elapsed_ns(write_start) / 1000);
    tracer_.end(write_span);
    tracer_.end(root);
    if (!ok) return;
  }
}

}  // namespace rapsim::serve
