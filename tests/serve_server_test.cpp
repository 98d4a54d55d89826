// End-to-end tests of the socket layer: a real Server on a UNIX domain
// socket (TCP loopback in one test), real Clients on threads, graceful
// drain with a metrics flush. The Service-level concurrency semantics
// are pinned in serve_test.cpp; here the subject is the transport —
// framing, concurrent connections, connection-limit refusal, shutdown.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "contract.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "telemetry/json.hpp"

namespace rapsim::serve {
namespace {

using contract::at;
using contract::JsonValue;

/// A Server on its own thread bound to a fresh UNIX socket path; joins
/// and unlinks on destruction.
class ServerFixture {
 public:
  enum class Transport { kUnix, kTcp };

  explicit ServerFixture(ServerConfig config = {},
                         Transport transport = Transport::kUnix) {
    if (transport == Transport::kUnix) {
      path_ = testing::TempDir() + "/rapsim_serve_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
              ".sock";
      std::remove(path_.c_str());
      config.endpoint.path = path_;
    }
    server_ = std::make_unique<Server>(std::move(config));
    thread_ = std::thread([this] { exit_code_ = server_->run(); });
  }

  ~ServerFixture() { stop(); }

  void stop() {
    if (server_) server_->request_stop();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] const Endpoint& endpoint() const {
    return server_->endpoint();
  }
  [[nodiscard]] Server& server() { return *server_; }
  [[nodiscard]] int exit_code() const { return exit_code_; }

 private:
  std::string path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  int exit_code_ = -1;
};

TEST(Server, PingOverUnixSocket) {
  ServerFixture fixture;
  Client client(fixture.endpoint());
  const ClientResponse response = client.call("ping");
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.result_json, R"({"pong":true})");
}

TEST(Server, PingOverTcpLoopback) {
  // Kernel-assigned port, resolved by the Listener before run() starts.
  ServerFixture fixture({}, ServerFixture::Transport::kTcp);
  EXPECT_GT(fixture.endpoint().port, 0);
  Client client(fixture.endpoint());
  EXPECT_TRUE(client.call("ping").ok);
}

TEST(Server, CachedRepeatIsByteIdenticalThroughTheWire) {
  ServerFixture fixture;
  Client client(fixture.endpoint());
  const std::string params = R"({"addresses":[0,32,64,96],"width":32})";
  const ClientResponse first = client.call("certify", params);
  const ClientResponse second = client.call("certify", params);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.result_json, second.result_json);
}

TEST(Server, OneConnectionPumpsManySequentialRequests) {
  ServerFixture fixture;
  Client client(fixture.endpoint());
  for (int i = 0; i < 20; ++i) {
    const ClientResponse response = client.call(
        "certify", R"({"addresses":[)" + std::to_string(i * 32) +
                       R"(],"width":32})");
    ASSERT_TRUE(response.ok) << response.raw;
  }
}

TEST(Server, ConcurrentClientsAllGetAnswers) {
  ServerFixture fixture;
  constexpr int kClients = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&fixture, &ok_count, c] {
      Client client(fixture.endpoint());
      const std::string params =
          R"({"addresses":[)" + std::to_string(c) + R"(,)" +
          std::to_string(c + 32) + R"(],"width":32})";
      for (int i = 0; i < 5; ++i) {
        if (client.call("certify", params).ok) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kClients * 5);
}

TEST(Server, TraceOutNestsTheWritePhaseUnderItsRequest) {
  // The transport owns the request root and the write phase: the write is
  // timed in the registry before the next line is read, and the drained
  // --trace-out document renders it under its request, on that track.
  ServerConfig config;
  config.trace_path = testing::TempDir() + "/rapsim_serve_spans.json";
  const std::string trace_path = config.trace_path;
  ServerFixture fixture(std::move(config));
  {
    Client client(fixture.endpoint());
    ASSERT_TRUE(client.call("ping").ok);
    EXPECT_NE(client.call("stats").result_json.find(R"("phase":"write")"),
              std::string::npos);
  }
  fixture.stop();

  std::map<std::string, const JsonValue*> by_span;
  const JsonValue doc = contract::parse(contract::read_text(trace_path));
  for (const JsonValue& event : at(doc, "traceEvents").as_array()) {
    if (at(event, "ph").serialize() != R"("X")") continue;
    contract::expect_keys(event, {"name", "pid", "tid", "ts", "dur", "args"});
    by_span[at(at(event, "args"), "span").serialize()] = &event;
  }
  std::size_t writes = 0;
  for (const auto& [span, event] : by_span) {
    if (at(*event, "name").as_string() != "write") continue;
    ++writes;
    const auto parent =
        by_span.find(at(at(*event, "args"), "parent").serialize());
    ASSERT_NE(parent, by_span.end()) << "a write span without its request";
    EXPECT_EQ(at(*parent->second, "name").as_string(), "request");
    EXPECT_EQ(at(*parent->second, "tid").serialize(),
              at(*event, "tid").serialize());
  }
  EXPECT_GE(writes, 1u);
}

TEST(Server, MalformedLineGetsStructured400) {
  ServerFixture fixture;
  Client client(fixture.endpoint());
  const ClientResponse response =
      parse_response(client.roundtrip("this is not json"));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, 400);
  // The connection survives a bad line.
  EXPECT_TRUE(client.call("ping").ok);
}

TEST(Server, ConnectionLimitRefusesWithStructured503) {
  ServerConfig config;
  config.max_connections = 1;
  ServerFixture fixture(std::move(config));
  Client first(fixture.endpoint());
  ASSERT_TRUE(first.call("ping").ok);  // the slot is held
  // The refusal line is pushed at accept time, before any request is
  // sent — read it straight off the raw socket.
  Socket second = connect_to(fixture.endpoint());
  LineReader reader(second);
  std::string line;
  ASSERT_EQ(reader.read_line(line, /*timeout_ms=*/5000, 1 << 16),
            LineReader::Status::kLine);
  const ClientResponse refused = parse_response(line);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_code, 503);
}

TEST(Server, ClientShutdownRequestDrainsTheDaemon) {
  const std::string metrics_path =
      testing::TempDir() + "/rapsim_serve_shutdown_metrics.json";
  std::remove(metrics_path.c_str());
  ServerConfig config;
  config.metrics_path = metrics_path;
  ServerFixture fixture(std::move(config));
  {
    Client client(fixture.endpoint());
    ASSERT_TRUE(client.call("certify",
                            R"({"addresses":[0,1],"width":32})")
                    .ok);
    ASSERT_TRUE(client.call("shutdown").ok);
  }
  fixture.stop();  // joins; request_stop is idempotent with the
                   // shutdown-method path
  EXPECT_EQ(fixture.exit_code(), 0);

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "drain must flush " << metrics_path;
  std::ostringstream text;
  text << in.rdbuf();
  const telemetry::JsonValue doc = telemetry::parse_json(text.str());
  EXPECT_EQ(doc.find("experiment")->as_string(), "rapsim_served");
  ASSERT_NE(doc.find("metrics"), nullptr);
}

TEST(Server, RequestStopWithIdleConnectionsExitsCleanly) {
  ServerFixture fixture;
  Client idle(fixture.endpoint());
  ASSERT_TRUE(idle.call("ping").ok);
  fixture.stop();
  EXPECT_EQ(fixture.exit_code(), 0);
}

}  // namespace
}  // namespace rapsim::serve
