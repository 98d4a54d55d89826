// Unit + concurrency tests for the serve subsystem driven WITHOUT a
// socket: the JSON parser, the protocol codec, the response cache, and a
// Service instance submitted to directly. Everything timing-sensitive
// (coalescing, shedding, deadlines) is made deterministic with the
// debug_hold_ms hook plus stats polling — no sleeps standing in for
// synchronization.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "contract.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "telemetry/json.hpp"
#include "telemetry/span_tracer.hpp"
#include "util/hash.hpp"

namespace rapsim::serve {
namespace {

using telemetry::JsonValue;
using telemetry::parse_json;

// ---------------------------------------------------------------- protocol

TEST(Protocol, ParsesFullEnvelope) {
  const Request request = parse_request(
      R"({"id":"r1","method":"certify","params":{"width":32},)"
      R"("deadline_ms":250,"debug_hold_ms":5})");
  EXPECT_EQ(request.id_json, "\"r1\"");
  EXPECT_EQ(request.method, "certify");
  ASSERT_NE(request.params.find("width"), nullptr);
  EXPECT_EQ(request.deadline_ms, 250u);
  EXPECT_EQ(request.debug_hold_ms, 5u);
}

TEST(Protocol, DebugHoldIsCapped) {
  const Request request =
      parse_request(R"({"method":"ping","debug_hold_ms":999999999})");
  EXPECT_EQ(request.debug_hold_ms, kMaxDebugHoldMs);
}

TEST(Protocol, RejectsUnknownEnvelopeMember) {
  try {
    (void)parse_request(R"({"method":"ping","deadline":5})");
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
}

TEST(Protocol, RejectsMissingMethodAndBadParams) {
  EXPECT_THROW((void)parse_request("{}"), ServeError);
  EXPECT_THROW((void)parse_request("[1,2]"), ServeError);
  EXPECT_THROW((void)parse_request(R"({"method":"x","params":3})"),
               ServeError);
  EXPECT_THROW((void)parse_request("not json"), ServeError);
}

TEST(Protocol, ResultIsAlwaysTheLastMember) {
  Request request;
  request.id_json = "7";
  request.method = "certify";
  const std::string line =
      make_success_response(request, true, false, 12, R"({"x":1})");
  EXPECT_EQ(line.find("\"id\":7"), 1u);
  ASSERT_GE(line.size(), 2u);
  // The result body is the exact suffix between `"result":` and the
  // closing brace — the invariant the client's byte-extraction relies on.
  const std::size_t marker = line.find("\"result\":");
  ASSERT_NE(marker, std::string::npos);
  EXPECT_EQ(line.substr(marker + 9, line.size() - marker - 10), R"({"x":1})");
  EXPECT_EQ(line.back(), '}');
}

TEST(Protocol, ErrorEnvelopeShape) {
  Request request;
  request.method = "replay";
  const std::string line =
      make_error_response(request, ErrorCode::kOverloaded, "queue full");
  const JsonValue doc = parse_json(line);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  const JsonValue* error = doc.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->as_integer(), 503);
  EXPECT_EQ(error->find("name")->as_string(), "overloaded");
}

// ------------------------------------------------------------------- cache

TEST(ResponseCache, HitAfterInsertIsByteIdentical) {
  ResponseCache cache(8, 2);
  EXPECT_FALSE(cache.lookup("k1").has_value());
  cache.insert("k1", R"({"answer":42})");
  const auto hit = cache.lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, R"({"answer":42})");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResponseCache, EvictsLeastRecentlyUsedPerShard) {
  // One shard so the LRU order is globally observable.
  ResponseCache cache(2, 1);
  cache.insert("a", "A");
  cache.insert("b", "B");
  ASSERT_TRUE(cache.lookup("a").has_value());  // refresh a; b is now LRU
  cache.insert("c", "C");                      // evicts b
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResponseCache, CapacityZeroDisables) {
  ResponseCache cache(0, 4);
  cache.insert("k", "v");
  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResponseCache, RefreshingAnEntryReplacesItsBody) {
  ResponseCache cache(4, 1);
  cache.insert("k", "old");
  cache.insert("k", "new");
  EXPECT_EQ(cache.lookup("k").value(), "new");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResponseCache, ConcurrentMixedUseIsSafe) {
  ResponseCache cache(64, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key =
            "key-" + std::to_string((t * 500 + i) % 97);
        cache.insert(key, "body-" + key);
        if (const auto hit = cache.lookup(key)) {
          ASSERT_EQ(*hit, "body-" + key);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// ------------------------------------------------- service: basic routing

std::string result_suffix(const std::string& line) {
  const std::size_t marker = line.find("\"result\":");
  EXPECT_NE(marker, std::string::npos) << line;
  return line.substr(marker + 9, line.size() - marker - 10);
}

int error_code_of(const std::string& line) {
  const JsonValue doc = parse_json(line);
  const JsonValue* error = doc.find("error");
  return error ? static_cast<int>(error->find("code")->as_integer()) : 0;
}

TEST(Service, PingStatsAndUnknownMethod) {
  Service service({.workers = 1});
  EXPECT_EQ(result_suffix(service.handle_line(R"({"method":"ping"})")),
            R"({"pong":true})");
  const JsonValue stats =
      parse_json(result_suffix(service.handle_line(R"({"method":"stats"})")));
  EXPECT_EQ(stats.find("workers")->as_integer(), 1);
  EXPECT_EQ(stats.find("queue_capacity")->as_integer(), 64);
  ASSERT_NE(stats.find("cache"), nullptr);
  ASSERT_NE(stats.find("metrics"), nullptr);
  EXPECT_EQ(error_code_of(service.handle_line(R"({"method":"frobnicate"})")),
            404);
}

TEST(Service, MalformedLineAndBadParams) {
  Service service({.workers = 1});
  EXPECT_EQ(error_code_of(service.handle_line("{oops")), 400);
  EXPECT_EQ(error_code_of(service.handle_line(
                R"({"method":"certify","params":{"addresses":[]}})")),
            400);
  EXPECT_EQ(error_code_of(service.handle_line(
                R"({"method":"certify","params":{"addresses":[0,1],)"
                R"("scheme":"bogus"}})")),
            400);
  EXPECT_EQ(error_code_of(service.handle_line(
                R"({"method":"replay","params":{"trace":"x","trace_path":"y"}})")),
            400);
}

TEST(Service, ReplayRejectsAnInlineTraceAboveTheOpCap) {
  // 64 barriers over 2^20 threads would lower to 2^26 ops (about
  // 1.9 GB); the parser turns the request away before replay sizes it.
  std::string text =
      R"(rapsim-trace v1\nwidth 64\nthreads 1048576\nsize 64\n)";
  for (int i = 0; i < 64; ++i) text += "barrier " + std::to_string(i) + "\\n";
  text += R"(end\n)";
  Service service({.workers = 1});
  const std::string reply = service.handle_line(
      R"({"method":"replay","params":{"scheme":"raw","trace":")" + text +
      R"("}})");
  EXPECT_EQ(error_code_of(reply), 400);
  EXPECT_NE(reply.find("cap of 33554432"), std::string::npos) << reply;
}

TEST(Service, AllFourPoolMethodsAnswer) {
  Service service({.workers = 1});
  const std::string certify = result_suffix(service.handle_line(
      R"({"method":"certify","params":{"addresses":[0,32,64],"width":32}})"));
  EXPECT_NE(parse_json(certify).find("certificate"), nullptr);

  const std::string lint = result_suffix(service.handle_line(
      R"({"method":"lint","params":{"kernel":)"
      R"("kernel k\nwidth 32\nrows 4\nsite s load flat lane=1\n"}})"));
  EXPECT_NE(parse_json(lint).find("severity"), nullptr);

  const std::string replay = result_suffix(service.handle_line(
      R"({"method":"replay","params":{"trace":)"
      R"("rapsim-trace v1\nwidth 4\nthreads 4\nsize 16\n)"
      R"(read 0 0 f 0 1 2 3\nend\n","scheme":"rap","seed":5}})"));
  EXPECT_NE(parse_json(replay).find("time"), nullptr);

  const std::string advise = result_suffix(service.handle_line(
      R"({"method":"advise","params":{"addresses":[0,32,64],"width":32,)"
      R"("rows":4,"draws":4}})"));
  EXPECT_NE(parse_json(advise).find("recommended"), nullptr);
}

// --------------------------------------- service: cache hits on the wire

TEST(Service, SecondIdenticalCallIsCachedAndByteIdentical) {
  Service service({.workers = 1});
  const std::string request =
      R"({"method":"certify","params":{"addresses":[0,1,2,3],"width":32}})";
  const std::string first = service.handle_line(request);
  const std::string second = service.handle_line(request);
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos);
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos);
  EXPECT_EQ(result_suffix(first), result_suffix(second));
}

TEST(Service, CacheIdentityIgnoresIdAndDebugHold) {
  Service service({.workers = 1});
  const std::string first = service.handle_line(
      R"({"id":"a","method":"certify","params":{"addresses":[4,5],)"
      R"("width":32},"debug_hold_ms":1})");
  const std::string second = service.handle_line(
      R"({"id":"b","method":"certify","params":{"addresses":[4,5],)"
      R"("width":32}})");
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos);
  EXPECT_NE(second.find("\"id\":\"b\""), std::string::npos);
  EXPECT_EQ(result_suffix(first), result_suffix(second));
}

TEST(Service, InlineAndPathTracesShareOneCacheEntry) {
  const std::string text =
      "rapsim-trace v1\nwidth 4\nthreads 4\nsize 16\n"
      "read 0 0 f 0 1 2 3\nend\n";
  const std::string path = testing::TempDir() + "/serve_cache_share.trace";
  {
    std::ofstream out(path);
    out << text;
  }
  Service service({.workers = 1});
  const std::string by_text = service.handle_line(
      R"({"method":"replay","params":{"scheme":"raw","trace":)"
      R"("rapsim-trace v1\nwidth 4\nthreads 4\nsize 16\n)"
      R"(read 0 0 f 0 1 2 3\nend\n"}})");
  const std::string by_path = service.handle_line(
      R"({"method":"replay","params":{"scheme":"raw","trace_path":")" + path +
      R"("}})");
  EXPECT_NE(by_text.find("\"cached\":false"), std::string::npos);
  EXPECT_NE(by_path.find("\"cached\":true"), std::string::npos)
      << "a path-loaded copy of the same stream must hit the inline entry";
  EXPECT_EQ(result_suffix(by_text), result_suffix(by_path));
}

// ----------------------------- service: coalescing, shedding, deadlines

Request make_request(const std::string& line) { return parse_request(line); }

/// Poll the stats body until `ready` accepts it (bounded).
void await_stats(Service& service,
                 const std::function<bool(const JsonValue&)>& ready) {
  for (int i = 0; i < 2000; ++i) {
    const JsonValue stats = parse_json(
        result_suffix(service.handle_line(R"({"method":"stats"})")));
    if (ready(stats)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "stats condition not reached";
}

TEST(Service, IdenticalInflightRequestsCoalesce) {
  Service service({.workers = 1});
  const std::string line =
      R"({"method":"certify","params":{"addresses":[8,9],"width":32}})";
  Request held = make_request(line);
  held.debug_hold_ms = 300;
  std::future<std::string> first = service.submit(std::move(held));
  // Wait until the worker holds the flight (queue empty, still in flight).
  await_stats(service, [](const JsonValue& stats) {
    return stats.find("queue_depth")->as_integer() == 0 &&
           stats.find("in_flight")->as_integer() == 1;
  });
  std::future<std::string> second = service.submit(make_request(line));
  const std::string first_line = first.get();
  const std::string second_line = second.get();
  EXPECT_NE(first_line.find("\"coalesced\":false"), std::string::npos);
  EXPECT_NE(second_line.find("\"coalesced\":true"), std::string::npos);
  EXPECT_EQ(result_suffix(first_line), result_suffix(second_line));
  const JsonValue stats = parse_json(
      result_suffix(service.handle_line(R"({"method":"stats"})")));
  EXPECT_EQ(stats.find("coalesced_total")->as_integer(), 1);
}

TEST(Service, FullQueueShedsWithStructured503) {
  Service service({.workers = 1, .queue_depth = 1});
  Request held = make_request(
      R"({"method":"certify","params":{"addresses":[1],"width":32}})");
  held.debug_hold_ms = 1000;
  std::future<std::string> executing = service.submit(std::move(held));
  await_stats(service, [](const JsonValue& stats) {
    return stats.find("queue_depth")->as_integer() == 0 &&
           stats.find("in_flight")->as_integer() == 1;
  });
  // Fills the queue slot.
  std::future<std::string> queued = service.submit(make_request(
      R"({"method":"certify","params":{"addresses":[2],"width":32}})"));
  // Must shed immediately — the future is ready without waiting.
  std::future<std::string> shed = service.submit(make_request(
      R"({"id":"s","method":"certify","params":{"addresses":[3],"width":32}})"));
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const std::string shed_line = shed.get();
  EXPECT_EQ(error_code_of(shed_line), 503);
  EXPECT_NE(shed_line.find("\"id\":\"s\""), std::string::npos);

  EXPECT_EQ(error_code_of(executing.get()), 0);
  EXPECT_EQ(error_code_of(queued.get()), 0);
  const JsonValue stats = parse_json(
      result_suffix(service.handle_line(R"({"method":"stats"})")));
  EXPECT_EQ(stats.find("shed_total")->as_integer(), 1);
}

TEST(Service, DeadlineLapsesDuringHold) {
  Service service({.workers = 1});
  Request request = make_request(
      R"({"method":"certify","params":{"addresses":[6],"width":32},)"
      R"("deadline_ms":30})");
  request.debug_hold_ms = 5000;
  const auto start = std::chrono::steady_clock::now();
  const std::string line = service.submit(std::move(request)).get();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(error_code_of(line), 408);
  // The hold loop must give up at the deadline, not sit out the hold.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            4000);
}

TEST(Service, ExpiredWaiterGets408WhileOpenEndedWaiterGetsResult) {
  Service service({.workers = 1});
  const std::string line =
      R"({"method":"certify","params":{"addresses":[7],"width":32}})";
  Request held = make_request(line);
  held.debug_hold_ms = 300;  // no deadline: the flight always completes
  std::future<std::string> patient = service.submit(std::move(held));
  await_stats(service, [](const JsonValue& stats) {
    return stats.find("queue_depth")->as_integer() == 0 &&
           stats.find("in_flight")->as_integer() == 1;
  });
  Request hurried = make_request(line);
  hurried.deadline_ms = 20;  // lapses during the co-waiter's hold
  std::future<std::string> impatient = service.submit(std::move(hurried));
  EXPECT_EQ(error_code_of(patient.get()), 0);
  EXPECT_EQ(error_code_of(impatient.get()), 408);
}

TEST(Service, DrainRejectsNewWorkAndFinishesInflight) {
  auto service = std::make_unique<Service>(ServiceConfig{.workers = 1});
  Request held = make_request(
      R"({"method":"certify","params":{"addresses":[11],"width":32}})");
  held.debug_hold_ms = 100;
  std::future<std::string> inflight = service->submit(std::move(held));
  std::thread drainer([&service] { service->drain(); });
  // In-flight work finishes with a result even though drain started.
  EXPECT_EQ(error_code_of(inflight.get()), 0);
  drainer.join();
  EXPECT_TRUE(service->draining());
  std::future<std::string> rejected = service->submit(make_request(
      R"({"method":"certify","params":{"addresses":[12],"width":32}})"));
  EXPECT_EQ(error_code_of(rejected.get()), 503);
}

TEST(Service, ShutdownMethodFlagsTheServer) {
  Service service({.workers = 1});
  EXPECT_FALSE(service.shutdown_requested());
  EXPECT_EQ(result_suffix(service.handle_line(R"({"method":"shutdown"})")),
            R"({"stopping":true})");
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(Service, MetricsDocumentShape) {
  Service service({.workers = 1});
  (void)service.handle_line(R"({"method":"ping"})");
  const JsonValue doc = parse_json(service.metrics_document());
  EXPECT_EQ(doc.find("schema_version")->as_integer(), 1);
  EXPECT_EQ(doc.find("experiment")->as_string(), "rapsim_served");
  ASSERT_NE(doc.find("cache"), nullptr);
  ASSERT_NE(doc.find("metrics"), nullptr);
}

// ------------------------------------- service: stats + span observability

TEST(Service, StatsReportsTheCacheHitAndIsNeverCachedItself) {
  Service service({.workers = 1});
  const std::string request =
      R"({"method":"certify","params":{"addresses":[0,1,2],"width":32}})";
  (void)service.handle_line(request);
  const std::string repeat = service.handle_line(request);
  EXPECT_NE(repeat.find("\"cached\":true"), std::string::npos);

  const auto snapshot = [&] {
    return parse_json(result_suffix(service.handle_line(
        R"({"method":"stats"})")));
  };
  const JsonValue stats = snapshot();
  const JsonValue* cache = stats.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->find("hits")->as_integer(), 1);
  EXPECT_GT(cache->find("hit_rate")->as_number(), 0.0);
  EXPECT_LE(cache->find("hit_rate")->as_number(), 1.0);
  EXPECT_GT(cache->find("occupancy")->as_number(), 0.0);
  // The worker fulfils the caller's promise before clearing its busy
  // flag, so a snapshot taken right after a reply may still see it
  // counted — assert the pool invariant, not an exact idle count.
  const std::int64_t busy = stats.find("busy_workers")->as_integer();
  EXPECT_GE(busy, 0);
  EXPECT_LE(busy, stats.find("workers")->as_integer());
  const double utilization = stats.find("utilization")->as_number();
  EXPECT_GE(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);

  // stats is control-plane: answered inline, never from the cache — a
  // second snapshot reflects the live registry (request counts grew),
  // which a cached reply could not.
  const std::string a = service.handle_line(R"({"method":"stats"})");
  const std::string b = service.handle_line(R"({"method":"stats"})");
  EXPECT_NE(a.find("\"cached\":false"), std::string::npos);
  EXPECT_NE(b.find("\"cached\":false"), std::string::npos);
}

TEST(Service, PoolRequestRecordsPhaseDistributions) {
  Service service({.workers = 1});
  (void)service.handle_line(
      R"({"method":"certify","params":{"addresses":[7,8],"width":32}})");
  const std::string document = service.metrics_document();
  for (const char* phase : {"admission", "cache_lookup", "queue_wait",
                            "execute"}) {
    EXPECT_NE(document.find(std::string("\"phase\":\"") + phase + "\""),
              std::string::npos)
        << "missing serve.phase_us{" << phase << "} in " << document;
  }
  EXPECT_NE(document.find("\"serve.phase_us\""), std::string::npos);
}

TEST(Service, TracedRequestNestsPhaseSpansUnderTheTransportRoot) {
  telemetry::SpanTracer tracer;
  tracer.enable();
  Service service({.workers = 1});
  service.set_tracer(&tracer);

  const std::uint64_t root = tracer.begin("request");
  (void)service.handle_line(
      R"({"method":"replay","params":{"trace":)"
      R"("rapsim-trace v1\nwidth 4\nthreads 4\nsize 16\n)"
      R"(read 0 0 f 0 1 2 3\nend\n","scheme":"rap","seed":5}})",
      root);
  tracer.end(root);

  const std::vector<telemetry::SpanRecord> spans = tracer.snapshot();
  const auto find = [&](const std::string& name)
      -> const telemetry::SpanRecord* {
    for (const telemetry::SpanRecord& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  };
  const telemetry::SpanRecord* request = find("request");
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->parent, telemetry::kNoSpan);
  for (const char* name :
       {"admission", "cache_lookup", "queue_wait", "execute:replay"}) {
    const telemetry::SpanRecord* span = find(name);
    ASSERT_NE(span, nullptr) << "missing span " << name;
    EXPECT_EQ(span->parent, request->id) << name;
    EXPECT_GE(span->start_ns, request->start_ns) << name;
    EXPECT_LE(span->end_ns, request->end_ns) << name;
  }
  // The handler's own spans nest one level deeper, under execute:replay.
  const telemetry::SpanRecord* execute = find("execute:replay");
  for (const char* name : {"replay:lower", "replay:execute"}) {
    const telemetry::SpanRecord* span = find(name);
    ASSERT_NE(span, nullptr) << "missing span " << name;
    EXPECT_EQ(span->parent, execute->id) << name;
  }
  // >= 4 spans nested under the request root — the flame the chrome
  // exporter renders.
  std::size_t nested = 0;
  for (const telemetry::SpanRecord& span : spans) {
    if (span.parent == request->id) ++nested;
  }
  EXPECT_GE(nested, 4u);

  // An untraced request on the same service records no new spans.
  const std::size_t before = tracer.completed_count();
  (void)service.handle_line(R"({"method":"ping"})");
  EXPECT_EQ(tracer.completed_count(), before);
}

// ------------------------------------------ response contract (ServeSchema)
// The JSON contract of every method's response, the stats snapshot and
// the metrics document; the serve_schema ctest runs this suite once.

using contract::at;

/// A request line for `method` whose params carry `text` under `key`,
/// followed by the raw members `extra`.
std::string text_request(std::string_view method, std::string_view key,
                         std::string_view text, std::string_view extra = "") {
  telemetry::JsonWriter json;
  json.begin_object().kv("method", method).key("params").begin_object();
  json.kv(key, text).end_object().end_object();
  std::string line = json.str();
  line.insert(line.size() - 2, extra);
  return line;
}

/// The registry the service keeps: request counters for every pool
/// method, latency and per-phase distributions.
void expect_serve_registry(const JsonValue& registry) {
  contract::expect_registry(registry);
  std::set<std::string> ok_methods;
  for (const JsonValue* counter :
       contract::registry_entries(registry, "counters", "serve.requests")) {
    const JsonValue& labels = at(*counter, "labels");
    contract::expect_keys(labels, {"method", "status"});
    if (at(labels, "status").serialize() == R"("ok")") {
      ok_methods.insert(at(labels, "method").as_string());
    }
  }
  EXPECT_TRUE(std::ranges::includes(
      ok_methods, std::set<std::string>{"advise", "advise.synthesize",
                                        "certify", "lint", "replay"}));
  EXPECT_FALSE(
      contract::registry_entries(registry, "distributions", "serve.latency_us")
          .empty());
  std::set<std::string> phases;
  for (const JsonValue* dist :
       contract::registry_entries(registry, "distributions", "serve.phase_us")) {
    phases.insert(at(at(*dist, "labels"), "phase").as_string());
  }
  EXPECT_TRUE(std::ranges::includes(
      phases, std::set<std::string>{"admission", "cache_lookup", "execute",
                                    "queue_wait"}));
}

TEST(ServeSchema, EveryMethodStatsAndMetricsMeetTheContract) {
  Service service({.workers = 1});
  // The result of one call, after checking its envelope.
  const auto call = [&](const std::string& line, std::string_view method) {
    SCOPED_TRACE(line);
    return JsonValue(at(
        contract::expect_serve_success(service.handle_line(line), method),
        "result"));
  };

  contract::expect_certificate(at(
      call(R"({"method":"certify","params":{"addresses":[0,32,64,96],)"
           R"("width":32,"scheme":"rap","seed":9}})",
           "certify"),
      "certificate"));

  const std::string transpose = contract::read_text(RAPSIM_EXAMPLES_DIR "/naive_transpose.kernel");
  const JsonValue lint = call(text_request("lint", "kernel", transpose), "lint");
  contract::expect_lint_report(lint);
  EXPECT_EQ(at(at(lint, "races"), "race_free").serialize(), "true");

  const std::string_view racy = contract::kStrippedTileKernel;
  contract::expect_racy_lint_report(
      call(text_request("lint", "kernel", racy, R"(,"width":16)"), "lint"));
  // params.races=false drops the race pass: the missing barrier goes
  // unnoticed and the races block is omitted.
  const JsonValue unraced = call(
      text_request("lint", "kernel", racy, R"(,"width":16,"races":false)"),
      "lint");
  contract::expect_lint_report(unraced);
  EXPECT_EQ(unraced.find("races"), nullptr);
  EXPECT_NE(at(unraced, "severity").as_string(), "error");

  contract::expect_keys(
      call(text_request("replay", "trace",
                        contract::read_text(RAPSIM_EXAMPLES_DIR "/contiguous_stride.trace"),
                        R"(,"scheme":"raw")"),
           "replay"),
      {"trace_hash", "scheme", "width", "latency", "seed", "time",
       "pipeline_slots", "dispatches", "max_congestion", "avg_congestion"});

  const JsonValue advice =
      call(R"({"method":"advise","params":{"addresses":[0,16,32],"rows":4,)"
           R"("width":16,"draws":4}})",
           "advise");
  contract::expect_keys(advice, {"scores", "recommended", "rationale"});
  EXPECT_EQ(at(advice, "scores").as_array().size(), 4u);

  const std::string synthesize =
      text_request("advise.synthesize", "kernel", transpose, R"(,"draws":8)");
  const std::string cold = service.handle_line(synthesize);
  contract::expect_synthesis(
      at(contract::expect_serve_success(cold, "advise.synthesize"), "result"));
  const std::string warm = service.handle_line(synthesize);
  const JsonValue warm_envelope =
      contract::expect_serve_success(warm, "advise.synthesize");
  EXPECT_EQ(at(warm_envelope, "cached").serialize(), "true");
  EXPECT_EQ(result_suffix(cold), result_suffix(warm));

  const JsonValue stats = call(R"({"method":"stats"})", "stats");
  contract::expect_keys(stats, {"uptime_ms", "workers", "queue_depth",
                                "queue_capacity", "in_flight", "draining",
                                "busy_workers", "utilization", "shed_total",
                                "coalesced_total", "cache", "metrics"});
  const JsonValue& cache = at(stats, "cache");
  contract::expect_keys(cache, {"hits", "misses", "insertions", "evictions",
                                "entries", "capacity", "hit_rate",
                                "occupancy"});
  const double hits = at(cache, "hits").as_number();
  EXPECT_DOUBLE_EQ(at(cache, "hit_rate").as_number(),
                   hits / (hits + at(cache, "misses").as_number()));
  EXPECT_LE(at(cache, "occupancy").as_number(), 1.0);
  expect_serve_registry(at(stats, "metrics"));

  const JsonValue metrics = contract::parse(service.metrics_document());
  contract::expect_keys(metrics, {"uptime_ms", "workers", "queue_capacity",
                                  "shed_total", "coalesced_total", "cache",
                                  "metrics"});
  expect_serve_registry(at(metrics, "metrics"));
}

TEST(ServeSchema, ErrorEnvelopeEchoesTheIdAndNamesTheCode) {
  Service service({.workers = 1});
  const JsonValue error = contract::expect_serve_error(
      service.handle_line(R"({"id":1,"method":"no-such-method"})"));
  EXPECT_EQ(at(error, "id").serialize(), "1");
  EXPECT_EQ(at(at(error, "error"), "code").serialize(), "404");
  EXPECT_EQ(at(at(error, "error"), "name").as_string(), "unknown_method");
}

// -------------------------------------------------- client response parse

TEST(ParseResponse, ExtractsResultBytesVerbatim) {
  Request request;
  request.id_json = "\"x\"";
  request.method = "certify";
  const std::string body = R"({"bound":4,"note":"\"result\":quoted"})";
  const ClientResponse response =
      parse_response(make_success_response(request, true, false, 9, body));
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.cached);
  EXPECT_EQ(response.elapsed_us, 9u);
  EXPECT_EQ(response.result_json, body);
}

TEST(ParseResponse, CracksErrorEnvelope) {
  Request request;
  request.method = "lint";
  const ClientResponse response = parse_response(
      make_error_response(request, ErrorCode::kDeadlineExceeded, "late"));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, 408);
  EXPECT_EQ(response.error_name, "deadline_exceeded");
  EXPECT_EQ(response.error_message, "late");
}

}  // namespace
}  // namespace rapsim::serve
