// Extension experiment: throughput of the serve engine on a hot certify
// workload, cold cache vs warm cache.
//
// Drives an in-process serve::Service (no sockets — the subject is the
// engine: routing, admission, the sharded response cache) from
// --clients submitter threads. The cold phase issues --unique distinct
// certify requests round-robin, so every request computes; the warm
// phase replays the same identities, so every request is a cache hit.
// Columns report wall time, requests/second and mean latency per phase;
// the summary line gives the cache-hit speedup — the number the
// response cache exists to deliver. A final coalescing phase hammers
// ONE identity from all clients against a cold cache to show the
// single-flight path.
//
//   $ ext_serve_throughput [--requests=2000] [--unique=64] [--clients=4]
//                          [--workers=0] [--width=32]
//                          [--format=ascii|markdown|csv]
//
// Part of tools/run_all.sh ("serve" section); stdout lands in
// results/ext_serve_throughput.txt.
//
// With --bench-json=PATH: perf-trajectory mode — the cold / warm /
// coalesce phases run once each (every phase is already thousands of
// operations) and each becomes one BENCH metric via
// perfbench::aggregate_latencies: ops_per_sec is true phase throughput,
// ns_per_op / p50 / p95 / p99 are per-REQUEST latency. It is the only
// BENCH series in the repository (baseline BENCH_serve.json; compare
// with tools/bench_compare): rapbench measures everything else.

#include <atomic>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace rapsim;
/// One certify request over a distinct stride pattern per identity slot.
std::string certify_line(std::uint64_t identity_slot, std::uint32_t width) {
  const std::uint64_t stride = 1 + identity_slot;
  std::string addresses;
  for (std::uint32_t lane = 0; lane < width; ++lane) {
    if (lane) addresses += ',';
    addresses += std::to_string(lane * stride);
  }
  return R"({"method":"certify","params":{"scheme":"rap","width":)" +
         std::to_string(width) + R"(,"addresses":[)" + addresses + "]}}";
}

struct PhaseResult {
  double seconds = 0.0;
  double requests_per_second = 0.0;
  double mean_latency_us = 0.0;
  std::uint64_t errors = 0;
  util::Tally latency_ns;       // per-request, merged over client threads
  std::uint64_t wall_ns = 0;
};

/// Fire `total` requests from `clients` threads, request i drawing its
/// line from lines[i % lines.size()].
PhaseResult run_phase(serve::Service& service,
                      const std::vector<std::string>& lines,
                      std::uint64_t total, std::uint64_t clients) {
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> errors{0};
  std::mutex tally_mutex;
  util::Tally latency_ns;
  const util::TimePoint start = util::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::uint64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      util::Tally local;  // merged once at exit, not per request
      for (;;) {
        const std::uint64_t i = next.fetch_add(1);
        if (i >= total) break;
        const util::TimePoint sent = util::now();
        const std::string response =
            service.handle_line(lines[i % lines.size()]);
        local.add(util::elapsed_ns(sent));
        if (response.find("\"ok\":true") == std::string::npos) {
          errors.fetch_add(1);
        }
      }
      const std::lock_guard<std::mutex> lock(tally_mutex);
      latency_ns.merge(local);
    });
  }
  for (std::thread& thread : threads) thread.join();

  PhaseResult result;
  result.wall_ns = util::elapsed_ns(start);
  result.seconds = static_cast<double>(result.wall_ns) / 1e9;
  result.requests_per_second =
      result.seconds > 0 ? static_cast<double>(total) / result.seconds : 0;
  util::OnlineStats mean;
  for (const auto& [value, count] : latency_ns.histogram()) {
    mean.add_repeated(static_cast<double>(value), count);
  }
  result.mean_latency_us = mean.mean() / 1000.0;
  result.errors = errors.load();
  result.latency_ns = std::move(latency_ns);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::uint64_t requests = args.get_uint("requests", 2000);
  const std::uint64_t unique = std::max<std::uint64_t>(
      1, args.get_uint("unique", 64));
  const std::uint64_t clients =
      std::max<std::uint64_t>(1, args.get_uint("clients", 4));
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));

  std::vector<std::string> lines;
  lines.reserve(unique);
  for (std::uint64_t slot = 0; slot < unique; ++slot) {
    lines.push_back(certify_line(slot, width));
  }

  serve::ServiceConfig config;
  config.workers = static_cast<std::size_t>(args.get_uint("workers", 0));
  config.cache_capacity = static_cast<std::size_t>(unique * 2);

  if (const auto bench_path = args.get("bench-json")) {
    serve::Service service(config);
    const PhaseResult cold = run_phase(service, lines, requests, clients);
    const PhaseResult warm = run_phase(service, lines, requests, clients);
    serve::Service single(config);
    const std::vector<std::string> one = {certify_line(unique + 1, width)};
    const PhaseResult coalesce =
        run_phase(single, one, clients * 8, clients);
    if (cold.errors + warm.errors + coalesce.errors > 0) {
      std::cerr << "ext_serve_throughput: unexpected request failures\n";
      return 1;
    }

    perfbench::BenchReport report("ext_serve_throughput");
    report.set_config("requests", requests);
    report.set_config("unique", unique);
    report.set_config("clients", clients);
    report.set_config("workers",
                      static_cast<std::uint64_t>(service.worker_threads()));
    report.set_config("width", width);
    report.add("cold",
               perfbench::aggregate_latencies(cold.latency_ns, cold.wall_ns));
    report.add("warm",
               perfbench::aggregate_latencies(warm.latency_ns, warm.wall_ns));
    report.add("coalesce", perfbench::aggregate_latencies(
                               coalesce.latency_ns, coalesce.wall_ns));
    perfbench::write_bench_json(*bench_path, report);
    std::printf("wrote %s\n", bench_path->c_str());
    return 0;
  }

  util::TextTable table;
  table.row()
      .add("phase")
      .add("requests")
      .add("unique")
      .add("seconds")
      .add("req/s")
      .add("mean_us")
      .add("errors");

  serve::Service service(config);
  // Cold: every identity computes at least once (the first `unique`
  // requests miss; round-robin repeats within the phase may coalesce or
  // hit — exactly the mixed regime a compiler driving the daemon sees).
  const PhaseResult cold = run_phase(service, lines, requests, clients);
  table.row()
      .add("cold")
      .add(requests)
      .add(unique)
      .add(cold.seconds, 3)
      .add(cold.requests_per_second, 0)
      .add(cold.mean_latency_us, 1)
      .add(cold.errors);

  // Warm: identical identities, fully cached.
  const PhaseResult warm = run_phase(service, lines, requests, clients);
  table.row()
      .add("warm")
      .add(requests)
      .add(unique)
      .add(warm.seconds, 3)
      .add(warm.requests_per_second, 0)
      .add(warm.mean_latency_us, 1)
      .add(warm.errors);

  // Coalesce: a fresh service, one identity, all clients at once.
  serve::Service single(config);
  const std::vector<std::string> one = {certify_line(unique + 1, width)};
  const PhaseResult coalesce = run_phase(single, one, clients * 8, clients);
  table.row()
      .add("coalesce")
      .add(clients * 8)
      .add(std::uint64_t{1})
      .add(coalesce.seconds, 3)
      .add(coalesce.requests_per_second, 0)
      .add(coalesce.mean_latency_us, 1)
      .add(coalesce.errors);

  table.print(std::cout, args.get_table_style());

  const double speedup = warm.requests_per_second > 0 && cold.seconds > 0
                             ? warm.requests_per_second /
                                   cold.requests_per_second
                             : 0.0;
  std::cout << "\ncache-hit speedup (warm req/s over cold): " << speedup
            << "x\n";
  if (cold.errors + warm.errors + coalesce.errors > 0) {
    std::cerr << "ext_serve_throughput: unexpected request failures\n";
    return 1;
  }
  return 0;
}
