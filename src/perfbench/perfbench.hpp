// perfbench: the BENCH_*.json document behind the serve engine's
// cold/warm/coalesce throughput series (bench/ext_serve_throughput).
//
// Simulator and synthesizer performance is measured end to end and per
// layer by rapbench (BENCHMARK.json); this harness keeps the one series
// rapbench cannot produce, a multi-client serve run:
//
//   * outlier-robust aggregation over util::Tally / util::OnlineStats:
//     per-operation latency samples plus one wall-clock window, so
//     ops_per_sec is true throughput and ns_per_op / p50 / p95 / p99 are
//     per-operation latency;
//   * machine metadata (hostname, OS, compiler, hardware threads) so a
//     cross-machine diff is recognizable as one;
//   * a schema-stable emitter (BenchReport::to_json / write_bench_json)
//     producing the documents tools/bench_compare diffs and
//     tools/check_bench_schema.sh validates.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace rapsim::perfbench {

/// Outlier-robust aggregate of per-operation latency samples.
struct Aggregate {
  std::uint64_t samples = 0;
  std::uint64_t items = 0;          // operations represented per sample
  std::uint64_t total_ns = 0;       // the wall window
  double ops_per_sec = 0.0;
  double ns_per_op = 0.0;           // the trajectory number
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns = 0.0;
  double stddev_ns = 0.0;
};

/// Aggregate per-operation latency samples observed inside one wall
/// window of `wall_ns`: ops_per_sec = samples / wall, ns_per_op = median
/// latency. Returns a zeroed Aggregate for an empty tally.
[[nodiscard]] Aggregate aggregate_latencies(const util::Tally& latency_ns,
                                            std::uint64_t wall_ns);

/// Host identity captured into every BENCH document, so a diff across
/// machines is visibly not a trajectory point.
struct MachineInfo {
  std::string hostname;
  std::string os;        // uname sysname + release
  std::string compiler;  // __VERSION__ of the compiler that built this
  std::uint32_t hardware_threads = 0;
};

[[nodiscard]] MachineInfo capture_machine();

/// One BENCH_<name>.json document under construction. Config entries
/// and metrics serialize in insertion order; the field set per metric is
/// the stable schema tools/check_bench_schema.sh pins.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name)
      : bench_(std::move(bench_name)), machine_(capture_machine()) {}

  void set_config(const std::string& key, std::uint64_t value);
  void set_config(const std::string& key, const std::string& value);
  void add(const std::string& metric_name, const Aggregate& aggregate);

  /// The full document: schema_version, bench, unix_time, machine,
  /// config, metrics[].
  [[nodiscard]] std::string to_json() const;

 private:
  std::string bench_;
  MachineInfo machine_;
  std::vector<std::pair<std::string, std::string>> config_;  // pre-serialized
  std::vector<std::pair<std::string, Aggregate>> metrics_;
};

/// Atomic write (tmp + rename, parent dirs created) of report.to_json()
/// + '\n' to `path`. Throws std::runtime_error on IO failure.
void write_bench_json(const std::string& path, const BenchReport& report);

}  // namespace rapsim::perfbench
