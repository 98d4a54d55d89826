// Reproduction of Table II: the congestion of memory access to a w x w
// matrix, for w in {16, 32, 64, 128, 256}, access patterns Contiguous /
// Stride / Diagonal / Random, under the RAW, RAS and RAP implementations.
//
// Paper values for reference (each cell is an expectation):
//
//            RAW: 16   32   64   128  256 | RAS: ...            | RAP: ...
// Contiguous      1    1    1    1    1   | all 1                | all 1
// Stride          16   32   64   128  256 | 3.08 3.53 3.96 4.38 4.77 | all 1
// Diagonal        1    1    1    1    1   | 3.08 3.53 3.96 4.38 4.77 | 3.20 3.61 4.00 4.41 4.78
// Random          2.92 3.44 3.90 4.34 4.75 (same for all three schemes)
//
//   $ table2_congestion_sim [--widths=16,32,64,128,256] [--trials=20000]
//
// With --format=json the binary instead emits one machine-readable
// document (schema below) carrying, per (scheme, pattern, width) cell,
// the mean/ci95, the exact congestion percentiles p50/p95/p99, and the
// per-bank unique-request totals — the stable schema tools/run_all.sh
// archives under results/metrics/ and the metrics_schema ctest checks. The sweep's speed is rapbench's table2-sweep workload.

#include <cstdio>
#include <iostream>

#include "access/montecarlo.hpp"
#include "core/factory.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

/// results[] cell schema: scheme, pattern, width, congestion{mean, ci95,
/// min, max, p50, p95, p99}, bank_requests[width].
int emit_json(const std::vector<std::uint64_t>& widths, std::uint64_t trials,
              std::uint64_t seed) {
  using namespace rapsim;
  telemetry::JsonWriter json;
  json.begin_object();
  json.kv("schema_version", 1);
  json.kv("experiment", "table2_congestion_sim");
  json.key("units").begin_object();
  json.kv("congestion", "pipeline slots per warp access");
  json.kv("bank_requests", "unique requests summed over trials");
  json.end_object();
  json.key("config").begin_object();
  json.key("widths").begin_array();
  for (const auto w : widths) json.value(w);
  json.end_array();
  json.kv("trials", trials);
  json.kv("seed", seed);
  json.end_object();

  json.key("results").begin_array();
  for (const core::Scheme scheme : core::table2_schemes()) {
    for (const access::Pattern2d pattern : access::table2_patterns()) {
      for (const auto w : widths) {
        const auto profile = access::profile_congestion_2d(
            scheme, pattern, static_cast<std::uint32_t>(w), trials, seed);
        json.begin_object();
        json.kv("scheme", core::scheme_name(scheme));
        json.kv("pattern", access::pattern2d_name(pattern));
        json.kv("width", w);
        json.key("congestion").begin_object();
        json.kv("mean", profile.estimate.mean);
        json.kv("ci95", profile.estimate.ci95);
        json.kv("min", static_cast<std::uint64_t>(profile.estimate.min));
        json.kv("max", static_cast<std::uint64_t>(profile.estimate.max));
        json.kv("p50", profile.distribution.percentile(50.0));
        json.kv("p95", profile.distribution.percentile(95.0));
        json.kv("p99", profile.distribution.percentile(99.0));
        json.end_object();
        json.key("bank_requests").begin_array();
        for (const std::uint64_t c : profile.bank_requests) json.value(c);
        json.end_array();
        json.end_object();
      }
    }
  }
  json.end_array();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv);
  const auto widths =
      args.get_uint_list("widths", {16, 32, 64, 128, 256});
  const std::uint64_t trials = args.get_uint("trials", 20000);
  const std::uint64_t seed = args.get_uint("seed", 20140811);

  if (args.wants_json()) return emit_json(widths, trials, seed);

  std::printf(
      "== Table II: congestion of memory access to a w x w matrix "
      "(%llu trials/cell) ==\n\n",
      static_cast<unsigned long long>(trials));

  for (const core::Scheme scheme : core::table2_schemes()) {
    std::printf("-- %s implementation --\n", core::scheme_name(scheme));
    util::TextTable table;
    table.row().add("w");
    for (const auto w : widths) table.add(w);
    for (const access::Pattern2d pattern : access::table2_patterns()) {
      table.row().add(access::pattern2d_name(pattern));
      for (const auto w : widths) {
        const auto est = access::estimate_congestion_2d(
            scheme, pattern, static_cast<std::uint32_t>(w), trials, seed);
        // Integer cells print as integers, like the paper's table.
        if (est.min == est.max) {
          table.add(static_cast<std::uint64_t>(est.max));
        } else {
          table.add(est.mean, 2);
        }
      }
    }
    table.print(std::cout, args.get_table_style());
    std::printf("\n");
  }

  std::printf(
      "Expected shape: RAP has 1s on Contiguous AND Stride (RAS only on\n"
      "Contiguous; RAW is w on Stride); RAP's Diagonal is slightly above\n"
      "RAS's (collision probability 1/(w-1) vs 1/w); Random is identical\n"
      "across schemes.\n");
  return 0;
}
