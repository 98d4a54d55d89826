// rapsim_profile — run any workload x scheme and print its telemetry.
//
// The one-stop observability tool: stands up a DMM with a telemetry sink,
// executes the requested catalog workload under each requested scheme,
// checks its output against the workload's reference, and prints
//
//   * a per-bank request heatmap (one row per scheme) — shows *which*
//     banks serialize under RAW vs RAS vs RAP;
//   * the per-phase timeline (per-instruction dispatch windows and
//     congestion);
//   * a summary table: completion time, dispatches, pipeline slots,
//     congestion mean / p50 / p95 / p99 / max, warp stall and pipeline
//     idle slots.
//
//   $ rapsim_profile [--workload=transpose-crsw] [--schemes=raw,ras,rap]
//                    [--width=32] [--latency=5] [--seed=1]
//                    [--format=ascii|json] [--chrome-trace=PATH]
//
// Workloads: every name of the workload catalog (workloads/catalog.hpp;
// `rapsim-replay --list-workloads` prints them), at its catalog size:
// reduction and bitonic over n = 8w elements. The program is lowered
// once and run under every scheme.
// --chrome-trace writes the LAST scheme's dispatch timeline in Trace
// Event Format for ui.perfetto.dev. --format=json emits a single
// document with the summary, the bank profile, and the full
// MetricsRegistry dump. Any other flag, or any positional argument, is a
// usage error.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "dmm/trace.hpp"
#include "telemetry/bank_profile.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_telemetry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

namespace {

using namespace rapsim;

std::vector<core::Scheme> parse_schemes(const std::string& csv) {
  std::vector<core::Scheme> schemes;
  std::string item;
  for (std::size_t i = 0; i <= csv.size(); ++i) {
    if (i == csv.size() || csv[i] == ',') {
      if (!item.empty()) {
        const auto scheme = core::parse_scheme_name(item);
        if (!scheme) {
          throw std::invalid_argument("unknown scheme: " + item +
                                      " (use raw, ras, rap, pad)");
        }
        schemes.push_back(*scheme);
        item.clear();
      }
    } else {
      item += csv[i];
    }
  }
  if (schemes.empty()) {
    throw std::invalid_argument("no schemes given (use raw, ras, rap, pad)");
  }
  return schemes;
}

struct SchemeResult {
  core::Scheme scheme;
  bool correct = false;
  dmm::RunStats stats;
  telemetry::RunTelemetry telemetry;
  dmm::Trace trace;
};

SchemeResult run_workload(const vm::LoweredProgram& program,
                          const workloads::Reference& reference,
                          core::Scheme scheme, std::uint32_t latency,
                          std::uint64_t seed) {
  SchemeResult result;
  result.scheme = scheme;
  const auto map =
      core::make_matrix_map(scheme, program.width, program.rows, seed);
  dmm::Dmm machine(dmm::DmmConfig{program.width, latency}, *map);
  machine.set_telemetry(&result.telemetry);
  const auto report =
      workloads::run_program(program, reference, machine, seed, &result.trace);
  result.correct = report.correct;
  result.stats = report.stats;
  return result;
}

void emit_json(const std::string& workload, std::uint32_t width,
               std::uint32_t latency, std::uint64_t seed,
               const std::vector<SchemeResult>& results) {
  telemetry::MetricsRegistry registry;
  telemetry::JsonWriter json;
  json.begin_object();
  json.kv("schema_version", 1);
  json.kv("experiment", "rapsim_profile");
  json.key("config").begin_object();
  json.kv("workload", std::string_view(workload));
  json.kv("width", static_cast<std::uint64_t>(width));
  json.kv("latency", static_cast<std::uint64_t>(latency));
  json.kv("seed", seed);
  json.end_object();

  json.key("results").begin_array();
  for (const auto& r : results) {
    const auto& t = r.telemetry;
    json.begin_object();
    json.kv("scheme", core::scheme_name(r.scheme));
    json.kv("correct", r.correct);
    json.kv("time", r.stats.time);
    json.kv("dispatches", r.stats.dispatches);
    json.kv("pipeline_slots", r.stats.total_stages);
    json.key("congestion").begin_object();
    json.kv("mean", r.stats.avg_congestion);
    json.kv("max", static_cast<std::uint64_t>(r.stats.max_congestion));
    json.kv("p50", t.congestion.percentile(50.0));
    json.kv("p95", t.congestion.percentile(95.0));
    json.kv("p99", t.congestion.percentile(99.0));
    json.end_object();
    json.kv("warp_stall_slots", t.warp_stall_slots);
    json.kv("pipeline_idle_slots", t.pipeline_idle_slots);
    json.key("bank_requests").begin_array();
    for (const std::uint64_t c : t.bank_requests) json.value(c);
    json.end_array();
    json.key("bank_peak").begin_array();
    for (const std::uint64_t c : t.bank_peak) json.value(c);
    json.end_array();
    json.end_object();

    t.flush_into(registry, {{"workload", workload},
                            {"scheme", core::scheme_name(r.scheme)},
                            {"width", std::to_string(width)},
                            {"seed", std::to_string(seed)}});
  }
  json.end_array();

  json.key("metrics").raw_value(registry.to_json());
  json.end_object();
  std::printf("%s\n", json.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::string workload =
      args.get_string("workload", "transpose-crsw");
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const auto latency =
      static_cast<std::uint32_t>(args.get_uint("latency", 5));
  const std::uint64_t seed = args.get_uint("seed", 1);

  std::vector<SchemeResult> results;
  try {
    args.reject_unknown({"workload", "schemes", "width", "latency", "seed",
                         "format", "chrome-trace"});
    args.reject_positional();
    const auto schemes =
        parse_schemes(args.get_string("schemes", "raw,ras,rap"));
    const workloads::Workload entry =
        workloads::workload_program(workload, width);
    const vm::LoweredProgram program =
        vm::lower_program(vm::assemble(entry.text, width));
    for (const core::Scheme scheme : schemes) {
      results.push_back(
          run_workload(program, entry.reference, scheme, latency, seed));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rapsim_profile: %s\n", e.what());
    return 1;
  }

  if (const auto path = args.get("chrome-trace"); path && !results.empty()) {
    std::ofstream out(*path);
    if (!out) {
      std::fprintf(stderr, "rapsim_profile: cannot write %s\n", path->c_str());
      return 1;
    }
    out << dmm::to_chrome_trace(results.back().trace) << '\n';
  }

  if (args.wants_json()) {
    emit_json(workload, width, latency, seed, results);
    return 0;
  }

  std::printf("== rapsim_profile: %s, w = %u, l = %u, seed = %llu ==\n\n",
              workload.c_str(), width, latency,
              static_cast<unsigned long long>(seed));

  // Totals are uniform for bijective workloads; the peak map is the one
  // that shows which banks serialize (a single dispatch's worst queue).
  telemetry::BankProfile totals(width);
  telemetry::BankProfile peaks(width);
  for (const auto& r : results) {
    totals.add_row(core::scheme_name(r.scheme), r.telemetry.bank_requests);
    peaks.add_row(core::scheme_name(r.scheme), r.telemetry.bank_peak);
  }
  std::printf("-- per-bank unique requests (total) --\n%s\n",
              totals.render_heatmap().c_str());
  std::printf("-- per-bank serialization (peak requests per dispatch) --\n%s\n",
              peaks.render_heatmap().c_str());

  util::TextTable table;
  table.row()
      .add("scheme")
      .add("ok")
      .add("time")
      .add("dispatches")
      .add("slots")
      .add("cong avg")
      .add("p50")
      .add("p95")
      .add("p99")
      .add("max")
      .add("stall")
      .add("idle");
  for (const auto& r : results) {
    const auto& t = r.telemetry;
    table.row()
        .add(core::scheme_name(r.scheme))
        .add(r.correct ? "yes" : "NO")
        .add(r.stats.time)
        .add(r.stats.dispatches)
        .add(r.stats.total_stages)
        .add(r.stats.avg_congestion, 2)
        .add(t.congestion.percentile(50.0))
        .add(t.congestion.percentile(95.0))
        .add(t.congestion.percentile(99.0))
        .add(static_cast<std::uint64_t>(r.stats.max_congestion))
        .add(t.warp_stall_slots)
        .add(t.pipeline_idle_slots);
  }
  table.print(std::cout, args.get_table_style());

  std::printf("\n-- phase timeline (%s) --\n%s",
              core::scheme_name(results.back().scheme),
              dmm::render_phase_timeline(results.back().trace).c_str());

  bool all_correct = true;
  for (const auto& r : results) all_correct = all_correct && r.correct;
  return all_correct ? 0 : 1;
}
