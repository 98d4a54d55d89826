// rapsim-hier: the multi-SM memory-hierarchy simulator driver.
//
// Runs one catalog workload (or an assembled `.rvm` VM program) on N
// streaming multiprocessors, each with its own banked shared memory
// under the chosen address scheme, a pluggable warp scheduler, and an
// L1/L2/DRAM global-memory path with shared L2/DRAM ports (src/hier/).
//
// Quickstarts:
//
//   rapsim-hier --workload=bitonic --width=32 --sms=4 --scheduler=gto
//   rapsim-hier --workload=transpose-crsw --scheme=rap --seed=7
//       --sms=2 --format=json
//   rapsim-hier --program=examples/shearsort.rvm --width=16 --path=off
//   rapsim-hier --list-workloads
//   rapsim-hier --list-schedulers
//
// --path=off disables the global-memory path entirely (the differential
// configuration: with --sms=1 --scheduler=roundrobin the run reproduces
// the plain Dmm bit for bit). With the path on, the cache geometry is
// PathParams::defaults() unless overridden by --line-words, --l1-lines,
// --l1-latency, --l2-lines, --l2-latency, --l2-service, --dram-latency,
// --dram-service and --mshrs.
//
// --format=json emits one machine-readable document on stdout
// (schema_version 1, validated by tools/check_hier_schema.sh); the
// default is a short human-readable summary.

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "hier/hier.hpp"
#include "core/factory.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "util/cli.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "workload_kernels.hpp"

namespace {

using namespace rapsim;

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

hier::PathParams path_from_args(const util::CliArgs& args) {
  const std::string mode = args.get_string("path", "on");
  if (mode == "off") return hier::PathParams::zero();
  if (mode != "on") {
    throw std::invalid_argument("--path must be on or off, got " + mode);
  }
  hier::PathParams p = hier::PathParams::defaults();
  p.line_words =
      static_cast<std::uint32_t>(args.get_uint("line-words", p.line_words));
  if (p.line_words == 0) {
    throw std::invalid_argument("--line-words must be > 0 (use --path=off)");
  }
  p.l1.lines = args.get_uint("l1-lines", p.l1.lines);
  p.l1.latency =
      static_cast<std::uint32_t>(args.get_uint("l1-latency", p.l1.latency));
  p.l2.lines = args.get_uint("l2-lines", p.l2.lines);
  p.l2.latency =
      static_cast<std::uint32_t>(args.get_uint("l2-latency", p.l2.latency));
  p.l2_service =
      static_cast<std::uint32_t>(args.get_uint("l2-service", p.l2_service));
  p.dram_latency = static_cast<std::uint32_t>(
      args.get_uint("dram-latency", p.dram_latency));
  p.dram_service = static_cast<std::uint32_t>(
      args.get_uint("dram-service", p.dram_service));
  p.mshrs = static_cast<std::uint32_t>(args.get_uint("mshrs", p.mshrs));
  return p;
}

void write_json(const std::string& workload, core::Scheme scheme,
                std::uint64_t seed, const hier::HierConfig& config,
                const hier::HierResult& result,
                const telemetry::MetricsRegistry& registry) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("schema_version", std::uint64_t{1});
  w.key("config");
  w.begin_object();
  w.kv("workload", workload);
  w.kv("width", std::uint64_t{config.width});
  w.kv("sms", std::uint64_t{config.sms});
  w.kv("scheduler", config.scheduler);
  w.kv("scheme", core::scheme_name(scheme));
  w.kv("seed", seed);
  w.kv("latency", std::uint64_t{config.shared_latency});
  w.key("path");
  w.begin_object();
  w.kv("enabled", config.path.enabled());
  w.kv("line_words", std::uint64_t{config.path.line_words});
  w.kv("l1_lines", config.path.l1.lines);
  w.kv("l1_latency", std::uint64_t{config.path.l1.latency});
  w.kv("l2_lines", config.path.l2.lines);
  w.kv("l2_latency", std::uint64_t{config.path.l2.latency});
  w.kv("l2_service", std::uint64_t{config.path.l2_service});
  w.kv("dram_latency", std::uint64_t{config.path.dram_latency});
  w.kv("dram_service", std::uint64_t{config.path.dram_service});
  w.kv("mshrs", std::uint64_t{config.path.mshrs});
  w.end_object();
  w.end_object();
  w.key("total");
  w.begin_object();
  w.kv("cycles", result.cycles);
  w.kv("dispatches", result.dispatches);
  w.kv("total_stages", result.total_stages);
  w.kv("max_congestion", std::uint64_t{result.max_congestion});
  w.kv("avg_congestion", result.avg_congestion);
  w.kv("l2_hits", result.l2_hits);
  w.kv("l2_misses", result.l2_misses);
  w.kv("l2_queue_cycles", result.l2_queue_cycles);
  w.kv("est_ns", result.est_ns);
  w.end_object();
  w.key("sms");
  w.begin_array();
  for (const hier::SmStats& sm : result.sms) {
    w.begin_object();
    w.kv("sm", std::uint64_t{sm.sm});
    w.kv("cycles", sm.run.time);
    w.kv("dispatches", sm.run.dispatches);
    w.kv("total_stages", sm.run.total_stages);
    w.kv("max_congestion", std::uint64_t{sm.run.max_congestion});
    w.kv("avg_congestion", sm.run.avg_congestion);
    w.kv("l1_hits", sm.l1_hits);
    w.kv("l1_misses", sm.l1_misses);
    w.kv("l2_hits", sm.l2_hits);
    w.kv("dram_fills", sm.dram_fills);
    w.kv("mshr_stall_cycles", sm.mshr_stall_cycles);
    w.kv("mem_wait_cycles", sm.mem_wait_cycles);
    w.kv("idle_slots", sm.idle_slots);
    w.kv("warp_stall_slots", sm.warp_stall_slots);
    w.kv("est_ns", sm.est_ns);
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  w.raw_value(registry.to_json());
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

void write_ascii(const std::string& workload, core::Scheme scheme,
                 const hier::HierConfig& config,
                 const hier::HierResult& result) {
  std::printf("workload %s  scheme %s  width %u  sms %u  scheduler %s\n",
              workload.c_str(), core::scheme_name(scheme), config.width,
              config.sms, config.scheduler.c_str());
  std::printf(
      "total: cycles %llu  dispatches %llu  stages %llu  max-cong %u  "
      "avg-cong %.3f  est %.1f ns\n",
      static_cast<unsigned long long>(result.cycles),
      static_cast<unsigned long long>(result.dispatches),
      static_cast<unsigned long long>(result.total_stages),
      result.max_congestion, result.avg_congestion, result.est_ns);
  if (config.path.enabled()) {
    std::printf("shared: l2-hits %llu  l2-misses %llu  queue %llu cycles\n",
                static_cast<unsigned long long>(result.l2_hits),
                static_cast<unsigned long long>(result.l2_misses),
                static_cast<unsigned long long>(result.l2_queue_cycles));
  }
  for (const hier::SmStats& sm : result.sms) {
    std::printf(
        "  sm %u: cycles %llu  dispatches %llu  l1 %llu/%llu  "
        "mem-wait %llu  idle %llu  stall %llu\n",
        sm.sm, static_cast<unsigned long long>(sm.run.time),
        static_cast<unsigned long long>(sm.run.dispatches),
        static_cast<unsigned long long>(sm.l1_hits),
        static_cast<unsigned long long>(sm.l1_hits + sm.l1_misses),
        static_cast<unsigned long long>(sm.mem_wait_cycles),
        static_cast<unsigned long long>(sm.idle_slots),
        static_cast<unsigned long long>(sm.warp_stall_slots));
  }
}

int run(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::uint32_t width =
      static_cast<std::uint32_t>(args.get_uint("width", 32));

  if (args.get_bool("list-schedulers", false)) {
    for (const std::string& name : hier::scheduler_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (args.get_bool("list-workloads", false)) {
    for (const auto& entry : tools::workload_kernels(width)) {
      std::printf("%-24s %8u threads  %4zu instructions  (%s)\n",
                  entry.name.c_str(), entry.kernel.num_threads,
                  entry.kernel.instructions.size(), entry.origin.c_str());
    }
    return 0;
  }

  tools::WorkloadKernel entry;
  if (const auto program_path = args.get("program")) {
    if (args.get("workload")) {
      throw std::invalid_argument("--workload and --program are exclusive");
    }
    const vm::Program program =
        vm::assemble(read_text_file(*program_path), width);
    vm::LoweredProgram lowered = vm::lower_program(program);
    entry = {program.name, std::move(lowered.kernel), lowered.rows,
             "program"};
  } else {
    entry = tools::workload_kernel(args.get_string("workload", "bitonic"),
                                   width);
  }

  const std::string scheme_arg = args.get_string("scheme", "rap");
  const auto scheme = core::parse_scheme_name(scheme_arg);
  if (!scheme) {
    throw std::invalid_argument("unknown scheme: " + scheme_arg +
                                " (raw, ras, rap)");
  }
  const std::uint64_t seed = args.get_uint("seed", 1);

  hier::HierConfig config;
  config.sms = static_cast<std::uint32_t>(args.get_uint("sms", 1));
  config.width = width;
  config.shared_latency =
      static_cast<std::uint32_t>(args.get_uint("latency", 1));
  config.scheduler = args.get_string("scheduler", "roundrobin");
  config.path = path_from_args(args);

  const auto map = core::make_matrix_map(*scheme, width, entry.rows, seed);
  hier::HierSim sim(config, *map);
  const hier::HierResult result = sim.run(entry.kernel, *scheme);

  telemetry::MetricsRegistry registry;
  hier::flush_metrics(result, registry,
                      {{"workload", entry.name},
                       {"scheme", core::scheme_name(*scheme)},
                       {"scheduler", config.scheduler}});

  if (args.wants_json()) {
    write_json(entry.name, *scheme, seed, config, result, registry);
  } else {
    write_ascii(entry.name, *scheme, config, result);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rapsim-hier: %s\n", e.what());
    return 1;
  }
}
