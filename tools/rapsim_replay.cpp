// rapsim-replay — capture, replay and sweep shared-memory access traces.
//
// Three subcommands:
//
//   capture   run a built-in workload with the capture hook installed and
//             write its portable access trace (text or binary):
//               $ rapsim-replay capture --workload=transpose-crsw
//                     [--width=32] [--latency=1] [--encoding=text|binary]
//                     [--out=PATH]
//             Traces record LOGICAL addresses, so a capture is
//             scheme-independent; --out defaults to stdout (text only).
//             --program=FILE.rvm assembles a VM program (vm/assembler.hpp)
//             at --width and captures its lowered kernel instead of a
//             catalog workload.
//
//   replay    execute a trace under a chosen scheme and print its stats:
//               $ rapsim-replay replay TRACE [--scheme=rap] [--seed=1]
//                     [--latency=1] [--certify] [--format=json]
//             --certify attaches the static analyzer's worst-warp
//             congestion certificate for the trace's address streams.
//             --map=SPEC (or --map-file=PATH) replays under a synthesized
//             permute-shift mapping from rapsim-lint --synthesize /
//             advise.synthesize instead of a named scheme — the way a
//             certified bound is confirmed on the full DMM.
//
//   campaign  fan a (trace x scheme) grid across worker shards, caching
//             finished cells under --results so a killed campaign
//             resumes where it stopped (see replay/campaign.hpp):
//               $ rapsim-replay campaign TRACE... [--schemes=raw,ras,rap,pad]
//                     [--trials=4] [--seed=1] [--latency=1]
//                     [--widths=16,32] [--results=results/replay]
//
// Workloads: `rapsim-replay --list-workloads` prints the workload
// catalog (tools/workload_kernels.hpp), every entry a `.rvm` program.
//
// Quickstart (uses the example traces shipped in examples/):
//   $ rapsim-replay replay examples/contiguous_stride.trace --scheme=raw
//   $ rapsim-replay campaign examples/contiguous_stride.trace
//         examples/same_bank_adversary.trace --schemes=raw,rap --trials=8

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/synth.hpp"
#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "replay/campaign.hpp"
#include "replay/replay.hpp"
#include "replay/trace.hpp"
#include "telemetry/json.hpp"
#include "util/cli.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "workload_kernels.hpp"

namespace {

using namespace rapsim;

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s capture [--workload=NAME | --program=FILE.rvm] "
               "[--width=W] [--latency=L] "
               "[--encoding=text|binary] [--out=PATH]\n"
               "       %s replay TRACE [--scheme=S | --map=SPEC | "
               "--map-file=PATH] [--seed=N] [--latency=L] "
               "[--certify] [--format=json]\n"
               "       %s campaign TRACE... [--schemes=LIST] [--trials=N] "
               "[--seed=N] [--latency=L] [--widths=LIST] [--results=DIR]\n"
               "       %s --list-workloads [--width=W]\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

std::vector<core::Scheme> parse_schemes_csv(const std::string& csv) {
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

int cmd_capture(const util::CliArgs& args) {
  const auto program_path = args.get("program");
  if (program_path && args.get("workload")) {
    throw std::invalid_argument("--workload and --program are exclusive");
  }
  const std::string workload = args.get_string("workload", "transpose-crsw");
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const auto latency =
      static_cast<std::uint32_t>(args.get_uint("latency", 1));
  const std::string encoding_name = args.get_string("encoding", "text");
  const std::string out = args.get_string("out", "");

  replay::TraceEncoding encoding;
  if (encoding_name == "text") {
    encoding = replay::TraceEncoding::kText;
  } else if (encoding_name == "binary") {
    encoding = replay::TraceEncoding::kBinary;
  } else {
    throw std::invalid_argument("unknown encoding '" + encoding_name +
                                "' (use text or binary)");
  }
  if (out.empty() && encoding == replay::TraceEncoding::kBinary) {
    throw std::invalid_argument("--encoding=binary requires --out=PATH");
  }

  tools::WorkloadKernel entry;
  if (program_path) {
    // Assemble + lower the user's `.rvm` program at the requested width.
    const vm::Program program =
        vm::assemble(read_text_file(*program_path), width);
    vm::LoweredProgram lowered = vm::lower_program(program);
    entry = {program.name, std::move(lowered.kernel), lowered.rows};
  } else {
    entry = tools::workload_kernel(workload, width);
  }
  // Capture records logical addresses; run under the identity (RAW) map.
  const auto map =
      core::make_matrix_map(core::Scheme::kRaw, width, entry.rows, 1);
  dmm::Dmm machine(dmm::DmmConfig{width, latency}, *map);
  dmm::RunStats stats;
  const replay::AccessTrace trace =
      replay::capture_run(machine, entry.kernel, &stats);

  if (out.empty()) {
    std::cout << replay::to_text(trace);
  } else {
    replay::save_trace(trace, out, encoding);
    std::fprintf(stderr,
                 "captured %s: %zu records, %llu threads, hash %016llx -> "
                 "%s\n",
                 entry.name.c_str(), trace.records.size(),
                 static_cast<unsigned long long>(trace.header.num_threads),
                 static_cast<unsigned long long>(replay::content_hash(trace)),
                 out.c_str());
  }
  return 0;
}

int cmd_replay(const util::CliArgs& args, const std::string& path) {
  const std::string scheme_name = args.get_string("scheme", "raw");
  const auto scheme = core::parse_scheme_name(scheme_name);
  if (!scheme) {
    throw std::invalid_argument("unknown scheme: " + scheme_name +
                                " (use raw, ras, rap, pad)");
  }
  const std::uint64_t seed = args.get_uint("seed", 1);
  const auto latency =
      static_cast<std::uint32_t>(args.get_uint("latency", 1));
  const bool certify = args.get_bool("certify", false);

  // --map=SPEC / --map-file=PATH: replay under a synthesized permute-shift
  // mapping (analyze/synth.hpp spec format) instead of a named scheme.
  std::optional<analyze::SynthMapping> synth_mapping;
  {
    const auto spec = args.get("map");
    const auto spec_file = args.get("map-file");
    if (spec && spec_file) {
      throw std::invalid_argument("--map and --map-file are exclusive");
    }
    if (spec || spec_file) {
      if (args.get("scheme")) {
        throw std::invalid_argument("--map and --scheme are exclusive");
      }
      if (certify) {
        throw std::invalid_argument(
            "--certify is not supported with --map (the spec carries its "
            "own certificate from synthesis)");
      }
      std::string text = spec ? *spec : read_text_file(*spec_file);
      // A spec file may end with a trailing newline; strip it.
      while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
        text.pop_back();
      }
      synth_mapping = analyze::SynthMapping::parse_spec(text);
    }
  }

  const replay::AccessTrace trace = replay::load_trace(path);
  trace.validate();
  const std::uint32_t width = trace.header.width;
  const std::uint64_t rows = (trace.header.memory_size + width - 1) / width;
  if (synth_mapping && synth_mapping->width != width) {
    throw std::invalid_argument(
        "map width " + std::to_string(synth_mapping->width) +
        " != trace width " + std::to_string(width));
  }
  const std::unique_ptr<core::AddressMap> map =
      synth_mapping
          ? analyze::make_synth_map(*synth_mapping, trace.header.memory_size)
          : core::make_matrix_map(*scheme, width, rows, seed);
  replay::ReplayOptions options;
  options.latency = latency;
  const replay::ReplayResult result =
      replay::replay_trace(trace, *map, options);

  std::optional<analyze::CongestionCertificate> certificate;
  if (certify) certificate = replay::certify_trace(trace, *scheme);

  const char* effective_scheme = synth_mapping
                                     ? core::scheme_name(core::Scheme::kSynth)
                                     : core::scheme_name(*scheme);
  if (args.wants_json()) {
    telemetry::JsonWriter json;
    json.begin_object();
    json.kv("schema_version", 1);
    json.kv("trace", std::string_view(path));
    json.kv("scheme", effective_scheme);
    if (synth_mapping) json.kv("map", synth_mapping->spec());
    json.kv("width", static_cast<std::uint64_t>(width));
    json.kv("latency", static_cast<std::uint64_t>(latency));
    json.kv("seed", seed);
    json.kv("time", result.stats.time);
    json.kv("pipeline_slots", result.stats.total_stages);
    json.kv("dispatches", result.stats.dispatches);
    json.kv("max_congestion",
            static_cast<std::uint64_t>(result.stats.max_congestion));
    json.kv("avg_congestion", result.stats.avg_congestion);
    if (certificate) {
      json.key("certificate").raw_value(certificate->to_json());
    }
    json.end_object();
    std::cout << json.str() << '\n';
    return 0;
  }

  std::printf("trace      %s (hash %016llx)\n", path.c_str(),
              static_cast<unsigned long long>(replay::content_hash(trace)));
  std::printf("scheme     %s   width %u   latency %u   seed %llu\n",
              effective_scheme, width, latency,
              static_cast<unsigned long long>(seed));
  if (synth_mapping) {
    std::printf("map        %s\n", synth_mapping->spec().c_str());
  }
  std::printf("time       %llu\n",
              static_cast<unsigned long long>(result.stats.time));
  std::printf("slots      %llu\n",
              static_cast<unsigned long long>(result.stats.total_stages));
  std::printf("dispatches %llu\n",
              static_cast<unsigned long long>(result.stats.dispatches));
  std::printf("congestion max %u   avg %.3f\n", result.stats.max_congestion,
              result.stats.avg_congestion);
  if (certificate) {
    std::printf("certified  %s %.3f by %s (%s)\n",
                certificate->exact() ? "congestion ==" : "E[congestion] <=",
                certificate->bound, certificate->rule.c_str(),
                certificate->claim.c_str());
  }
  return 0;
}

int cmd_list_workloads(const util::CliArgs& args) {
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  for (const tools::WorkloadKernel& entry : tools::workload_kernels(width)) {
    std::printf("%-22s %llu threads, %llu x %u words\n", entry.name.c_str(),
                static_cast<unsigned long long>(entry.kernel.num_threads),
                static_cast<unsigned long long>(entry.rows), width);
  }
  return 0;
}

int cmd_campaign(const util::CliArgs& args,
                 std::vector<std::string> trace_paths) {
  replay::CampaignConfig config;
  config.trace_paths = std::move(trace_paths);
  config.schemes = parse_schemes_csv(args.get_string("schemes", "raw,ras,rap,pad"));
  config.latency = static_cast<std::uint32_t>(args.get_uint("latency", 1));
  config.trials = static_cast<std::uint32_t>(args.get_uint("trials", 4));
  config.seed = args.get_uint("seed", 1);
  for (const std::uint64_t w : args.get_uint_list("widths", {})) {
    config.widths.push_back(static_cast<std::uint32_t>(w));
  }
  config.results_dir = args.get_string("results", "results/replay");

  const replay::CampaignReport report = replay::run_campaign(config);
  std::printf("campaign: %zu cells (%zu cached, %zu computed)\n",
              report.cells.size(), report.cells_cached,
              report.cells_computed);
  std::printf("congestion: mean %.3f  p99 %llu  max %llu over %zu dispatches\n",
              report.merged_congestion.mean(),
              static_cast<unsigned long long>(
                  report.merged_congestion.percentile(99.0)),
              static_cast<unsigned long long>(
                  report.merged_congestion.count()
                      ? report.merged_congestion.max()
                      : 0),
              report.merged_congestion.count());
  std::printf("manifest: %s\n", report.manifest_path.c_str());
  std::printf("summary:  %s\n", report.summary_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv, {"certify", "list-workloads"});
  const std::vector<std::string>& positional = args.positional();
  try {
    args.reject_unknown({"workload", "program", "width", "latency",
                         "encoding", "out", "scheme", "map", "map-file",
                         "seed", "format", "schemes", "trials", "widths",
                         "results"});
    if (args.get_bool("list-workloads", false)) {
      if (!positional.empty()) return usage(argv[0]);
      return cmd_list_workloads(args);
    }
    if (positional.empty()) return usage(argv[0]);
    const std::string& command = positional[0];
    if (command == "capture") {
      if (positional.size() != 1) return usage(argv[0]);
      return cmd_capture(args);
    }
    if (command == "replay") {
      if (positional.size() != 2) return usage(argv[0]);
      return cmd_replay(args, positional[1]);
    }
    if (command == "campaign") {
      if (positional.size() < 2) return usage(argv[0]);
      return cmd_campaign(
          args, {positional.begin() + 1, positional.end()});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rapsim-replay: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
