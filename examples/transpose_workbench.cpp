// Transpose workbench: full algorithm x scheme sweep with timing.
//
// Runs all three transpose algorithms (CRSW, SRCW, DRDW) under all three
// mapping implementations (RAW, RAS, RAP) for a configurable width and
// latency, averaging the randomized schemes over many seeds, and prints a
// Table III-shaped report including the modeled GPU time.
//
//   $ transpose_workbench [--width=32] [--latency=1] [--seeds=100]

#include <cstdio>
#include <iostream>
#include <utility>

#include "core/factory.hpp"
#include "dmm/trace.hpp"
#include "gpu/sm_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const auto latency =
      static_cast<std::uint32_t>(args.get_uint("latency", 1));
  const std::uint64_t seeds = args.get_uint("seeds", 100);
  const auto params = gpu::SmTimingParams::titan_calibrated();

  std::printf("== transpose workbench: w = %u, l = %u, %llu seeds ==\n\n",
              width, latency, static_cast<unsigned long long>(seeds));

  util::TextTable table;
  table.row()
      .add("algorithm")
      .add("scheme")
      .add("read cong")
      .add("write cong")
      .add("DMM time")
      .add("model ns")
      .add("correct");

  for (const auto& [label, name] : {std::pair{"CRSW", "transpose-crsw"},
                                    std::pair{"SRCW", "transpose-srcw"},
                                    std::pair{"DRDW", "transpose-drdw"}}) {
    const workloads::Workload entry = workloads::workload_program(name, width);
    const vm::LoweredProgram program =
        vm::lower_program(vm::assemble(entry.text, width));
    for (const core::Scheme scheme : core::table2_schemes()) {
      double read = 0, write = 0, time = 0, ns = 0;
      bool all_correct = true;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const auto map = core::make_matrix_map(scheme, width, program.rows,
                                               seed);
        dmm::Dmm machine(dmm::DmmConfig{width, latency}, *map);
        dmm::Trace trace;
        const auto r = workloads::run_program(program, entry.reference,
                                              machine, seed, &trace);
        all_correct &= r.correct;
        read += dmm::phase_stats(trace, 0).avg_congestion;
        write += dmm::phase_stats(trace, 1).avg_congestion;
        time += static_cast<double>(r.stats.time);
        ns += gpu::estimate_time_ns(r.stats.total_stages, r.stats.dispatches,
                                    scheme, params);
      }
      const auto n = static_cast<double>(seeds);
      table.row()
          .add(label)
          .add(core::scheme_name(scheme))
          .add(read / n, 2)
          .add(write / n, 2)
          .add(time / n, 1)
          .add(ns / n, 1)
          .add(all_correct ? "yes" : "NO");
    }
  }
  table.print(std::cout, args.get_table_style());
  std::printf(
      "\nDMM time is in model time units; 'model ns' applies the calibrated\n"
      "GTX-TITAN-shaped SM timing model (see src/gpu/sm_model.hpp).\n");
  return 0;
}
