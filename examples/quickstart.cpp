// Quickstart: the RAP technique in five minutes.
//
// Builds a 32 x 32 matrix under the conventional (RAW) layout and under
// RAP, sends the classic worst-case access — a column (stride) read — at
// both, and prints the congestion and simulated DMM time. Then runs the
// naive CRSW transpose both ways to show the ~10x speedup the paper
// reports, with zero algorithmic cleverness required from the developer.
//
//   $ quickstart [--width=32] [--latency=1] [--seed=1]

#include <cstdio>

#include "access/pattern2d.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "dmm/trace.hpp"
#include "util/cli.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const auto latency =
      static_cast<std::uint32_t>(args.get_uint("latency", 1));
  const std::uint64_t seed = args.get_uint("seed", 1);

  std::printf("== rapsim quickstart (w = %u, l = %u) ==\n\n", width, latency);

  // 1. One warp reads a column of a w x w matrix.
  util::Pcg32 rng(seed);
  for (const core::Scheme scheme : core::table2_schemes()) {
    const auto map = core::make_matrix_map(scheme, width, width, seed);
    const auto column =
        access::warp_addresses_2d(access::Pattern2d::kStride, *map, 0, rng);
    const auto result = core::congestion_of_logical(column, *map);
    std::printf("stride (column) read under %-3s: congestion %2u  "
                "(requests serialize into %u pipeline slots)\n",
                map->name().c_str(), result.congestion, result.congestion);
  }

  // 2. The naive CRSW transpose, as a developer would write it.
  std::printf("\nnaive CRSW transpose of a %ux%u matrix on the DMM:\n", width,
              width);
  const workloads::Workload crsw =
      workloads::workload_program("transpose-crsw", width);
  const vm::LoweredProgram program =
      vm::lower_program(vm::assemble(crsw.text, width));
  for (const core::Scheme scheme : core::table2_schemes()) {
    const auto map = core::make_matrix_map(scheme, width, program.rows, seed);
    dmm::Dmm machine(dmm::DmmConfig{width, latency}, *map);
    dmm::Trace trace;
    const auto report =
        workloads::run_program(program, crsw.reference, machine, seed, &trace);
    std::printf(
        "  %-3s: time %5llu units  read congestion %5.2f  write congestion "
        "%5.2f  %s\n",
        core::scheme_name(scheme),
        static_cast<unsigned long long>(report.stats.time),
        dmm::phase_stats(trace, 0).avg_congestion,
        dmm::phase_stats(trace, 1).avg_congestion,
        report.correct ? "correct" : "WRONG RESULT");
  }

  std::printf(
      "\nRAP makes the naive transpose conflict-free without touching the\n"
      "algorithm: the mapping, not the code, absorbs the bank conflicts.\n");
  return 0;
}
