// Validation of Lemma 1: DMM computing time of the three transpose
// algorithms across a (width, latency) sweep. The paper gives CRSW/SRCW =
// O(w^2 + l) and DRDW = O(w + l) using w^2 threads; this bench prints the
// simulated times next to the slot-count lower bounds so the asymptotics
// are visible.
//
//   $ lemma1_dmm_time [--widths=4,8,16,32] [--latencies=1,4,16,64]

#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv);
  const auto widths = args.get_uint_list("widths", {4, 8, 16, 32});
  const auto latencies = args.get_uint_list("latencies", {1, 4, 16, 64});

  std::printf("== Lemma 1: DMM transpose times (RAW implementation) ==\n");
  std::printf("paper: CRSW, SRCW = O(w^2 + l); DRDW = O(w + l)\n\n");

  util::TextTable table;
  table.row()
      .add("w")
      .add("l")
      .add("CRSW time")
      .add("SRCW time")
      .add("DRDW time")
      .add("w^2+l-1")
      .add("2w+l");

  for (const auto w : widths) {
    const auto width = static_cast<std::uint32_t>(w);
    // One program per algorithm at this width, run at every latency.
    std::vector<std::pair<vm::LoweredProgram, workloads::Reference>> programs;
    for (const char* name :
         {"transpose-crsw", "transpose-srcw", "transpose-drdw"}) {
      const workloads::Workload entry =
          workloads::workload_program(name, width);
      programs.emplace_back(vm::lower_program(vm::assemble(entry.text, width)),
                            entry.reference);
    }
    for (const auto l : latencies) {
      const auto time = [&](std::size_t algorithm) {
        const auto& [program, reference] = programs[algorithm];
        return workloads::run_program(program, reference, core::Scheme::kRaw,
                                      static_cast<std::uint32_t>(l), 1)
            .stats.time;
      };
      table.row()
          .add(w)
          .add(l)
          .add(time(0))
          .add(time(1))
          .add(time(2))
          .add(w * w + l - 1)
          .add(2 * w + l);
    }
  }
  table.print(std::cout, args.get_table_style());
  std::printf(
      "\nCRSW/SRCW track w^2 + l (stride phase dominates); DRDW tracks\n"
      "2w + l (both phases conflict-free). The RAP implementation turns\n"
      "CRSW/SRCW into the DRDW column — see table3_transpose_gpu.\n");
  return 0;
}
