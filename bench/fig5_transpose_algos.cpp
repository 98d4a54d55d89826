// Reproduction of Figure 5: the data movement of the CRSW, SRCW and DRDW
// transpose algorithms for w = 4, printed as before/after matrices plus
// the per-phase congestion under RAW.

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

namespace {

using namespace rapsim;

/// Prints the w x w matrix stored at rows [first_row, first_row + w).
void print_matrix(const char* label, const dmm::Dmm& machine,
                  std::uint32_t width, std::uint64_t first_row) {
  std::printf("%s:\n", label);
  for (std::uint32_t i = 0; i < width; ++i) {
    std::printf("  ");
    for (std::uint32_t j = 0; j < width; ++j) {
      const std::uint64_t addr = (first_row + i) * width + j;
      std::printf("%3llu", static_cast<unsigned long long>(machine.load(addr)));
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  constexpr std::uint32_t kWidth = 4;
  std::printf("== Figure 5: the three transpose algorithms (w = 4, RAW) ==\n");

  bool all_correct = true;
  for (const auto& [label, name] : {std::pair{"CRSW", "transpose-crsw"},
                                    std::pair{"SRCW", "transpose-srcw"},
                                    std::pair{"DRDW", "transpose-drdw"}}) {
    const workloads::Workload entry = workloads::workload_program(name, kWidth);
    const vm::LoweredProgram program =
        vm::lower_program(vm::assemble(entry.text, kWidth));
    const auto map = core::make_matrix_map(core::Scheme::kRaw, kWidth,
                                           program.rows, 1);
    dmm::Dmm machine(dmm::DmmConfig{kWidth, 1}, *map);
    // The reference fills A with 0..15, Figure 5's labeling.
    dmm::Trace trace;
    const bool correct =
        workloads::run_program(program, entry.reference, machine, 1, &trace)
            .correct;

    std::printf("\n-- %s --\n", label);
    print_matrix("A (source)", machine, kWidth, 0);
    print_matrix("B (destination)", machine, kWidth, kWidth);

    std::uint32_t read_max = 0, write_max = 0;
    for (const auto& d : trace.dispatches) {
      (d.instruction == 0 ? read_max : write_max) =
          std::max(d.instruction == 0 ? read_max : write_max, d.stages);
    }
    std::printf("read congestion %u, write congestion %u\n", read_max,
                write_max);
    std::printf("transpose %s\n", correct ? "correct" : "WRONG");
    all_correct &= correct;
  }
  return all_correct ? 0 : 1;
}
