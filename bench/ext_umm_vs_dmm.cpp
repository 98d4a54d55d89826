// Extension: DMM vs UMM on the fundamental access operations.
//
// The paper introduces both machines (Figure 1): the DMM has per-bank
// address lines (shared-memory semantics), the UMM one broadcast address
// line (global-memory coalescing semantics). This bench runs the
// Section III access operations and the three transpose algorithms on
// both machines under RAW, showing where bank-level parallelism matters:
//
//   * contiguous access: identical (one row == one slot on both);
//   * stride access: identical cost, different reason (same-bank
//     serialization on the DMM, w distinct rows on the UMM);
//   * diagonal access: the separator — 1 slot/warp on the DMM (distinct
//     banks) but w slots/warp on the UMM (distinct rows). The DRDW
//     transpose therefore only works on the DMM: diagonal access is a
//     shared-memory trick with no global-memory analogue.
//
//   $ ext_umm_vs_dmm [--width=32] [--latency=8]

#include <cstdio>
#include <iostream>
#include <utility>

#include "core/factory.hpp"
#include "dmm/umm.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

namespace {

using namespace rapsim;

dmm::Kernel access_kernel(std::uint32_t w, int pattern) {
  dmm::Kernel k{w * w, {}, {}};
  dmm::Row instr(k.num_threads);
  for (std::uint32_t i = 0; i < w; ++i) {
    for (std::uint32_t j = 0; j < w; ++j) {
      std::uint64_t addr = 0;
      if (pattern == 0) addr = static_cast<std::uint64_t>(i) * w + j;  // cont
      if (pattern == 1) addr = static_cast<std::uint64_t>(j) * w + i;  // stride
      if (pattern == 2) {                                              // diag
        addr = static_cast<std::uint64_t>(j) * w + (i + j) % w;
      }
      instr[i * w + j] = dmm::ThreadOp::load(addr);
    }
  }
  k.push(std::move(instr));
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto w = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const auto l = static_cast<std::uint32_t>(args.get_uint("latency", 8));

  std::printf("== Extension: DMM vs UMM (RAW, w = %u, l = %u) ==\n\n", w, l);

  const auto map = core::make_matrix_map(core::Scheme::kRaw, w, 2ull * w, 1);

  util::TextTable table;
  table.row().add("operation").add("DMM time").add("UMM time").add("UMM/DMM");

  const char* names[] = {"contiguous read", "stride read", "diagonal read"};
  for (int pattern = 0; pattern < 3; ++pattern) {
    dmm::Dmm on_dmm(dmm::dmm_config(w, l), *map);
    dmm::Dmm on_umm(dmm::umm_config(w, l), *map);
    const auto kernel = access_kernel(w, pattern);
    const auto t_dmm = on_dmm.run(kernel).time;
    const auto t_umm = on_umm.run(kernel).time;
    table.row()
        .add(names[pattern])
        .add(t_dmm)
        .add(t_umm)
        .add(static_cast<double>(t_umm) / static_cast<double>(t_dmm), 2);
  }

  for (const auto& [label, name] :
       {std::pair{"CRSW transpose", "transpose-crsw"},
        std::pair{"DRDW transpose", "transpose-drdw"}}) {
    const vm::LoweredProgram program =
        vm::lower_program(vm::assemble(
            workloads::workload_program(name, w).text, w));
    const auto pair_map =
        core::make_matrix_map(core::Scheme::kRaw, w, program.rows, 1);
    dmm::Dmm on_dmm(dmm::dmm_config(w, l), *pair_map);
    dmm::Dmm on_umm(dmm::umm_config(w, l), *pair_map);
    const auto t_dmm = on_dmm.run(program.kernel).time;
    const auto t_umm = on_umm.run(program.kernel).time;
    table.row()
        .add(label)
        .add(t_dmm)
        .add(t_umm)
        .add(static_cast<double>(t_umm) / static_cast<double>(t_dmm), 2);
  }
  table.print(std::cout, args.get_table_style());

  std::printf(
      "\nDiagonal access separates the machines (%ux on the UMM): DRDW is\n"
      "a shared-memory-only trick, which is why the paper studies the DMM\n"
      "for the shared memory and treats coalescing (the UMM) separately.\n",
      w);
  return 0;
}
