// Extension experiment: the workload VM (src/vm/) over the Sitchinava
// suite — workloads as programs rather than hand-written kernel
// builders.
//
// Each `.rvm` program is assembled, interpreted down to its SIMD kernel
// and symbolically extracted to loop-nest IR. The per-program table
// reports lowered size, thread-level accesses, extracted site/var counts
// and barrier phases; it is deterministic and pinned by
// results/ext_vm_workloads.txt. The speed of those phases is rapbench's
// to measure (vm.assemble_ms, vm.lower_ms, vm.extract_ms,
// replay.execute_ns_per_record).
//
//   $ ext_vm_workloads [--width=32] [--format=ascii|markdown|csv]

#include <cstdint>
#include <iostream>
#include <vector>

#include "dmm/kernel.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/extract.hpp"
#include "vm/suite.hpp"

namespace {

using namespace rapsim;

std::uint64_t thread_accesses(const dmm::Kernel& kernel) {
  std::uint64_t accesses = 0;
  for (const dmm::Instruction& instr : kernel.instructions) {
    for (const dmm::ThreadOp& op : instr) {
      switch (op.kind) {
        case dmm::OpKind::kLoad:
        case dmm::OpKind::kLoadAdd:
        case dmm::OpKind::kLoadMulAdd:
        case dmm::OpKind::kStore:
        case dmm::OpKind::kStoreImm:
        case dmm::OpKind::kAtomicAdd:
          ++accesses;
          break;
        default:
          break;
      }
    }
  }
  return accesses;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));

  const std::vector<vm::SuiteProgram> suite = vm::suite_programs(width);

  std::vector<vm::LoweredProgram> lowered;
  std::vector<vm::ExtractResult> extracted;
  for (const vm::SuiteProgram& entry : suite) {
    const vm::Program program = vm::assemble(entry.text, width);
    lowered.push_back(vm::lower_program(program));
    extracted.push_back(vm::extract_kernel(program));
  }

  util::TextTable table;
  table.row()
      .add("program")
      .add("simd instrs")
      .add("accesses")
      .add("sites")
      .add("vars")
      .add("barriers");
  for (std::size_t i = 0; i < suite.size(); ++i) {
    table.row()
        .add(suite[i].name)
        .add(lowered[i].kernel.instructions.size())
        .add(thread_accesses(lowered[i].kernel))
        .add(extracted[i].kernel.sites.size())
        .add(extracted[i].kernel.vars.size())
        .add(lowered[i].barriers);
  }
  table.print(std::cout, args.get_table_style());
  return 0;
}
