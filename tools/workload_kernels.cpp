#include "workload_kernels.hpp"

#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "workloads/catalog.hpp"

namespace rapsim::tools {

namespace {

WorkloadKernel lowered(workloads::Workload entry, std::uint32_t width) {
  vm::LoweredProgram program =
      vm::lower_program(vm::assemble(entry.text, width));
  return {std::move(entry.name), std::move(program.kernel), program.rows};
}

}  // namespace

std::vector<WorkloadKernel> workload_kernels(std::uint32_t width) {
  std::vector<WorkloadKernel> catalog;
  for (workloads::Workload& entry : workloads::workload_programs(width)) {
    catalog.push_back(lowered(std::move(entry), width));
  }
  return catalog;
}

WorkloadKernel workload_kernel(const std::string& name, std::uint32_t width) {
  return lowered(workloads::workload_program(name, width), width);
}

}  // namespace rapsim::tools
