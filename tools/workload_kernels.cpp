#include "workload_kernels.hpp"

#include <stdexcept>

#include "vm/assembler.hpp"
#include "vm/exec.hpp"

namespace rapsim::tools {

namespace {

WorkloadKernel lowered(std::string name, const std::string& text,
                       std::uint32_t width) {
  vm::LoweredProgram program = vm::lower_program(vm::assemble(text, width));
  return {std::move(name), std::move(program.kernel), program.rows};
}

}  // namespace

std::vector<vm::SuiteProgram> workload_programs(std::uint32_t width) {
  using vm::MatmulLayout;
  using vm::ReductionVariant;
  using vm::TransposeAlgorithm;
  const std::uint64_t n = 8ull * width;  // reduction / bitonic problem size
  std::vector<vm::SuiteProgram> programs = {
      {"transpose-crsw", vm::transpose_text(TransposeAlgorithm::kCrsw, width)},
      {"transpose-srcw", vm::transpose_text(TransposeAlgorithm::kSrcw, width)},
      {"transpose-drdw", vm::transpose_text(TransposeAlgorithm::kDrdw, width)},
      {"reduction-interleaved",
       vm::reduction_text(ReductionVariant::kInterleaved, n, width)},
      {"reduction-sequential",
       vm::reduction_text(ReductionVariant::kSequential, n, width)},
      {"matmul-rowmajorb", vm::matmul_text(MatmulLayout::kRowMajorB, width)},
      {"matmul-transposedb",
       vm::matmul_text(MatmulLayout::kTransposedB, width)},
  };
  if (width < 8) {  // the suite needs shearsort's 8-row grid
    programs.push_back({"bitonic", vm::bitonic_text(n, width)});
    return programs;
  }
  for (vm::SuiteProgram& entry : vm::suite_programs(width)) {
    if (entry.name == "vm-bitonic") entry.name = "bitonic";
    programs.push_back(std::move(entry));
  }
  return programs;
}

std::vector<WorkloadKernel> workload_kernels(std::uint32_t width) {
  std::vector<WorkloadKernel> catalog;
  for (vm::SuiteProgram& entry : workload_programs(width)) {
    catalog.push_back(lowered(std::move(entry.name), entry.text, width));
  }
  return catalog;
}

WorkloadKernel workload_kernel(const std::string& name, std::uint32_t width) {
  std::string known;
  for (vm::SuiteProgram& entry : workload_programs(width)) {
    if (entry.name == name) return lowered(name, entry.text, width);
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  // The catalog lists vm-bitonic as "bitonic"; every suite name resolves.
  if (width >= 8) {
    for (const vm::SuiteProgram& entry : vm::suite_programs(width)) {
      if (entry.name == name) return lowered(name, entry.text, width);
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " +
                              known + ")");
}

}  // namespace rapsim::tools
