#include "workload_kernels.hpp"

#include <stdexcept>

#include "transpose/algorithms.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/suite.hpp"
#include "workloads/bitonic.hpp"
#include "workloads/matmul.hpp"
#include "workloads/reduction.hpp"

namespace rapsim::tools {

std::vector<WorkloadKernel> workload_kernels(std::uint32_t width) {
  const transpose::MatrixPair pair{width};
  const workloads::MatmulArrays arrays{width};
  const std::uint64_t n = 8ull * width;  // reduction / bitonic problem size

  std::vector<WorkloadKernel> catalog;
  catalog.push_back({"transpose-crsw",
                     transpose::build_kernel(transpose::Algorithm::kCrsw, pair),
                     pair.rows()});
  catalog.push_back({"transpose-srcw",
                     transpose::build_kernel(transpose::Algorithm::kSrcw, pair),
                     pair.rows()});
  catalog.push_back({"transpose-drdw",
                     transpose::build_kernel(transpose::Algorithm::kDrdw, pair),
                     pair.rows()});
  catalog.push_back(
      {"reduction-interleaved",
       workloads::build_reduction_kernel(
           workloads::ReductionVariant::kInterleaved, n, width),
       n / width});
  catalog.push_back(
      {"reduction-sequential",
       workloads::build_reduction_kernel(
           workloads::ReductionVariant::kSequential, n, width),
       n / width});
  catalog.push_back(
      {"matmul-rowmajorb",
       workloads::build_matmul_kernel(workloads::MatmulLayout::kRowMajorB,
                                      arrays),
       arrays.rows()});
  catalog.push_back(
      {"matmul-transposedb",
       workloads::build_matmul_kernel(workloads::MatmulLayout::kTransposedB,
                                      arrays),
       arrays.rows()});
  // bitonic is lowered from its VM program (workloads/bitonic.cpp);
  // every vm-* entry below assembles and lowers its `.rvm` source here.
  catalog.push_back({"bitonic", workloads::build_bitonic_kernel(n, width),
                     n / width, "program"});
  if (width >= 8) {  // the suite needs shearsort's 8-row grid
    for (vm::SuiteProgram& entry : vm::suite_programs(width)) {
      if (entry.name == "vm-bitonic") continue;  // aliased by "bitonic"
      const vm::LoweredProgram lowered =
          vm::lower_program(vm::assemble(entry.text, width));
      catalog.push_back(
          {std::move(entry.name), lowered.kernel, lowered.rows, "program"});
    }
  }
  return catalog;
}

WorkloadKernel workload_kernel(const std::string& name, std::uint32_t width) {
  std::vector<WorkloadKernel> catalog = workload_kernels(width);
  std::string known;
  for (WorkloadKernel& entry : catalog) {
    if (entry.name == name) return std::move(entry);
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  // The catalog lists vm-bitonic as "bitonic"; every suite name resolves.
  if (width >= 8) {
    for (const vm::SuiteProgram& entry : vm::suite_programs(width)) {
      if (entry.name != name) continue;
      vm::LoweredProgram lowered =
          vm::lower_program(vm::assemble(entry.text, width));
      return {name, std::move(lowered.kernel), lowered.rows, "program"};
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " +
                              known + ")");
}

}  // namespace rapsim::tools
