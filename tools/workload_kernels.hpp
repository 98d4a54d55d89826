// The executable view of the workload catalog (workloads/catalog.hpp):
// every catalog program, lowered.
//
// workload_kernels() lowers each program to the executable dmm::Kernel
// the capture path needs (the geometry comes with it); the lint catalog
// (builtin_kernels.hpp) extracts loop-nest IR from the same programs
// under the same names and adds the workloads that stay IR-only.
// rapsim-replay's `capture` subcommand, rapsim-hier and the replay
// differential test (tests/replay_differential_test.cpp) iterate this
// view, so "every built-in workload round-trips exactly" means exactly
// the catalog. Programs that also need their host reference (the input
// fill and output check) take it from the catalog entry and run through
// workloads::run_program.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dmm/kernel.hpp"

namespace rapsim::tools {

/// One capture-ready workload: the lowered kernel plus the number of rows
/// the backing width-wide MatrixMap needs (memory footprint = rows *
/// width).
struct WorkloadKernel {
  std::string name;
  dmm::Kernel kernel;
  std::uint64_t rows = 0;
};

/// Every workloads::workload_programs(width) entry, lowered, in the same
/// order.
[[nodiscard]] std::vector<WorkloadKernel> workload_kernels(
    std::uint32_t width);

/// The workloads::workload_program(name, width) entry, lowered. Throws
/// std::invalid_argument listing every name it accepts.
[[nodiscard]] WorkloadKernel workload_kernel(const std::string& name,
                                             std::uint32_t width);

}  // namespace rapsim::tools
