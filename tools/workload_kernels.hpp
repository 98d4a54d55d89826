// Executable workload catalog for rapsim-replay.
//
// The lint catalog (builtin_kernels.hpp) exports loop-nest IR; this one
// exports the *executable* dmm::Kernel builders the capture path needs —
// every workload whose kernel builder is public, with the backing matrix
// geometry it expects. rapsim-replay's `capture` subcommand and the
// replay differential test (tests/replay_differential_test.cpp) both
// iterate this catalog, so "every built-in workload round-trips exactly"
// means exactly this list.
//
// Lives in tools/ for the same reason builtin_kernels does: the workload
// libraries must not become a dependency of any src/ subsystem.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dmm/kernel.hpp"

namespace rapsim::tools {

/// One capture-ready workload: the kernel plus the number of rows the
/// backing width-wide MatrixMap needs (memory footprint = rows * width).
/// `origin` records where the kernel came from: "builtin" for the C++
/// builders, "program" for kernels lowered from `.rvm` VM programs
/// (vm/suite.hpp) — rapsim-replay's --list-workloads groups by it.
struct WorkloadKernel {
  std::string name;
  dmm::Kernel kernel;
  std::uint64_t rows = 0;
  std::string origin = "builtin";
};

/// Every executable built-in at warp width `w` (a power of two >= 8):
/// transpose-{crsw,srcw,drdw}, reduction-{interleaved,sequential},
/// matmul-{rowmajorb,transposedb}, bitonic (lowered from its VM
/// program), plus the VM suite: vm-shearsort, vm-mergesort-round and
/// vm-permute-{identity,bitrev,derange}. Reduction and bitonic run over
/// n = 8w elements.
[[nodiscard]] std::vector<WorkloadKernel> workload_kernels(
    std::uint32_t width);

/// The catalog entry named `name`, or the `vm::suite_programs(width)`
/// program of that name (vm-bitonic, which the catalog lists as
/// bitonic). Throws std::invalid_argument listing the valid names.
[[nodiscard]] WorkloadKernel workload_kernel(const std::string& name,
                                             std::uint32_t width);

}  // namespace rapsim::tools
