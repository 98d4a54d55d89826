// The workload catalog: every built-in workload that is written as a VM
// program, listed once.
//
// The tools read this one list two ways. workload_kernels() lowers each
// program to the executable dmm::Kernel the capture path needs (the
// geometry comes with it); the lint catalog (builtin_kernels.hpp)
// extracts loop-nest IR from the same programs under the same names and
// adds the workloads that stay IR-only. rapsim-replay's `capture`
// subcommand, rapsim-hier and the replay differential test
// (tests/replay_differential_test.cpp) iterate the executable view, so
// "every built-in workload round-trips exactly" means exactly this list.
//
// Lives in tools/ for the same reason builtin_kernels does: the workload
// libraries must not become a dependency of any src/ subsystem.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dmm/kernel.hpp"
#include "vm/suite.hpp"

namespace rapsim::tools {

/// The program-backed workloads at warp width `w` (a power of two), as
/// (name, `.rvm` text): transpose-{crsw,srcw,drdw},
/// reduction-{interleaved,sequential}, matmul-{rowmajorb,transposedb} and
/// bitonic (reduction and bitonic over n = 8w elements), plus, for
/// w >= 8, the VM suite (vm/suite.hpp) without vm-bitonic: vm-shearsort,
/// vm-mergesort-round and vm-permute-{identity,bitrev,derange}.
[[nodiscard]] std::vector<vm::SuiteProgram> workload_programs(
    std::uint32_t width);

/// One capture-ready workload: the lowered kernel plus the number of rows
/// the backing width-wide MatrixMap needs (memory footprint = rows *
/// width).
struct WorkloadKernel {
  std::string name;
  dmm::Kernel kernel;
  std::uint64_t rows = 0;
};

/// Every workload_programs(width) entry, lowered, in the same order.
[[nodiscard]] std::vector<WorkloadKernel> workload_kernels(
    std::uint32_t width);

/// The workload_programs entry named `name`, or the
/// `vm::suite_programs(width)` program of that name (vm-bitonic, which
/// the catalog lists as bitonic), lowered. Throws std::invalid_argument
/// listing the valid names.
[[nodiscard]] WorkloadKernel workload_kernel(const std::string& name,
                                             std::uint32_t width);

}  // namespace rapsim::tools
