// Built-in kernel catalog for rapsim-lint.
//
// The loop-nest IR of every built-in workload. The program-backed ones
// (the Fig. 5 transposes, matmul, reduction, bitonic, vm-mergesort-round
// and vm-shearsort) are extracted from the workload catalog's `.rvm`
// programs (workload_kernels.hpp), under the same names. The rest stay
// IR-only: the tiled transposes (their shared-memory half runs on the
// HMM), the histogram (its bins depend on the data, which a VM address
// may not) and the Table IV 4-D tensor access layouts (access patterns,
// not kernels, written directly here). The catalog is the lint driver's
// default target set and the population of the differential test
// (tests/differential_kernel_test.cpp).
//
// This lives in tools/ (not src/analyze/) so the analyze library never
// links the workload libraries — the dependency points the other way.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/kernelir.hpp"

namespace rapsim::tools {

/// Every built-in kernel description at warp width `w` (a power of two,
/// >= 8 for the VM suite members). Problem sizes scale with w:
/// reduction/bitonic use n = 8w, the histogram uses 2w bins, the VM
/// mergesort round streams 4w runs of w keys.
[[nodiscard]] std::vector<analyze::KernelDesc> builtin_kernels(
    std::uint32_t width);

/// The catalog entry named `name`, or throws std::invalid_argument
/// listing the valid names.
[[nodiscard]] analyze::KernelDesc builtin_kernel(const std::string& name,
                                                 std::uint32_t width);

}  // namespace rapsim::tools
