// Bitonic sort in shared memory.
//
// Batcher's bitonic network sorts n = 2^k values in k(k+1)/2 rounds of
// compare-exchanges; round (k, j) pairs element i with i XOR j, and each
// round reads what other warps wrote in the previous one, so the kernel
// needs a block-wide barrier per round (__syncthreads() in CUDA,
// Kernel::push_barrier() here) — this workload is the library's stress
// test for the barrier and multi-register machinery.
//
// The network is authored as a VM program (vm/suite.hpp bitonic_text)
// and lowered here: build_bitonic_kernel assembles and executes the
// `.rvm` text; its loop-nest IR is the program's extraction (the
// `bitonic` entry of the lint catalog). The program's pair layout keeps
// every address AFFINE in (lane, warp, loop counters): active lanes form
// contiguous 2j-aligned blocks, the merge direction is an explicit
// 2-trip loop, and once the partner distance crosses the warp width a
// warp-prefix mask picks the owning warps.
//
// Bank behaviour: contiguous 2j-aligned blocks never split across
// matrix rows, so RAW congestion is exactly 1 — bitonic is a
// *well-behaved* kernel, and the interesting property is that RAP does
// not break it: the randomized layout keeps both correctness and the
// ~1 congestion level (the "no harm on good kernels" half of the
// paper's pitch; reduction and matmul carry the "rescues bad kernels"
// half). The affine price is occupancy, not conflicts: rounds with
// partner distance j < w keep only j of w lanes active (a full-
// occupancy affine layout with bound 1 does not exist).
//
// Each compare-exchange is five SIMD instructions (load lo, load hi,
// min/max in registers, store min, store max); n/2 threads run the
// network.

#pragma once

#include <cstdint>
#include <vector>

#include "core/mapping.hpp"
#include "dmm/kernel.hpp"
#include "dmm/machine.hpp"

namespace rapsim::workloads {

/// The full bitonic sorting network kernel over x[0 .. n), n a power of
/// two multiple of 2w, using n/2 threads, lowered from its program.
[[nodiscard]] dmm::Kernel build_bitonic_kernel(std::uint64_t n,
                                               std::uint32_t width);

struct BitonicReport {
  bool sorted = false;
  bool is_permutation = false;  // multiset of values preserved
  dmm::RunStats stats;
};

/// Fill x with pseudo-random values from `seed`, sort under `scheme`,
/// verify order and value preservation.
[[nodiscard]] BitonicReport run_bitonic_sort(core::Scheme scheme,
                                             std::uint64_t n,
                                             std::uint32_t width,
                                             std::uint32_t latency,
                                             std::uint64_t seed);

}  // namespace rapsim::workloads
