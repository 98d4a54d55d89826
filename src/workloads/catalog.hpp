// The workload catalog: every built-in workload written as a VM program,
// listed once, each with the host-side reference that says what its
// output must be.
//
// A Reference is two plain functions of (warp width, memory words,
// seed): `fill` draws the initial memory image and `check` decides
// whether a final image is correct for that input. Neither reads the
// program text, so one reference serves a program at any problem size
// (reduction_text(v, n, w) for every n, not just the catalog's n = 8w).
// workloads::run_program (workloads/run.hpp) is the one harness that
// stores the fill, runs a lowered program and applies the check.
//
// The catalog at width w, in order: transpose-{crsw,srcw,drdw},
// reduction-{interleaved,sequential}, matmul-{rowmajorb,transposedb} and
// bitonic (reduction and bitonic over n = 8w elements), then for w >= 8
// the VM suite of vm/suite.hpp without vm-bitonic: vm-shearsort,
// vm-mergesort-round and vm-permute-{identity,bitrev,derange}. What each
// check demands is stated next to it in catalog.cpp.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rapsim::workloads {

/// What a program must compute, as the input it starts from and the test
/// its final memory must pass.
struct Reference {
  /// The initial image of `words` memory words at warp width `width`.
  std::vector<std::uint64_t> (*fill)(std::uint32_t width,
                                     std::uint64_t words,
                                     std::uint64_t seed) = nullptr;
  /// Whether `image` is the correct final memory for the input
  /// fill(width, image.size(), seed).
  bool (*check)(std::uint32_t width, std::uint64_t seed,
                std::span<const std::uint64_t> image) = nullptr;
};

/// One catalog entry: a name, its `.rvm` source and its reference.
struct Workload {
  std::string name;
  std::string text;
  Reference reference;
};

/// The catalog at warp width `width` (a power of two), in the order of
/// the header comment.
[[nodiscard]] std::vector<Workload> workload_programs(std::uint32_t width);

/// The workload_programs(width) entry named `name`, or bitonic under its
/// suite name vm-bitonic (w >= 8). Throws std::invalid_argument listing
/// every name it accepts.
[[nodiscard]] Workload workload_program(const std::string& name,
                                        std::uint32_t width);

}  // namespace rapsim::workloads
