// Parallel sum-reduction in shared memory — the second classic
// bank-conflict workload after transpose.
//
// Reduce n = rows * w values to one sum in log2(n) SIMD steps. Two
// textbook variants:
//
//   * INTERLEAVED — step s combines x[i] += x[i + 2^s] for i multiple of
//     2^(s+1). The active threads' addresses are 2^(s+1) apart: a
//     power-of-two stride that costs min(2^(s+1), w)-way bank conflicts
//     under RAW (this is the exact example in NVIDIA's reduction
//     optimization deck).
//   * SEQUENTIAL — step s combines x[t] += x[t + n/2^(s+1)] for
//     t < n/2^(s+1): both address streams are contiguous, conflict-free
//     under RAW.
//
// RAP turns the interleaved variant's conflicts into the ~3.5 noise floor
// automatically — the "developer need not know the trick" story on a
// second workload.
//
// Both variants are VM programs (vm/suite.hpp reduction_text): each step
// is ld + ldadd + st, so the kernel is lowered from the program and its
// loop-nest IR is the program's extraction.

#pragma once

#include <cstdint>

#include "core/mapping.hpp"
#include "dmm/kernel.hpp"
#include "dmm/machine.hpp"
#include "telemetry/run_telemetry.hpp"
#include "vm/suite.hpp"

namespace rapsim::workloads {

using ReductionVariant = vm::ReductionVariant;

[[nodiscard]] const char* reduction_variant_name(
    ReductionVariant variant) noexcept;

/// The reduction kernel over x[0 .. n), n = a power of two multiple of w,
/// using n/2 threads, lowered from its program. After execution the sum
/// is in x[0].
[[nodiscard]] dmm::Kernel build_reduction_kernel(ReductionVariant variant,
                                                 std::uint64_t n,
                                                 std::uint32_t width);

struct ReductionReport {
  bool correct = false;       // x[0] == sum of inputs
  std::uint64_t sum = 0;      // computed sum
  dmm::RunStats stats;
};

/// Fill x[0..n) with deterministic values, run the reduction under
/// `scheme`, verify the sum. A non-null `trace` receives the dispatch
/// records and a non-null `telemetry` sink the per-bank/congestion
/// telemetry of the run (rapsim_profile uses both).
[[nodiscard]] ReductionReport run_reduction(
    ReductionVariant variant, core::Scheme scheme, std::uint64_t n,
    std::uint32_t width, std::uint32_t latency, std::uint64_t seed,
    dmm::Trace* trace = nullptr,
    telemetry::RunTelemetry* telemetry = nullptr);

}  // namespace rapsim::workloads
