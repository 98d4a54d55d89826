// w x w matrix multiply in shared memory — the workload the paper's
// Section I cites as the reason w x w tiles matter ("an efficient matrix
// multiplication for a large matrix ... repeats multiplication of [w x w]
// submatrices in the shared memory").
//
// Thread (i, j) accumulates C[i][j] = sum_k A[i][k] * B[k][j] over w
// load-multiply-accumulate steps. Two layouts for the B operand:
//
//   * ROW-MAJOR B    — step k reads A[i][k] (whole warp, one address:
//     merged, congestion 1) and B[k][j] (a row: contiguous, congestion 1).
//     Conflict-free under RAW; RAP must NOT break this (and doesn't:
//     merged stays merged, rows stay rows).
//   * TRANSPOSED B   — B is stored column-major (B^T), as happens when
//     the operand arrives transposed: step k reads Bt[j][k], a column —
//     stride access, congestion w under RAW, ~1 noise under RAP.
//
// So matmul doubles as both a "RAP does no harm" check and another
// "RAP rescues a stride" demonstration.
//
// Both layouts are VM programs (vm/suite.hpp matmul_text) accumulating
// with ldmac, so the kernel is lowered from the program and its loop-nest
// IR is the program's extraction.

#pragma once

#include <cstdint>

#include "core/mapping.hpp"
#include "dmm/kernel.hpp"
#include "dmm/machine.hpp"
#include "vm/suite.hpp"

namespace rapsim::workloads {

using MatmulLayout = vm::MatmulLayout;

[[nodiscard]] const char* matmul_layout_name(MatmulLayout layout) noexcept;

/// Memory layout: A at [0, w^2), B (or B^T) at [w^2, 2w^2), C at
/// [2w^2, 3w^2); the backing MatrixMap must have 3w rows.
struct MatmulArrays {
  std::uint32_t width = 32;
  [[nodiscard]] std::uint64_t a(std::uint64_t i, std::uint64_t j) const {
    return i * width + j;
  }
  [[nodiscard]] std::uint64_t b(std::uint64_t i, std::uint64_t j) const {
    return (static_cast<std::uint64_t>(width) + i) * width + j;
  }
  [[nodiscard]] std::uint64_t c(std::uint64_t i, std::uint64_t j) const {
    return (2ull * width + i) * width + j;
  }
  [[nodiscard]] std::uint64_t rows() const { return 3ull * width; }
};

/// The w^2-thread multiply kernel, lowered from its program.
[[nodiscard]] dmm::Kernel build_matmul_kernel(MatmulLayout layout,
                                              const MatmulArrays& arrays);

struct MatmulReport {
  bool correct = false;
  dmm::RunStats stats;
};

/// Fill A and B with small deterministic values, multiply under `scheme`,
/// verify C against a host-side reference product.
[[nodiscard]] MatmulReport run_matmul(MatmulLayout layout,
                                      core::Scheme scheme,
                                      std::uint32_t width,
                                      std::uint32_t latency,
                                      std::uint64_t seed);

}  // namespace rapsim::workloads
