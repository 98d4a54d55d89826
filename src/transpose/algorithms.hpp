// The paper's three matrix-transpose algorithms (Section III, Figure 5).
//
// A w x w source matrix A and destination B live in the same banked
// memory; thread (i, j) of a p = w^2-thread kernel copies one element:
//
//   CRSW  (Contiguous Read, Stride Write):  B[j][i]            <- A[i][j]
//   SRCW  (Stride Read, Contiguous Write):  B[i][j]            <- A[j][i]
//   DRDW  (Diagonal Read, Diagonal Write):  B[(i+j)%w][j]      <- A[j][(i+j)%w]
//
// Under the RAW mapping, CRSW's write and SRCW's read are stride accesses
// with congestion w; DRDW touches one cell per row on both sides
// (congestion 1) — it is the hand-optimized algorithm a CUDA expert would
// write. The RAP mapping makes the naive CRSW/SRCW conflict-free instead,
// which is the paper's headline result (Table III).
//
// Each algorithm is a VM program (vm/suite.hpp transpose_text) that
// lowers to a two-instruction DMM kernel (SIMD load, then SIMD store
// through the per-thread accumulator register); its loop-nest IR is the
// program's extraction (the `transpose-*` entries of the lint catalog).

#pragma once

#include <cstdint>

#include "dmm/kernel.hpp"
#include "vm/suite.hpp"

namespace rapsim::transpose {

using Algorithm = vm::TransposeAlgorithm;

[[nodiscard]] const char* algorithm_name(Algorithm algorithm) noexcept;

/// Layout of the two matrices inside the DMM memory: A occupies rows
/// [0, w) and B rows [w, 2w) of a 2w x w logical matrix, mirroring the
/// paper's `__shared__ double a[32][32], b[32][32]`.
struct MatrixPair {
  std::uint32_t width = 32;

  [[nodiscard]] std::uint64_t a_index(std::uint64_t i,
                                      std::uint64_t j) const noexcept {
    return i * width + j;
  }
  [[nodiscard]] std::uint64_t b_index(std::uint64_t i,
                                      std::uint64_t j) const noexcept {
    return (static_cast<std::uint64_t>(width) + i) * width + j;
  }
  /// Rows the backing MatrixMap must have (A and B stacked).
  [[nodiscard]] std::uint64_t rows() const noexcept { return 2ull * width; }
};

/// The two-instruction transpose kernel for `algorithm` on `layout`,
/// lowered from its program.
[[nodiscard]] dmm::Kernel build_kernel(Algorithm algorithm,
                                       const MatrixPair& layout);

}  // namespace rapsim::transpose
