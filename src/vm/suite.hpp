// The Sitchinava–Weichert workload suite as `.rvm` programs
// (DESIGN.md §15): conflict-free sorting networks and permutation
// routing expressed for the VM front end, so capture / replay / lint /
// synthesis / race checking all reach them through the same program
// path with no per-workload glue.
//
// Each generator returns `.rvm` TEXT (not a Program): the text is the
// artifact — it round-trips through the assembler, ships in docs, and
// keeps the suite honest about being expressible in the ISA. Geometry
// constants are folded to literals for the requested width.
//
//   bitonic_text(n, w)        threads n/2, memory n. Full bitonic sort;
//                             lane-masked pair layout (2j-aligned
//                             blocks), warp-prefix masks once k > w.
//                             Affine: raw congestion 1 by construction.
//   shearsort_text(w)         threads 8w, memory w*w. 8 x w grid stored
//                             column-major with boustrophedon row
//                             coordinates; 3 x (row, column) phases + a
//                             final row phase. Affine; raw-hostile
//                             (stride-w rows), rotate-certifiable.
//   mergesort_round_text(w)   threads 4w, memory 8w^2. One multiway
//                             merge distribution round: each warp
//                             streams its w runs column-wise (raw
//                             congestion exactly w) and writes them
//                             row-contiguous. Affine; rotate -> 1.
//   permute_text(kind, w, s)  threads 8w, memory 16w. Arbitrary
//                             permutation routing x -> n + pi(x):
//                             identity (affine), bit-reversal (opaque),
//                             seeded derangement (a*i + c) mod n with
//                             a, c odd (opaque).
//
// The paper's own kernels and the two classic bank-conflict extensions
// are programs too; they are catalog workloads, not suite members:
//
//   transpose_text(alg, w)    threads w^2, memory 2w^2. Fig. 5's CRSW,
//                             SRCW and DRDW: thread (warp, lane) copies
//                             one element of A (rows [0, w)) to B (rows
//                             [w, 2w)). CRSW/SRCW affine; DRDW's
//                             (warp + lane) mod w column is opaque.
//   reduction_text(v, n, w)   threads n/2, memory n. log2(n) steps of
//                             ld + ldadd + st, a barrier between steps;
//                             interleaved (stride 2^(s+1), raw-hostile)
//                             or sequential (contiguous). Affine.
//   matmul_text(layout, w)    threads w^2, memory 3w^2. C = A x B with
//                             ldmac accumulation over w steps; B stored
//                             row-major (conflict-free) or transposed
//                             (column reads, raw congestion w). Affine.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rapsim::vm {

enum class PermuteKind : std::uint8_t {
  kIdentity,
  kBitReversal,
  kDerangement,
};

// int-sized: gtest prints parameters by their bytes, so the underlying
// type is part of the parameterized test names (tests/workloads_test.cpp
// sweeps these enums).
enum class TransposeAlgorithm { kCrsw, kSrcw, kDrdw };
enum class ReductionVariant { kInterleaved, kSequential };
enum class MatmulLayout { kRowMajorB, kTransposedB };

[[nodiscard]] std::string bitonic_text(std::uint64_t n, std::uint32_t width);
[[nodiscard]] std::string shearsort_text(std::uint32_t width);
[[nodiscard]] std::string mergesort_round_text(std::uint32_t width);
[[nodiscard]] std::string permute_text(PermuteKind kind, std::uint32_t width,
                                       std::uint64_t seed = 0);
[[nodiscard]] std::string transpose_text(TransposeAlgorithm algorithm,
                                         std::uint32_t width);
[[nodiscard]] std::string reduction_text(ReductionVariant variant,
                                         std::uint64_t n, std::uint32_t width);
[[nodiscard]] std::string matmul_text(MatmulLayout layout,
                                      std::uint32_t width);

/// One suite entry: a program name and its `.rvm` source.
struct SuiteProgram {
  std::string name;
  std::string text;
};

/// The canonical suite at warp width `width` (a power of two >= 8):
/// vm-bitonic (n = 8w), vm-shearsort, vm-mergesort-round, and
/// vm-permute-{identity,bitrev,derange}. Every entry assembles, lowers,
/// and extracts at `width`.
[[nodiscard]] std::vector<SuiteProgram> suite_programs(std::uint32_t width);

/// The suite entry named `name`, or throws std::invalid_argument
/// listing the valid names.
[[nodiscard]] SuiteProgram suite_program(const std::string& name,
                                         std::uint32_t width);

}  // namespace rapsim::vm
