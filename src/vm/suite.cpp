#include "vm/suite.hpp"

#include <stdexcept>
#include <utility>

namespace rapsim::vm {
namespace {

std::string u(std::uint64_t value) { return std::to_string(value); }

bool is_pow2(std::uint64_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

/// The directives every program starts with.
std::string header(const std::string& name, std::uint64_t threads,
                   std::uint64_t memory) {
  return ".vm 1\n.name " + name + "\n.threads " + u(threads) +
         "\n.memory " + u(memory) + "\n";
}

std::uint64_t log2u(std::uint64_t value) {
  std::uint64_t result = 0;
  while ((std::uint64_t{1} << result) < value) ++result;
  return result;
}

/// One bitonic round (k, j): compare-exchange every pair {i, i+j} with
/// bit j of i clear, min to i + d*j, max to i + j - d*j, where d = bit k
/// of i (the merge direction). The pair layout keeps the index affine:
/// active lanes form 2j-aligned blocks, the direction bit is an explicit
/// 2-trip loop, and once k exceeds the warp width a warp-prefix mask
/// picks the n/2k warps that own k pairs each.
void emit_bitonic_round(std::string& out, std::uint64_t n, std::uint64_t w,
                        std::uint64_t k, std::uint64_t j) {
  out += "# round k=" + u(k) + " j=" + u(j) + "\n";
  if (k <= w) {
    // i = 2w*warp + 2k*e + k*d + 2j*f + lane, lane < j.
    out += "  slt r1, lane, " + u(j) + "\n";
    out += "  mask r1\n";
    out += "  loop r2, " + u(w / k) + "\n";
    out += "  loop r3, 2\n";
    out += "  loop r4, " + u(k / (2 * j)) + "\n";
    out += "    mul r5, warp, " + u(2 * w) + "\n";
    out += "    mul r6, r2, " + u(2 * k) + "\n";
    out += "    add r5, r5, r6\n";
    out += "    mul r6, r3, " + u(k) + "\n";
    out += "    add r5, r5, r6\n";
    out += "    mul r6, r4, " + u(2 * j) + "\n";
    out += "    add r5, r5, r6\n";
    out += "    add r5, r5, lane\n";
    out += "    add r6, r5, " + u(j) + "\n";
    out += "    ld r10, r5 @bit.lo\n";
    out += "    ld r11, r6 @bit.hi\n";
    out += "    cmpx r10, r11\n";
    out += "    mul r7, r3, " + u(j) + "\n";
    out += "    add r8, r5, r7\n";
    out += "    sub r9, r6, r7\n";
    out += "    st r8, r10 @bit.min\n";
    out += "    st r9, r11 @bit.max\n";
    out += "  endl\n";
    out += "  endl\n";
    out += "  endl\n";
    out += "  unmask\n";
    return;
  }
  // i = 2k*warp + k*d + 2j*f [+ w*g] + lane, warp < max(n/2k, 1).
  // For k == n bit k of i is always clear, so d has a single trip.
  const std::uint64_t warps = n / (2 * k) > 0 ? n / (2 * k) : 1;
  const std::uint64_t d_trips = k == n ? 1 : 2;
  const bool wide = j >= w;  // lanes cover only part of the 2j block
  out += "  slt r1, warp, " + u(warps) + "\n";
  out += "  mask r1\n";
  if (!wide) {
    out += "  slt r2, lane, " + u(j) + "\n";
    out += "  mask r2\n";
  }
  out += "  loop r3, " + u(d_trips) + "\n";
  out += "  loop r4, " + u(k / (2 * j)) + "\n";
  if (wide) out += "  loop r5, " + u(j / w) + "\n";
  out += "    mul r6, warp, " + u(2 * k) + "\n";
  out += "    mul r7, r3, " + u(k) + "\n";
  out += "    add r6, r6, r7\n";
  out += "    mul r7, r4, " + u(2 * j) + "\n";
  out += "    add r6, r6, r7\n";
  if (wide) {
    out += "    mul r7, r5, " + u(w) + "\n";
    out += "    add r6, r6, r7\n";
  }
  out += "    add r6, r6, lane\n";
  out += "    add r7, r6, " + u(j) + "\n";
  out += "    ld r10, r6 @bit.lo\n";
  out += "    ld r11, r7 @bit.hi\n";
  out += "    cmpx r10, r11\n";
  out += "    mul r8, r3, " + u(j) + "\n";
  out += "    add r9, r6, r8\n";
  out += "    sub r7, r7, r8\n";
  out += "    st r9, r10 @bit.min\n";
  out += "    st r7, r11 @bit.max\n";
  if (wide) out += "  endl\n";
  out += "  endl\n";
  out += "  endl\n";
  if (!wide) out += "  unmask\n";
  out += "  unmask\n";
}

/// One odd-even transposition pass over every grid row. Warp u owns grid
/// row u (element x of row u lives at address x*w + u), so passes touch
/// disjoint addresses across warps and need no barrier. The body never
/// reads the pass counter: extraction collapses it to a zero-coefficient
/// loop variable.
void emit_shear_row_phase(std::string& out, std::uint64_t w) {
  out += "# row phase: odd-even transposition, warp u sorts grid row u\n";
  out += "  loop r1, " + u(w / 2) + "\n";
  for (int odd = 0; odd < 2; ++odd) {
    out += "    slt r2, lane, " + u(w / 2 - (odd ? 1 : 0)) + "\n";
    out += "    mask r2\n";
    out += "      mul r3, lane, " + u(2 * w) + "\n";
    if (odd) out += "      add r3, r3, " + u(w) + "\n";
    out += "      add r3, r3, warp\n";
    out += "      add r4, r3, " + u(w) + "\n";
    out += "      ld r10, r3 @row.lo\n";
    out += "      ld r11, r4 @row.hi\n";
    out += "      cmpx r10, r11\n";
    out += "      st r3, r10 @row.min\n";
    out += "      st r4, r11 @row.max\n";
    out += "    unmask\n";
  }
  out += "  endl\n";
}

/// One odd-even transposition sweep over the 8 grid columns (8
/// subrounds). Warp q compares grid rows (2q+pp, 2q+pp+1) across all w
/// columns; the boustrophedon storage reverses the column coordinate
/// between adjacent rows, so the partner of (i, x) is (i+1, w-1-x).
void emit_shear_col_phase(std::string& out, std::uint64_t w) {
  out += "# column phase: odd-even transposition over the 8 grid rows\n";
  for (std::uint64_t p = 0; p < 8; ++p) {
    const std::uint64_t pp = p & 1;
    out += "  slt r2, warp, " + u(4 - pp) + "\n";
    out += "  mask r2\n";
    out += "    mul r3, lane, " + u(w) + "\n";
    out += "    add r3, r3, warp\n";
    out += "    add r3, r3, warp\n";
    if (pp) out += "    add r3, r3, 1\n";
    out += "    sub r4, " + u(w - 1) + ", lane\n";
    out += "    mul r4, r4, " + u(w) + "\n";
    out += "    add r4, r4, warp\n";
    out += "    add r4, r4, warp\n";
    out += "    add r4, r4, " + u(pp + 1) + "\n";
    out += "    ld r10, r3 @col.top\n";
    out += "    ld r11, r4 @col.bot\n";
    out += "    cmpx r10, r11\n";
    out += "    st r3, r10 @col.min\n";
    out += "    st r4, r11 @col.max\n";
    out += "  unmask\n";
    out += "  bar\n";
  }
}

}  // namespace

std::string bitonic_text(std::uint64_t n, std::uint32_t width) {
  if (n < 2 || !is_pow2(n)) {
    throw std::invalid_argument("bitonic: n must be a power of two >= 2");
  }
  if (width == 0 || n % (2ull * width) != 0) {
    throw std::invalid_argument(
        "bitonic: n must be a multiple of twice the width");
  }
  const std::uint64_t w = width;
  std::string out;
  out += "# Bitonic sorting network over n = " + u(n) + " elements,\n";
  out += "# one thread per pair. Conflict-free by construction: every\n";
  out += "# round touches contiguous 2j-aligned blocks (raw bound 1).\n";
  out += header("vm-bitonic", n / 2, n);
  bool first = true;
  for (std::uint64_t k = 2; k <= n; k <<= 1) {
    for (std::uint64_t j = k / 2; j >= 1; j >>= 1) {
      if (!first) out += "bar\n";
      first = false;
      emit_bitonic_round(out, n, w, k, j);
    }
  }
  out += "halt\n";
  return out;
}

std::string shearsort_text(std::uint32_t width) {
  if (width < 8 || !is_pow2(width)) {
    throw std::invalid_argument(
        "shearsort: width must be a power of two >= 8");
  }
  const std::uint64_t w = width;
  std::string out;
  out += "# Shearsort on an 8 x " + u(w) + " grid stored column-major\n";
  out += "# (element x of grid row i lives at x*w + i) with boustrophedon\n";
  out += "# row coordinates, so every row sort is ascending in storage\n";
  out += "# and the result is snake-ordered. Row phases are stride-w\n";
  out += "# (raw-hostile); the rotate mapping certifies congestion 1.\n";
  out += header("vm-shearsort", 8 * w, w * w);
  for (int phase = 0; phase < 3; ++phase) {
    emit_shear_row_phase(out, w);
    out += "bar\n";
    emit_shear_col_phase(out, w);  // each subround ends with its own bar
  }
  emit_shear_row_phase(out, w);
  out += "halt\n";
  return out;
}

std::string mergesort_round_text(std::uint32_t width) {
  if (width == 0 || !is_pow2(width)) {
    throw std::invalid_argument(
        "mergesort-round: width must be a power of two");
  }
  const std::uint64_t w = width;
  const std::uint64_t n = 4 * w * w;
  std::string out;
  out += "# One multiway-merge distribution round: each warp streams its\n";
  out += "# w runs of w keys column-wise (read stride w: raw congestion\n";
  out += "# exactly w) and writes them row-contiguous into [n, 2n). The\n";
  out += "# rotate mapping makes both sides conflict-free.\n";
  out += header("vm-mergesort-round", 4 * w, 2 * n);
  out += "mul r1, warp, " + u(w * w) + "\n";
  out += "add r2, r1, " + u(n) + "\n";
  out += "loop r3, " + u(w) + "\n";
  out += "  mul r4, lane, " + u(w) + "\n";
  out += "  add r4, r4, r1\n";
  out += "  add r4, r4, r3\n";
  out += "  ld r5, r4 @merge.read\n";
  out += "  mul r6, r3, " + u(w) + "\n";
  out += "  add r6, r6, r2\n";
  out += "  add r6, r6, lane\n";
  out += "  st r6, r5 @merge.write\n";
  out += "endl\n";
  out += "halt\n";
  return out;
}

std::string permute_text(PermuteKind kind, std::uint32_t width,
                         std::uint64_t seed) {
  if (width == 0 || !is_pow2(width)) {
    throw std::invalid_argument("permute: width must be a power of two");
  }
  const std::uint64_t w = width;
  const std::uint64_t n = 8 * w;
  const char* tag = kind == PermuteKind::kIdentity     ? "identity"
                    : kind == PermuteKind::kBitReversal ? "bitrev"
                                                        : "derange";
  std::string out;
  out += "# Permutation routing: thread i moves mem[i] to n + pi(i).\n";
  out += header("vm-permute-" + std::string(tag), n, 2 * n);
  out += "mul r1, warp, " + u(w) + "\n";
  out += "add r1, r1, lane\n";
  out += "ld r2, r1 @perm.read\n";
  switch (kind) {
    case PermuteKind::kIdentity:
      out += "add r3, r1, " + u(n) + "\n";
      break;
    case PermuteKind::kBitReversal: {
      // pi(i) = reverse of i's low log2(n) bits: a register recurrence,
      // so extraction unrolls the loop and the site goes opaque.
      out += "li r3, 0\n";
      out += "mov r4, r1\n";
      out += "loop r5, " + u(log2u(n)) + "\n";
      out += "  shl r3, r3, 1\n";
      out += "  and r6, r4, 1\n";
      out += "  or r3, r3, r6\n";
      out += "  shr r4, r4, 1\n";
      out += "endl\n";
      out += "add r3, r3, " + u(n) + "\n";
      break;
    }
    case PermuteKind::kDerangement: {
      // pi(i) = (a*i + c) mod n with a, c odd: an odd multiplier is a
      // unit mod 2^k, and (a-1)*i + c is odd, so pi has no fixed point.
      std::uint64_t mix =
          seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
      mix ^= mix >> 31;
      const std::uint64_t a = 2 * (mix % (n / 2)) + 1;
      const std::uint64_t c = 2 * ((mix >> 17) % (n / 2)) + 1;
      out += "mul r3, r1, " + u(a) + "\n";
      out += "add r3, r3, " + u(c) + "\n";
      out += "mod r3, r3, " + u(n) + "\n";
      out += "add r3, r3, " + u(n) + "\n";
      break;
    }
  }
  out += "st r3, r2 @perm.write\n";
  out += "halt\n";
  return out;
}

std::string transpose_text(TransposeAlgorithm algorithm,
                           std::uint32_t width) {
  if (width == 0 || !is_pow2(width)) {
    throw std::invalid_argument("transpose: width must be a power of two");
  }
  const std::uint64_t w = width;
  const char* tag = algorithm == TransposeAlgorithm::kCrsw   ? "crsw"
                    : algorithm == TransposeAlgorithm::kSrcw ? "srcw"
                                                             : "drdw";
  // Element (row, col) of A is row*w + col, of B w^2 + row*w + col.
  const auto index = [w](const char* reg, const char* row, const char* col,
                         std::uint64_t base) {
    std::string text = "mul " + std::string(reg) + ", " + row + ", " + u(w) +
                       "\nadd " + reg + ", " + reg + ", " + col + "\n";
    if (base != 0) text += "add " + std::string(reg) + ", " + reg + ", " +
                           u(base) + "\n";
    return text;
  };
  std::string out;
  out += "# Matrix transpose (Fig. 5): thread (i, j) = (warp, lane) copies\n";
  out += "# one element of A (rows [0, w)) to B (rows [w, 2w)).\n";
  out += header("transpose-" + std::string(tag), w * w, 2 * w * w);
  switch (algorithm) {
    case TransposeAlgorithm::kCrsw:  // B[j][i] <- A[i][j]
      out += index("r1", "warp", "lane", 0);
      out += "ld r2, r1 @read.A\n";
      out += index("r3", "lane", "warp", w * w);
      break;
    case TransposeAlgorithm::kSrcw:  // B[i][j] <- A[j][i]
      out += index("r1", "lane", "warp", 0);
      out += "ld r2, r1 @read.A\n";
      out += index("r3", "warp", "lane", w * w);
      break;
    case TransposeAlgorithm::kDrdw:  // B[c][j] <- A[j][c], c = (i + j) % w
      out += "add r4, warp, lane\n";
      out += "mod r4, r4, " + u(w) + "\n";
      out += index("r1", "lane", "r4", 0);
      out += "ld r2, r1 @read.A\n";
      out += index("r3", "r4", "lane", w * w);
      break;
  }
  out += "st r3, r2 @write.B\n";
  out += "halt\n";
  return out;
}

std::string reduction_text(ReductionVariant variant, std::uint64_t n,
                           std::uint32_t width) {
  if (width == 0 || n < 2 || !is_pow2(n) || n % width != 0) {
    throw std::invalid_argument(
        "reduction: n must be a power of two multiple of w");
  }
  const std::uint64_t w = width;
  const std::uint64_t threads = n / 2;
  const bool interleaved = variant == ReductionVariant::kInterleaved;
  std::string out;
  out += "# Sum reduction of n = " + u(n) + " words into x[0]: step s\n";
  out += interleaved
             ? "# adds x[i + 2^s] into x[i] for i a multiple of 2^(s+1)\n"
               "# (stride 2^(s+1): bank conflicts under raw).\n"
             : "# adds x[t + n/2^(s+1)] into x[t] (contiguous).\n";
  out += header(interleaved ? "reduction-interleaved" : "reduction-sequential",
                threads, n);
  std::uint64_t step = 0;
  for (std::uint64_t active = threads; active >= 1; active /= 2, ++step) {
    // Threads t < active work: a warp prefix, then a lane prefix of
    // warp 0 once fewer than w remain.
    std::uint64_t masks = 0;
    if (active < threads) {
      out += "slt r1, warp, " + u(active >= w ? active / w : 1) + "\n";
      out += "mask r1\n";
      ++masks;
    }
    if (active < w) {
      out += "slt r2, lane, " + u(active) + "\n";
      out += "mask r2\n";
      ++masks;
    }
    out += "  mul r3, warp, " + u(w) + "\n";
    out += "  add r3, r3, lane\n";
    if (interleaved) {
      const std::uint64_t stride = threads / active;  // 2^s
      out += "  mul r3, r3, " + u(2 * stride) + "\n";
      out += "  add r4, r3, " + u(stride) + "\n";
    } else {
      out += "  add r4, r3, " + u(active) + "\n";
    }
    const std::string site = "s" + u(step);
    out += "  ld r10, r3 @" + site + ".left\n";
    out += "  ldadd r10, r4 @" + site + ".right\n";
    out += "  st r3, r10 @" + site + ".store\n";
    for (; masks > 0; --masks) out += "unmask\n";
    // The next step reads partial sums other warps wrote.
    if (active > 1) out += "bar\n";
  }
  out += "halt\n";
  return out;
}

std::string matmul_text(MatmulLayout layout, std::uint32_t width) {
  if (width == 0 || !is_pow2(width)) {
    throw std::invalid_argument("matmul: width must be a power of two");
  }
  const std::uint64_t w = width;
  const bool row_major = layout == MatmulLayout::kRowMajorB;
  std::string out;
  out += "# C = A x B on w x w tiles: thread (i, j) = (warp, lane) sums\n";
  out += "# A[i][k] * B[k][j] over k. A, B, C hold rows [0, w), [w, 2w),\n";
  out += row_major ? "# [2w, 3w); B is row-major (row reads).\n"
                   : "# [2w, 3w); B is stored transposed (column reads).\n";
  out += header(row_major ? "matmul-rowmajorb" : "matmul-transposedb", w * w,
                3 * w * w);
  out += "loop r1, " + u(w) + "\n";
  out += "  mul r2, warp, " + u(w) + "\n";
  out += "  add r2, r2, r1\n";
  out += "  ld r10, r2 @load.A\n";
  out += "  mul r3, " + std::string(row_major ? "r1" : "lane") + ", " +
         u(w) + "\n";
  out += "  add r3, r3, " + std::string(row_major ? "lane" : "r1") + "\n";
  out += "  add r3, r3, " + u(w * w) + "\n";
  out += "  ldmac r11, r3, r10 @load.B\n";
  out += "endl\n";
  out += "mul r4, warp, " + u(w) + "\n";
  out += "add r4, r4, lane\n";
  out += "add r4, r4, " + u(2 * w * w) + "\n";
  out += "st r4, r11 @store.C\n";
  out += "halt\n";
  return out;
}

std::vector<SuiteProgram> suite_programs(std::uint32_t width) {
  if (width < 8 || !is_pow2(width)) {
    throw std::invalid_argument(
        "suite: width must be a power of two >= 8");
  }
  std::vector<SuiteProgram> suite;
  suite.push_back({"vm-bitonic", bitonic_text(8ull * width, width)});
  suite.push_back({"vm-shearsort", shearsort_text(width)});
  suite.push_back({"vm-mergesort-round", mergesort_round_text(width)});
  suite.push_back(
      {"vm-permute-identity", permute_text(PermuteKind::kIdentity, width)});
  suite.push_back(
      {"vm-permute-bitrev", permute_text(PermuteKind::kBitReversal, width)});
  suite.push_back(
      {"vm-permute-derange", permute_text(PermuteKind::kDerangement, width)});
  return suite;
}

SuiteProgram suite_program(const std::string& name, std::uint32_t width) {
  std::vector<SuiteProgram> suite = suite_programs(width);
  std::string known;
  for (SuiteProgram& entry : suite) {
    if (entry.name == name) return std::move(entry);
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw std::invalid_argument("unknown suite program '" + name +
                              "' (known: " + known + ")");
}

}  // namespace rapsim::vm
