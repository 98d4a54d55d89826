// SIMD kernel representation executed by the DMM / UMM machines.
//
// A kernel is a straight-line sequence of SIMD instructions over p
// threads. Threads are partitioned into p/w warps of w consecutive thread
// ids (the paper's W(0), W(1), ...); all threads of a warp execute the
// same instruction in lockstep. Each thread has a small register file
// (kRegistersPerThread accumulators), enough to express the paper's
// workloads (transpose = load + dependent store) and the example
// applications (reduction, bitonic sort, tiled matrix multiply):
//
//   memory ops (occupy MMU pipeline slots, subject to bank conflicts):
//     kLoad       — reg[r] <- mem[logical]
//     kLoadAdd    — reg[r] += mem[logical]           (reduction)
//     kLoadMulAdd — reg[r] += reg[r2] * mem[logical] (matmul accumulate)
//     kStore      — mem[logical] <- reg[r]
//     kStoreImm   — mem[logical] <- immediate        (initialization)
//     kAtomicAdd  — mem[logical] += reg[r], read-modify-write. Unlike
//                   plain loads/stores, atomics to the SAME address do
//                   NOT merge: each one needs its own bank cycle, so a
//                   warp of w atomics on one address has congestion w
//                   (the shared-memory atomic serialization of real GPUs)
//
//   register ops (free: no memory traffic, no pipeline slots — arithmetic
//   is orders of magnitude cheaper than a shared-memory access):
//     kMinMax     — (reg[r], reg[r2]) <- (min, max) of the pair
//                   (bitonic compare-exchange)
//
//   kNone         — thread idles for this instruction
//
//   kBarrier      — block-wide synchronization (__syncthreads()): no warp
//                   proceeds past it until every warp has completed all
//                   earlier instructions. Required whenever one warp reads
//                   data another warp wrote (reduction trees, sorting
//                   networks). Emit with Kernel::push_barrier().
//
// SIMD restriction (Section II of the paper): within one warp-instruction
// all active ops must be of one class — all reads, all writes, or all
// register ops.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rapsim::dmm {

inline constexpr std::uint32_t kRegistersPerThread = 4;

enum class OpKind : std::uint8_t {
  kNone,
  kLoad,
  kLoadAdd,
  kLoadMulAdd,
  kStore,
  kStoreImm,
  kAtomicAdd,
  kMinMax,
  kBarrier,
};

/// One thread's slot of one SIMD instruction. The fields are ordered
/// widest first so the slot packs into 24 bytes: every walk over a
/// kernel's dense rows reads three quarters of the memory a naturally
/// ordered 32-byte slot would.
struct ThreadOp {
  std::uint64_t logical = 0;    // logical address (pre-mapping)
  std::uint64_t immediate = 0;  // used by kStoreImm
  OpKind kind = OpKind::kNone;
  std::uint8_t reg = 0;         // primary register
  std::uint8_t reg2 = 1;        // secondary register (kLoadMulAdd, kMinMax)

  static ThreadOp none() { return {}; }
  static ThreadOp load(std::uint64_t logical, std::uint8_t reg = 0) {
    return {logical, 0, OpKind::kLoad, reg, 1};
  }
  static ThreadOp load_add(std::uint64_t logical, std::uint8_t reg = 0) {
    return {logical, 0, OpKind::kLoadAdd, reg, 1};
  }
  static ThreadOp load_mul_add(std::uint64_t logical, std::uint8_t acc,
                               std::uint8_t factor) {
    return {logical, 0, OpKind::kLoadMulAdd, acc, factor};
  }
  static ThreadOp store(std::uint64_t logical, std::uint8_t reg = 0) {
    return {logical, 0, OpKind::kStore, reg, 1};
  }
  static ThreadOp store_imm(std::uint64_t logical, std::uint64_t value) {
    return {logical, value, OpKind::kStoreImm, 0, 1};
  }
  static ThreadOp atomic_add(std::uint64_t logical, std::uint8_t reg = 0) {
    return {logical, 0, OpKind::kAtomicAdd, reg, 1};
  }
  static ThreadOp min_max(std::uint8_t reg_min, std::uint8_t reg_max) {
    return {0, 0, OpKind::kMinMax, reg_min, reg_max};
  }
  static ThreadOp barrier() { return {0, 0, OpKind::kBarrier, 0, 1}; }
};
static_assert(sizeof(ThreadOp) == 24, "ThreadOp must stay 24 bytes");

/// One SIMD instruction: a ThreadOp per thread (indexed by thread id).
using Instruction = std::vector<ThreadOp>;

/// A straight-line SIMD program.
///
/// Besides the dense rows, a kernel keeps an active-thread index: for
/// each instruction, the ascending ids of the threads whose op is not
/// kNone. The execution layers (Dmm, KernelWarpSource, hier) read only
/// those threads, so an idle lane costs nothing — a sparse kernel such
/// as a masked sorting network touches a few percent of its slots.
/// push(), push_barrier() and the constructor keep the index current;
/// code that edits `instructions` in place must call reindex() before
/// running the kernel. KernelWarpSource rejects a kernel whose index
/// does not cover every instruction, and Dmm rejects an indexed thread
/// whose op is kNone.
class Kernel {
 public:
  std::uint32_t num_threads = 0;
  std::vector<Instruction> instructions;
  /// Optional per-instruction labels (access-site names), parallel to
  /// `instructions`; empty entries (or an empty vector) mean unlabeled.
  /// The sanitizer reports findings by label so they cross-reference
  /// lint's static findings.
  std::vector<std::string> labels;

  Kernel() = default;
  /// A kernel over `num_threads` threads with the given rows (each of
  /// exactly num_threads slots) and labels, indexed.
  explicit Kernel(std::uint32_t num_threads,
                  std::vector<Instruction> instructions = {},
                  std::vector<std::string> labels = {});

  /// Append an instruction; it must have exactly num_threads slots.
  /// The optional label names the instruction in sanitizer findings.
  void push(Instruction instr, std::string label = {});

  /// Append a block-wide barrier (__syncthreads()).
  void push_barrier();

  /// Rebuild the active-thread index from `instructions` (after an
  /// in-place edit). Throws std::invalid_argument if a row does not have
  /// exactly num_threads slots.
  void reindex();

  /// Install an index built by the caller, for builders that know the
  /// active threads without rescanning the rows (replay lowering).
  /// `ends[i]` is one past instruction i's last entry in `threads`; each
  /// instruction's entries must be ascending thread ids below
  /// num_threads, and must be exactly its non-kNone threads. Throws
  /// std::invalid_argument on a malformed shape.
  void set_active_index(std::vector<std::size_t> ends,
                        std::vector<std::uint32_t> threads);

  /// The index covers every instruction (it may still be stale after an
  /// in-place edit of a row; see reindex()).
  [[nodiscard]] bool indexed() const noexcept {
    return active_ends_.size() == instructions.size();
  }

  /// Active threads of instruction `instr`, ascending.
  [[nodiscard]] std::span<const std::uint32_t> active_threads(
      std::size_t instr) const noexcept {
    const std::size_t begin = instr == 0 ? 0 : active_ends_[instr - 1];
    return {active_threads_.data() + begin, active_ends_[instr] - begin};
  }

  /// Active threads of instruction `instr` with ids in [first, last),
  /// ascending — one warp's lanes.
  [[nodiscard]] std::span<const std::uint32_t> active_threads(
      std::size_t instr, std::uint32_t first,
      std::uint32_t last) const noexcept {
    const std::span<const std::uint32_t> all = active_threads(instr);
    if (all.empty() || all.back() < first || all.front() >= last) return {};
    const auto lo = std::lower_bound(all.begin(), all.end(), first);
    return {lo, std::lower_bound(lo, all.end(), last)};
  }

 private:
  void index_row(const Instruction& row);

  std::vector<std::size_t> active_ends_;       // CSR ends, one per instr
  std::vector<std::uint32_t> active_threads_;  // concatenated thread ids
};

}  // namespace rapsim::dmm
