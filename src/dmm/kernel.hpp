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
//   kNone         — thread idles for this instruction (a builder's
//                   placeholder: the kernel never stores it)
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

/// One thread's op in one SIMD instruction. The fields are ordered
/// widest first so the op packs into 24 bytes: every walk over a
/// kernel's ops reads three quarters of the memory a naturally ordered
/// 32-byte op would.
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

/// A dense builder row: one ThreadOp per thread, indexed by thread id,
/// kNone for a thread that idles. Builders fill one and hand it to
/// Kernel::push, which keeps only its active ops.
using Row = std::vector<ThreadOp>;

/// Read-only view of one stored instruction: its active ops and, side by
/// side, their thread ids in ascending order. Iterating it visits only
/// the active ops; an idle thread has no entry.
class Instruction {
 public:
  Instruction() = default;
  Instruction(std::span<const std::uint32_t> threads,
              std::span<const ThreadOp> ops) noexcept
      : threads_(threads), ops_(ops) {}

  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  /// The k-th active op (thread threads()[k]).
  [[nodiscard]] const ThreadOp& operator[](std::size_t k) const noexcept {
    return ops_[k];
  }
  [[nodiscard]] const ThreadOp* begin() const noexcept { return ops_.data(); }
  [[nodiscard]] const ThreadOp* end() const noexcept {
    return ops_.data() + ops_.size();
  }
  [[nodiscard]] std::span<const std::uint32_t> threads() const noexcept {
    return threads_;
  }
  [[nodiscard]] std::span<const ThreadOp> ops() const noexcept {
    return ops_;
  }

  /// The part of this instruction with thread ids in [first, last) —
  /// one warp's lanes.
  [[nodiscard]] Instruction slice(std::uint32_t first,
                                  std::uint32_t last) const noexcept {
    const auto lo = std::lower_bound(threads_.begin(), threads_.end(), first);
    const auto hi = std::lower_bound(lo, threads_.end(), last);
    const auto offset = static_cast<std::size_t>(lo - threads_.begin());
    const auto count = static_cast<std::size_t>(hi - lo);
    return {threads_.subspan(offset, count), ops_.subspan(offset, count)};
  }

 private:
  std::span<const std::uint32_t> threads_;
  std::span<const ThreadOp> ops_;
};

/// A kernel's instructions, stored once and sparse: one instruction-major
/// CSR of per-instruction ends, ascending thread ids, and the ThreadOps
/// of exactly those threads. Read-only: only Kernel appends to it, so
/// there is no second copy that could go stale. Elements are Instruction
/// views, valid until the kernel next changes.
class InstructionTable {
 public:
  class iterator {
   public:
    using value_type = Instruction;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const InstructionTable* table, std::size_t index) noexcept
        : table_(table), index_(index) {}
    Instruction operator*() const noexcept { return (*table_)[index_]; }
    iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++index_;
      return old;
    }
    bool operator==(const iterator& other) const noexcept {
      return index_ == other.index_;
    }

   private:
    const InstructionTable* table_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ends_.empty(); }
  [[nodiscard]] Instruction operator[](std::size_t instr) const noexcept {
    const std::size_t begin = instr == 0 ? 0 : ends_[instr - 1];
    const std::size_t count = ends_[instr] - begin;
    return {{threads_.data() + begin, count}, {ops_.data() + begin, count}};
  }
  [[nodiscard]] iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() const noexcept { return {this, size()}; }

  /// Every active op of every instruction, instruction-major, and their
  /// thread ids; instruction i occupies [i == 0 ? 0 : ends()[i-1],
  /// ends()[i]).
  [[nodiscard]] std::span<const std::size_t> ends() const noexcept {
    return ends_;
  }
  [[nodiscard]] std::span<const std::uint32_t> threads() const noexcept {
    return threads_;
  }
  [[nodiscard]] std::span<const ThreadOp> ops() const noexcept {
    return ops_;
  }

 private:
  friend class Kernel;

  std::vector<std::size_t> ends_;      // one past each instruction's ops
  std::vector<std::uint32_t> threads_;  // ascending within an instruction
  std::vector<ThreadOp> ops_;           // parallel to threads_, never kNone
};

/// A straight-line SIMD program over num_threads threads.
///
/// The kernel stores only active ops (InstructionTable), so an idle
/// thread costs nothing to store or to run: a masked sorting network
/// touches a few percent of its num_instr x num_threads slots. The store
/// is instruction-major and does not depend on warp width, so one kernel
/// runs on a machine of any width. Builders append dense rows with
/// push(), which drops their kNone slots, or hand a whole sparse store to
/// from_sparse(), which validates it.
class Kernel {
 public:
  std::uint32_t num_threads = 0;
  InstructionTable instructions;
  /// Optional per-instruction labels (access-site names), parallel to
  /// `instructions`; empty entries (or an empty vector) mean unlabeled.
  /// The sanitizer reports findings by label so they cross-reference
  /// lint's static findings.
  std::vector<std::string> labels;

  Kernel() = default;
  /// A kernel over `num_threads` threads with the given rows (each of
  /// exactly num_threads slots) and labels.
  explicit Kernel(std::uint32_t num_threads,
                  const std::vector<Row>& rows = {},
                  std::vector<std::string> labels = {});

  /// Append an instruction given as a dense row; it must have exactly
  /// num_threads slots, and only its non-kNone slots are kept. The
  /// optional label names the instruction in sanitizer findings.
  void push(const Row& row, std::string label = {});

  /// Append a block-wide barrier (__syncthreads()): a kBarrier op for
  /// every thread.
  void push_barrier();

  /// A kernel built straight from its sparse store, for builders that
  /// know the active ops without a dense row (replay lowering). `ends[i]`
  /// is one past instruction i's last entry; `threads` and `ops` are
  /// parallel. Throws std::invalid_argument unless threads and ops have
  /// the same length, the ends do not decrease and end at that length,
  /// each instruction's thread ids strictly ascend below num_threads, and
  /// no op is kNone.
  [[nodiscard]] static Kernel from_sparse(std::uint32_t num_threads,
                                          std::vector<std::size_t> ends,
                                          std::vector<std::uint32_t> threads,
                                          std::vector<ThreadOp> ops);
};

}  // namespace rapsim::dmm
