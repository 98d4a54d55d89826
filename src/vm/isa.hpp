// Mini-kernel VM instruction set (workload front end, DESIGN.md §15).
//
// A compact SPMD register machine over shared memory: every thread runs
// the same straight-line instruction stream (structured loops, no
// divergent control flow), reads its identity from the read-only `lane`
// and `warp` operands, computes ADDRESSES in 16 per-lane u64 registers,
// and touches memory through ld / st / amo / cmpx. Programs are written
// in the line-numbered `.rvm` text format (vm/assembler.hpp), lowered to
// executable dmm::Kernels and versioned AccessTraces (vm/exec.hpp), and
// — when address expressions are affine in {lane, warp, loop counters} —
// re-described as loop-nest kernel IR (vm/extract.hpp) so the symbolic
// prover, linter, synthesizer and race verifier apply with no
// per-workload glue.
//
// The key soundness property is baked into the ISA: DATA loaded from
// memory is opaque to the interpreter (it lives in DMM machine
// registers), so addresses can never depend on loaded values. A
// program's address stream is therefore a pure function of (lane, warp,
// loop counters) — deterministic, replayable, and analyzable. Loaded
// values may only be stored back, compare-exchanged (cmpx -> the DMM's
// kMinMax), atomically added, or accumulated by the two accumulating
// loads (ldadd -> kLoadAdd, ldmac -> kLoadMulAdd), which is exactly the
// move set of the paper's workloads (transpose, reduction, matmul,
// sorting networks, permutation routing). An accumulator that does not
// hold loaded data yet starts from 0.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rapsim::vm {

/// General-purpose per-lane registers r0..r15.
inline constexpr std::uint32_t kNumRegs = 16;

enum class Op : std::uint8_t {
  kLi,    // li   rd, imm          rd <- constant expression
  kMov,   // mov  rd, a            rd <- a
  kAdd,   // add  rd, a, b         rd <- a + b      (wrapping u64)
  kSub,   // sub  rd, a, b
  kMul,   // mul  rd, a, b
  kDiv,   // div  rd, a, b         b == 0 is a lowering error
  kMod,   // mod  rd, a, b         b == 0 is a lowering error
  kAnd,   // and  rd, a, b
  kOr,    // or   rd, a, b
  kXor,   // xor  rd, a, b
  kShl,   // shl  rd, a, b         shift counts >= 64 yield 0
  kShr,   // shr  rd, a, b
  kMin,   // min  rd, a, b
  kMax,   // max  rd, a, b
  kSlt,   // slt  rd, a, b         rd <- (a < b) ? 1 : 0
  kSeq,   // seq  rd, a, b         rd <- (a == b) ? 1 : 0
  kLd,    // ld   rd, a            rd <- mem[a]; rd becomes device-valued
  kLdAdd,  // ldadd rd, a          rd <- rd + mem[a]        (accumulate)
  kLdMac,  // ldmac rd, a, rb      rd <- rd + rb * mem[a]; rb device-valued
  kSt,    // st   a, b             mem[a] <- b (register or immediate)
  kAmo,   // amo  a, b             mem[a] += b; b must be device-valued
  kCmpx,  // cmpx ra, rb           (ra, rb) <- (min, max); both device
  kLoop,  // loop rd, imm          counted loop; rd = 0 .. imm-1
  kEndl,  // endl                  close the innermost loop
  kMask,  // mask a                push lane predicate (a != 0 is active)
  kUnmask,  // unmask              pop the innermost predicate
  kBz,    // bz   a, label         branch if a == 0 (must be uniform)
  kBnz,   // bnz  a, label         branch if a != 0 (must be uniform)
  kBar,   // bar                   block-wide barrier (__syncthreads())
  kHalt,  // halt                  stop all threads
};

[[nodiscard]] const char* op_name(Op op) noexcept;

/// One instruction operand: a register, an immediate, or one of the two
/// read-only identity registers.
struct Operand {
  enum class Kind : std::uint8_t { kNone, kReg, kImm, kLane, kWarp };
  Kind kind = Kind::kNone;
  std::uint64_t value = 0;  // register index (kReg) or immediate (kImm)

  static Operand none() { return {}; }
  static Operand reg(std::uint32_t r) { return {Kind::kReg, r}; }
  static Operand imm(std::uint64_t v) { return {Kind::kImm, v}; }
  static Operand lane() { return {Kind::kLane, 0}; }
  static Operand warp() { return {Kind::kWarp, 0}; }

  friend bool operator==(const Operand&, const Operand&) = default;
};

struct Instr {
  Op op = Op::kHalt;
  std::uint8_t rd = 0;  // destination / first register
  Operand a;            // first source (address for ld*/st/amo)
  Operand b;            // second source (st/amo value, ldmac multiplier,
                        // loop end pc)
  std::uint64_t imm = 0;  // kLi value, kLoop trip count, branch/endl pc
  std::uint32_t line = 0;  // 1-based source line (diagnostics)
  std::string site;        // optional @label naming the access site

  friend bool operator==(const Instr&, const Instr&) = default;
};

/// An assembled program, bound to a concrete warp width: the `.rvm`
/// symbol `w` is substituted at assembly time, so geometry expressions
/// like `.threads 8*w` are already concrete here.
struct Program {
  std::string name;
  std::uint32_t width = 32;        // lanes per warp (the paper's w)
  std::uint32_t num_threads = 0;   // multiple of width
  std::uint64_t memory_words = 0;  // shared memory size; multiple of width
  std::vector<Instr> instrs;

  [[nodiscard]] std::uint32_t num_warps() const noexcept {
    return width == 0 ? 0 : num_threads / width;
  }
  [[nodiscard]] std::uint64_t rows() const noexcept {
    return width == 0 ? 0 : memory_words / width;
  }
};

}  // namespace rapsim::vm
