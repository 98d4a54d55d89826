#include "vm/exec.hpp"

#include <array>
#include <stdexcept>
#include <vector>

namespace rapsim::vm {
namespace {

constexpr std::uint64_t kMaxSteps = 1u << 24;
constexpr std::uint64_t kMaxKernelInstructions = 1u << 20;
constexpr std::size_t kMaxMaskDepth = 16;
constexpr int kNoSlot = -1;

[[noreturn]] void fail(const Instr& instr, const std::string& message) {
  throw std::invalid_argument("line " + std::to_string(instr.line) + ": " +
                              message);
}

struct Interp {
  const Program& program;
  std::uint32_t threads;
  std::uint32_t width;

  // regs[r * threads + t]: per-lane register files, interpreter-valued.
  std::vector<std::uint64_t> regs;
  // Device binding: dev[r] is the DMM machine-register slot holding r's
  // loaded value, or kNoSlot when the interpreter owns the register.
  // Uniform across threads by SPMD construction.
  std::array<int, kNumRegs> dev;
  std::array<bool, dmm::kRegistersPerThread> slot_used{};

  // Cumulative lane-activity masks (innermost on top).
  std::vector<std::vector<char>> mask_stack;

  std::vector<std::pair<std::size_t, std::uint64_t>> loop_stack;  // (pc, i)

  LoweredProgram out;

  explicit Interp(const Program& p)
      : program(p), threads(p.num_threads), width(p.width) {
    regs.assign(static_cast<std::size_t>(threads) * kNumRegs, 0);
    dev.fill(kNoSlot);
    out.width = width;
    out.rows = p.rows();
    out.kernel.num_threads = threads;
  }

  bool active(std::uint32_t t) const {
    return mask_stack.empty() || mask_stack.back()[t] != 0;
  }

  std::uint64_t eval(const Instr& instr, const Operand& operand,
                     std::uint32_t t) const {
    switch (operand.kind) {
      case Operand::Kind::kReg: {
        const auto r = static_cast<std::size_t>(operand.value);
        if (dev[r] != kNoSlot) {
          fail(instr, "r" + std::to_string(r) +
                          " holds loaded data (device-valued); it may only "
                          "be stored, cmpx'd or amo'd");
        }
        return regs[r * threads + t];
      }
      case Operand::Kind::kImm: return operand.value;
      case Operand::Kind::kLane: return t % width;
      case Operand::Kind::kWarp: return t / width;
      case Operand::Kind::kNone: break;
    }
    fail(instr, "missing operand");
  }

  /// Overwrite rd with an interpreter value, releasing any device slot.
  /// Device-ness is uniform across lanes, so a device register cannot be
  /// partially overwritten under a mask.
  void release(const Instr& instr, std::uint8_t rd) {
    if (dev[rd] != kNoSlot) {
      if (!mask_stack.empty()) {
        fail(instr, "cannot overwrite device-valued r" + std::to_string(rd) +
                        " under a mask");
      }
      slot_used[static_cast<std::size_t>(dev[rd])] = false;
      dev[rd] = kNoSlot;
    }
  }

  /// Loop counters are control state: written in every lane (masked or
  /// not), keeping the counter warp-uniform by construction.
  void set_all(const Instr& instr, std::uint8_t rd, std::uint64_t value) {
    release(instr, rd);
    for (std::uint32_t t = 0; t < threads; ++t) {
      regs[static_cast<std::size_t>(rd) * threads + t] = value;
    }
  }

  std::uint8_t device_slot(const Instr& instr, std::uint8_t rd) {
    if (dev[rd] == kNoSlot) {
      fail(instr, "r" + std::to_string(rd) +
                      " does not hold loaded data (ld into it first)");
    }
    return static_cast<std::uint8_t>(dev[rd]);
  }

  std::uint64_t address(const Instr& instr, std::uint32_t t) const {
    const std::uint64_t addr = eval(instr, instr.a, t);
    if (addr >= program.memory_words) {
      fail(instr, "thread " + std::to_string(t) + " address " +
                      std::to_string(addr) + " out of bounds (memory " +
                      std::to_string(program.memory_words) + " words)");
    }
    return addr;
  }

  void emit(const Instr& instr, const dmm::Row& row, bool memory_op) {
    if (out.kernel.instructions.size() >= kMaxKernelInstructions) {
      fail(instr, "kernel exceeds " +
                      std::to_string(kMaxKernelInstructions) +
                      " SIMD instructions");
    }
    std::string label = instr.site;
    if (label.empty()) {
      label = std::string(op_name(instr.op)) + "@" +
              std::to_string(instr.line);
    }
    out.kernel.push(row, std::move(label));
    if (memory_op) ++out.memory_instructions;
  }

  void run() {
    std::size_t pc = 0;
    while (pc < program.instrs.size()) {
      if (++out.steps > kMaxSteps) {
        throw std::invalid_argument(
            "program exceeds the interpreter step budget (" +
            std::to_string(kMaxSteps) + ")");
      }
      const Instr& instr = program.instrs[pc];
      switch (instr.op) {
        case Op::kLi:
          release(instr, instr.rd);
          for (std::uint32_t t = 0; t < threads; ++t) {
            if (active(t)) {
              regs[static_cast<std::size_t>(instr.rd) * threads + t] =
                  instr.imm;
            }
          }
          break;
        case Op::kMov: {
          std::vector<std::uint64_t> values(threads);
          for (std::uint32_t t = 0; t < threads; ++t) {
            values[t] = eval(instr, instr.a, t);
          }
          release(instr, instr.rd);
          for (std::uint32_t t = 0; t < threads; ++t) {
            if (active(t)) {
              regs[static_cast<std::size_t>(instr.rd) * threads + t] =
                  values[t];
            }
          }
          break;
        }
        case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv:
        case Op::kMod: case Op::kAnd: case Op::kOr: case Op::kXor:
        case Op::kShl: case Op::kShr: case Op::kMin: case Op::kMax:
        case Op::kSlt: case Op::kSeq: {
          std::vector<std::uint64_t> values(threads);
          for (std::uint32_t t = 0; t < threads; ++t) {
            values[t] = alu(instr, eval(instr, instr.a, t),
                            eval(instr, instr.b, t));
          }
          release(instr, instr.rd);
          for (std::uint32_t t = 0; t < threads; ++t) {
            if (active(t)) {
              regs[static_cast<std::size_t>(instr.rd) * threads + t] =
                  values[t];
            }
          }
          break;
        }
        case Op::kLd: {
          dmm::Row row(threads, dmm::ThreadOp::none());
          bool any = false;
          std::vector<std::uint64_t> addrs(threads, 0);
          for (std::uint32_t t = 0; t < threads; ++t) {
            if (active(t)) addrs[t] = address(instr, t);
          }
          // Bind rd to a machine-register slot (reusing its current one
          // on reload).
          if (dev[instr.rd] == kNoSlot) {
            int slot = kNoSlot;
            for (std::size_t s = 0; s < slot_used.size(); ++s) {
              if (!slot_used[s]) { slot = static_cast<int>(s); break; }
            }
            if (slot == kNoSlot) {
              fail(instr, "more than " +
                              std::to_string(dmm::kRegistersPerThread) +
                              " loaded values live at once (the DMM has " +
                              std::to_string(dmm::kRegistersPerThread) +
                              " machine registers)");
            }
            slot_used[static_cast<std::size_t>(slot)] = true;
            dev[instr.rd] = slot;
          }
          const auto slot = static_cast<std::uint8_t>(dev[instr.rd]);
          for (std::uint32_t t = 0; t < threads; ++t) {
            if (active(t)) {
              row[t] = dmm::ThreadOp::load(addrs[t], slot);
              any = true;
            }
          }
          if (any) emit(instr, row, true);
          break;
        }
        case Op::kSt: {
          dmm::Row row(threads, dmm::ThreadOp::none());
          bool any = false;
          const bool device_value =
              instr.b.kind == Operand::Kind::kReg &&
              dev[static_cast<std::size_t>(instr.b.value)] != kNoSlot;
          const std::uint8_t slot =
              device_value ? static_cast<std::uint8_t>(
                                 dev[static_cast<std::size_t>(instr.b.value)])
                           : 0;
          for (std::uint32_t t = 0; t < threads; ++t) {
            if (!active(t)) continue;
            const std::uint64_t addr = address(instr, t);
            row[t] = device_value
                         ? dmm::ThreadOp::store(addr, slot)
                         : dmm::ThreadOp::store_imm(addr,
                                                    eval(instr, instr.b, t));
            any = true;
          }
          if (any) emit(instr, row, true);
          break;
        }
        case Op::kAmo: {
          if (instr.b.kind != Operand::Kind::kReg) {
            fail(instr, "amo value must be a device-valued register");
          }
          const std::uint8_t slot =
              device_slot(instr, static_cast<std::uint8_t>(instr.b.value));
          dmm::Row row(threads, dmm::ThreadOp::none());
          bool any = false;
          for (std::uint32_t t = 0; t < threads; ++t) {
            if (!active(t)) continue;
            row[t] = dmm::ThreadOp::atomic_add(address(instr, t), slot);
            any = true;
          }
          if (any) emit(instr, row, true);
          break;
        }
        case Op::kCmpx: {
          const std::uint8_t lo = device_slot(instr, instr.rd);
          const std::uint8_t hi = device_slot(
              instr, static_cast<std::uint8_t>(instr.a.value));
          if (lo == hi) fail(instr, "cmpx needs two distinct registers");
          dmm::Row row(threads, dmm::ThreadOp::none());
          bool any = false;
          for (std::uint32_t t = 0; t < threads; ++t) {
            if (!active(t)) continue;
            row[t] = dmm::ThreadOp::min_max(lo, hi);
            any = true;
          }
          if (any) emit(instr, row, false);
          break;
        }
        case Op::kLoop: {
          const std::uint64_t trip = instr.imm;
          if (instr.b.kind != Operand::Kind::kImm) {
            fail(instr, "malformed loop (no endl link)");
          }
          if (trip == 0) {
            pc = static_cast<std::size_t>(instr.b.value);  // skip to endl
          } else {
            set_all(instr, instr.rd, 0);
            loop_stack.emplace_back(pc, 0);
          }
          break;
        }
        case Op::kEndl: {
          if (loop_stack.empty() ||
              loop_stack.back().first != static_cast<std::size_t>(instr.imm)) {
            fail(instr, "endl does not match an open loop");
          }
          const Instr& header = program.instrs[loop_stack.back().first];
          if (++loop_stack.back().second < header.imm) {
            set_all(header, header.rd, loop_stack.back().second);
            pc = loop_stack.back().first;  // ++pc below lands on the body
          } else {
            loop_stack.pop_back();
          }
          break;
        }
        case Op::kMask: {
          if (mask_stack.size() >= kMaxMaskDepth) {
            fail(instr, "mask nesting exceeds " +
                            std::to_string(kMaxMaskDepth));
          }
          std::vector<char> next(threads, 0);
          for (std::uint32_t t = 0; t < threads; ++t) {
            next[t] = active(t) && eval(instr, instr.a, t) != 0;
          }
          mask_stack.push_back(std::move(next));
          break;
        }
        case Op::kUnmask:
          if (mask_stack.empty()) fail(instr, "unmask without a mask");
          mask_stack.pop_back();
          break;
        case Op::kBz:
        case Op::kBnz: {
          const std::uint64_t first = eval(instr, instr.a, 0);
          for (std::uint32_t t = 1; t < threads; ++t) {
            if (eval(instr, instr.a, t) != first) {
              fail(instr, "divergent branch: the predicate must be uniform "
                          "across all threads");
            }
          }
          const bool taken =
              instr.op == Op::kBz ? first == 0 : first != 0;
          if (taken) {
            pc = static_cast<std::size_t>(instr.imm);
            continue;  // do not ++pc
          }
          break;
        }
        case Op::kBar:
          if (!mask_stack.empty()) {
            fail(instr, "bar under a mask (barriers are block-wide)");
          }
          out.kernel.push_barrier();
          ++out.barriers;
          break;
        case Op::kHalt:
          return;
      }
      ++pc;
    }
    if (!mask_stack.empty()) {
      throw std::invalid_argument(
          "program ended with an active mask (missing unmask)");
    }
  }

  static std::uint64_t alu(const Instr& instr, std::uint64_t a,
                           std::uint64_t b) {
    switch (instr.op) {
      case Op::kAdd: return a + b;
      case Op::kSub: return a - b;
      case Op::kMul: return a * b;
      case Op::kDiv:
        if (b == 0) fail(instr, "division by zero");
        return a / b;
      case Op::kMod:
        if (b == 0) fail(instr, "modulo by zero");
        return a % b;
      case Op::kAnd: return a & b;
      case Op::kOr: return a | b;
      case Op::kXor: return a ^ b;
      case Op::kShl: return b >= 64 ? 0 : a << b;
      case Op::kShr: return b >= 64 ? 0 : a >> b;
      case Op::kMin: return a < b ? a : b;
      case Op::kMax: return a > b ? a : b;
      case Op::kSlt: return a < b ? 1 : 0;
      case Op::kSeq: return a == b ? 1 : 0;
      default: fail(instr, "not an ALU op");
    }
  }
};

}  // namespace

LoweredProgram lower_program(const Program& program) {
  if (program.width == 0 || program.num_threads == 0 ||
      program.num_threads % program.width != 0) {
    throw std::invalid_argument(
        "program needs a positive thread count that is a multiple of the "
        "width");
  }
  if (program.memory_words == 0 || program.memory_words % program.width != 0) {
    throw std::invalid_argument(
        "program needs a positive memory size that is a multiple of the "
        "width");
  }
  Interp interp(program);
  interp.run();
  return std::move(interp.out);
}

}  // namespace rapsim::vm
