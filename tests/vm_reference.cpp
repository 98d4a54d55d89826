// The per-lane interpreter vm::lower_program replaced, kept verbatim as
// the oracle for its warp-at-a-time successor (vm_reference.hpp).

#include "vm_reference.hpp"

#include <array>
#include <stdexcept>
#include <vector>

namespace rapsim::vm::testing {
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
  // A slot some emitted instruction wrote no longer holds the 0 that
  // Dmm::begin_run put there, so no accumulator may start from it.
  std::array<bool, dmm::kRegistersPerThread> slot_written{};

  // Cumulative lane-activity masks: level d (innermost = mask_depth - 1)
  // is masks[d * threads, (d + 1) * threads).
  std::vector<char> masks;
  std::size_t mask_depth = 0;
  std::vector<std::uint64_t> values;  // one ALU result per thread

  std::vector<std::pair<std::size_t, std::uint64_t>> loop_stack;  // (pc, i)

  // The kernel's sparse store, one instruction's active ops at a time.
  std::vector<std::size_t> ends;
  std::vector<std::uint32_t> op_threads;
  std::vector<dmm::ThreadOp> ops;
  std::vector<std::string> labels;

  LoweredProgram out;

  explicit Interp(const Program& p)
      : program(p), threads(p.num_threads), width(p.width) {
    regs.assign(static_cast<std::size_t>(threads) * kNumRegs, 0);
    values.resize(threads);
    dev.fill(kNoSlot);
    out.width = width;
    out.rows = p.rows();
  }

  bool active(std::uint32_t t) const {
    return mask_depth == 0 ||
           masks[(mask_depth - 1) * threads + t] != 0;
  }

  std::uint64_t eval(const Instr& instr, const Operand& operand,
                     std::uint32_t t) const {
    switch (operand.kind) {
      case Operand::Kind::kReg: {
        const auto r = static_cast<std::size_t>(operand.value);
        if (dev[r] != kNoSlot) {
          fail(instr, "r" + std::to_string(r) +
                          " holds loaded data (device-valued); it may only "
                          "be stored, accumulated, cmpx'd or amo'd");
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
      if (mask_depth != 0) {
        fail(instr, "cannot overwrite device-valued r" + std::to_string(rd) +
                        " under a mask");
      }
      slot_used[static_cast<std::size_t>(dev[rd])] = false;
      dev[rd] = kNoSlot;
    }
  }

  /// Write value(t) to rd in every active lane. Every lane is evaluated
  /// before rd changes, so rd may also be a source.
  template <class Value>
  void write_active(const Instr& instr, Value&& value) {
    for (std::uint32_t t = 0; t < threads; ++t) values[t] = value(t);
    release(instr, instr.rd);
    std::uint64_t* rd = regs.data() + std::size_t{instr.rd} * threads;
    for (std::uint32_t t = 0; t < threads; ++t) {
      if (active(t)) rd[t] = values[t];
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

  /// The machine-register slot rd's loaded value lives in, binding the
  /// first free one if rd holds none yet (a reload reuses its slot). An
  /// accumulator that binds here starts from the slot's content, so that
  /// slot must still hold the 0 of Dmm::begin_run.
  std::uint8_t bind(const Instr& instr) {
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
      if (instr.op != Op::kLd &&
          slot_written[static_cast<std::size_t>(slot)]) {
        fail(instr, "accumulator r" + std::to_string(instr.rd) +
                        " would start from machine register " +
                        std::to_string(slot) +
                        ", which an earlier instruction wrote (registers "
                        "are zeroed only when a run begins)");
      }
      slot_used[static_cast<std::size_t>(slot)] = true;
      dev[instr.rd] = slot;
    }
    return static_cast<std::uint8_t>(dev[instr.rd]);
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

  /// Emit one SIMD instruction holding make_op(t) for every active lane
  /// t, or none when no lane is active; returns its first op's index.
  template <class MakeOp>
  std::size_t emit(const Instr& instr, bool memory_op, MakeOp&& make_op) {
    const std::size_t first = ops.size();
    for (std::uint32_t t = 0; t < threads; ++t) {
      if (!active(t)) continue;
      op_threads.push_back(t);
      ops.push_back(make_op(t));
    }
    if (ops.size() == first) return first;
    if (ends.size() >= kMaxKernelInstructions) {
      fail(instr, "kernel exceeds " +
                      std::to_string(kMaxKernelInstructions) +
                      " SIMD instructions");
    }
    ends.push_back(ops.size());
    labels.push_back(instr.site.empty()
                         ? std::string(op_name(instr.op)) + "@" +
                               std::to_string(instr.line)
                         : instr.site);
    if (memory_op) ++out.memory_instructions;
    return first;
  }

  /// ld, ldadd and ldmac: one load-class op per active lane into rd's
  /// machine register (ldmac also names its multiplier's).
  void load(const Instr& instr) {
    std::uint8_t factor = 1;
    if (instr.op == Op::kLdMac) {
      if (instr.b.kind != Operand::Kind::kReg) {
        fail(instr, "ldmac multiplier must be a device-valued register");
      }
      factor = device_slot(instr, static_cast<std::uint8_t>(instr.b.value));
    }
    using dmm::OpKind;
    const OpKind kind = instr.op == Op::kLd      ? OpKind::kLoad
                        : instr.op == Op::kLdAdd ? OpKind::kLoadAdd
                                                 : OpKind::kLoadMulAdd;
    const std::size_t first = emit(instr, true, [&](std::uint32_t t) {
      return dmm::ThreadOp{address(instr, t), 0, kind, 0, factor};
    });
    // Bound after the addresses, so an address error is reported first.
    const std::uint8_t slot = bind(instr);
    for (std::size_t k = first; k < ops.size(); ++k) ops[k].reg = slot;
    slot_written[slot] = true;
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
          write_active(instr, [&](std::uint32_t) { return instr.imm; });
          break;
        case Op::kMov:
          write_active(instr, [&](std::uint32_t t) {
            return eval(instr, instr.a, t);
          });
          break;
        case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv:
        case Op::kMod: case Op::kAnd: case Op::kOr: case Op::kXor:
        case Op::kShl: case Op::kShr: case Op::kMin: case Op::kMax:
        case Op::kSlt: case Op::kSeq:
          write_active(instr, [&](std::uint32_t t) {
            return alu(instr, eval(instr, instr.a, t),
                       eval(instr, instr.b, t));
          });
          break;
        case Op::kLd:
        case Op::kLdAdd:
        case Op::kLdMac:
          load(instr);
          break;
        case Op::kSt: {
          const bool device_value =
              instr.b.kind == Operand::Kind::kReg &&
              dev[static_cast<std::size_t>(instr.b.value)] != kNoSlot;
          const std::uint8_t slot =
              device_value ? static_cast<std::uint8_t>(
                                 dev[static_cast<std::size_t>(instr.b.value)])
                           : 0;
          (void)emit(instr, true, [&](std::uint32_t t) {
            const std::uint64_t addr = address(instr, t);
            return device_value ? dmm::ThreadOp::store(addr, slot)
                                : dmm::ThreadOp::store_imm(
                                      addr, eval(instr, instr.b, t));
          });
          break;
        }
        case Op::kAmo: {
          if (instr.b.kind != Operand::Kind::kReg) {
            fail(instr, "amo value must be a device-valued register");
          }
          const std::uint8_t slot =
              device_slot(instr, static_cast<std::uint8_t>(instr.b.value));
          (void)emit(instr, true, [&](std::uint32_t t) {
            return dmm::ThreadOp::atomic_add(address(instr, t), slot);
          });
          break;
        }
        case Op::kCmpx: {
          const std::uint8_t lo = device_slot(instr, instr.rd);
          const std::uint8_t hi = device_slot(
              instr, static_cast<std::uint8_t>(instr.a.value));
          if (lo == hi) fail(instr, "cmpx needs two distinct registers");
          (void)emit(instr, false, [&](std::uint32_t) {
            return dmm::ThreadOp::min_max(lo, hi);
          });
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
          if (mask_depth >= kMaxMaskDepth) {
            fail(instr, "mask nesting exceeds " +
                            std::to_string(kMaxMaskDepth));
          }
          masks.resize((mask_depth + 1) * threads);
          for (std::uint32_t t = 0; t < threads; ++t) {
            masks[mask_depth * threads + t] =
                active(t) && eval(instr, instr.a, t) != 0;
          }
          ++mask_depth;
          break;
        }
        case Op::kUnmask:
          if (mask_depth == 0) fail(instr, "unmask without a mask");
          --mask_depth;
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
          if (mask_depth != 0) {
            fail(instr, "bar under a mask (barriers are block-wide)");
          }
          for (std::uint32_t t = 0; t < threads; ++t) {
            op_threads.push_back(t);
            ops.push_back(dmm::ThreadOp::barrier());
          }
          ends.push_back(ops.size());
          labels.emplace_back();
          ++out.barriers;
          break;
        case Op::kHalt:
          return;
      }
      ++pc;
    }
    if (mask_depth != 0) {
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

LoweredProgram lower_per_lane(const Program& program) {
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
  LoweredProgram out = std::move(interp.out);
  out.kernel = dmm::Kernel::from_sparse(
      program.num_threads, std::move(interp.ends),
      std::move(interp.op_threads), std::move(interp.ops));
  out.kernel.labels = std::move(interp.labels);
  return out;
}

}  // namespace rapsim::vm::testing
