#include "vm/exec.hpp"

#include <algorithm>
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

/// How many distinct values a register holds: one for the block, one per
/// warp, or one per thread. Ordered, so the level of a result is the
/// larger of its operands' levels.
enum class Level : std::uint8_t { kBlock, kWarp, kLane };

/// A resolved operand: one value per element of `level`.
struct Vec {
  Level level = Level::kBlock;
  const std::uint64_t* data = nullptr;
};

/// An operand read at its own level or a finer one: element i is
/// data[i * stride], so stride 0 broadcasts a block-uniform value.
struct View {
  const std::uint64_t* data = nullptr;
  std::size_t stride = 1;
  std::uint64_t operator[](std::size_t i) const { return data[i * stride]; }
};

/// out[i] = f(a[i], b[i]) for i < n, or only for the n elements i listed
/// in `at` when it is not null: one dispatch for the whole vector.
template <class F>
void apply(const std::uint32_t* at, std::size_t n, View a, View b,
           std::uint64_t* out, F f) {
  if (at != nullptr) {
    for (std::size_t k = 0; k < n; ++k) out[at[k]] = f(a[at[k]], b[at[k]]);
  } else if (a.stride == 1 && b.stride == 1) {
    for (std::size_t i = 0; i < n; ++i) out[i] = f(a.data[i], b.data[i]);
  } else if (b.stride == 0) {
    const std::uint64_t y = b.data[0];
    for (std::size_t i = 0; i < n; ++i) out[i] = f(a[i], y);
  } else {
    const std::uint64_t x = a.data[0];
    for (std::size_t i = 0; i < n; ++i) out[i] = f(x, b.data[i]);
  }
}

struct Interp {
  const Program& program;
  std::uint32_t threads;
  std::uint32_t width;
  std::uint32_t warps;

  // One buffer holds the registers and the per-thread scratch. Register
  // r holds count(level[r]) values at regs[r * threads, ...): a
  // block-uniform value in element 0, a warp-uniform one per warp, a
  // per-lane one per thread. The scratch is the `lane` operand
  // (t % width), one ALU result per element, two warp operands broadcast
  // per thread, then the `warp` operand (w).
  std::vector<std::uint64_t> words;
  std::uint64_t* regs = nullptr;
  std::uint64_t* lane_ids = nullptr;
  std::uint64_t* values = nullptr;
  std::uint64_t* spread_a = nullptr;
  std::uint64_t* spread_b = nullptr;
  std::uint64_t* warp_ids = nullptr;
  std::array<Level, kNumRegs> level{};
  // Device binding: dev[r] is the DMM machine-register slot holding r's
  // loaded value, or kNoSlot when the interpreter owns the register.
  // Uniform across threads by SPMD construction.
  std::array<int, kNumRegs> dev;
  std::array<bool, dmm::kRegistersPerThread> slot_used{};
  // A slot some emitted instruction wrote no longer holds the 0 that
  // Dmm::begin_run put there, so no accumulator may start from it.
  std::array<bool, dmm::kRegistersPerThread> slot_written{};

  // Cumulative lane-activity masks: level d (innermost = mask_depth - 1)
  // lists its active threads, ascending, at on[d * threads, ...), with
  // active[d] of them.
  std::vector<std::uint32_t> on;
  std::array<std::uint32_t, kMaxMaskDepth> active{};
  std::size_t mask_depth = 0;

  std::vector<std::pair<std::size_t, std::uint64_t>> loop_stack;  // (pc, i)

  // The kernel's sparse store, one instruction's active ops at a time.
  std::vector<std::size_t> ends;
  std::vector<std::uint32_t> op_threads;
  std::vector<dmm::ThreadOp> ops;
  std::vector<std::string> labels;

  LoweredProgram out;

  explicit Interp(const Program& p)
      : program(p),
        threads(p.num_threads),
        width(p.width),
        warps(p.num_warps()) {
    words.resize(std::size_t{threads} * (kNumRegs + 4) + warps);
    regs = words.data();
    lane_ids = regs + std::size_t{threads} * kNumRegs;
    values = lane_ids + threads;
    spread_a = values + threads;
    spread_b = spread_a + threads;
    warp_ids = spread_b + threads;
    for (std::uint32_t t = 0; t < threads; ++t) lane_ids[t] = t % width;
    for (std::uint32_t w = 0; w < warps; ++w) warp_ids[w] = w;
    level.fill(Level::kBlock);
    dev.fill(kNoSlot);
    out.width = width;
    out.rows = p.rows();
  }

  std::size_t count(Level l) const {
    return l == Level::kBlock ? 1 : l == Level::kWarp ? warps : threads;
  }

  std::uint64_t* reg(std::size_t r) { return regs + r * threads; }

  /// Threads active under the current mask.
  std::uint32_t active_threads() const {
    return mask_depth == 0 ? threads : active[mask_depth - 1];
  }

  /// The innermost mask's active threads when some thread is masked
  /// off, else nullptr (every thread is active).
  const std::uint32_t* partial_mask() const {
    if (active_threads() == threads) return nullptr;
    return on.data() + (mask_depth - 1) * threads;
  }

  /// The operand's values. Errors are uniform across threads, so they
  /// fire here: once per instruction, where the per-thread walk would
  /// have raised them at its first evaluated thread.
  Vec resolve(const Instr& instr, const Operand& operand) {
    switch (operand.kind) {
      case Operand::Kind::kReg: {
        const auto r = static_cast<std::size_t>(operand.value);
        if (dev[r] != kNoSlot) {
          fail(instr, "r" + std::to_string(r) +
                          " holds loaded data (device-valued); it may only "
                          "be stored, accumulated, cmpx'd or amo'd");
        }
        return {level[r], reg(r)};
      }
      case Operand::Kind::kImm: return {Level::kBlock, &operand.value};
      case Operand::Kind::kLane: return {Level::kLane, lane_ids};
      case Operand::Kind::kWarp: return {Level::kWarp, warp_ids};
      case Operand::Kind::kNone: break;
    }
    fail(instr, "missing operand");
  }

  /// `v` read at level `at` (never coarser than v's own): a warp value
  /// read per thread is broadcast into `spread`.
  View view(const Vec& v, Level at, std::uint64_t* spread) const {
    if (v.level == Level::kBlock) return {v.data, 0};
    if (v.level == at) return {v.data, 1};
    for (std::uint32_t w = 0; w < warps; ++w) {
      std::fill_n(spread + std::size_t{w} * width, width, v.data[w]);
    }
    return {spread, 1};
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

  /// Write `values` (at level l) to rd in every active thread. A write
  /// that skips some threads leaves their old values, so rd becomes
  /// per-lane.
  void write_active(const Instr& instr, Level l) {
    release(instr, instr.rd);
    std::uint64_t* rd = reg(instr.rd);
    const std::uint32_t* mask = partial_mask();
    if (mask == nullptr) {
      level[instr.rd] = l;
      std::copy_n(values, count(l), rd);
      return;
    }
    if (active_threads() == 0) return;
    if (level[instr.rd] == Level::kBlock) {
      std::fill_n(rd + 1, threads - 1, rd[0]);
    } else if (level[instr.rd] == Level::kWarp) {
      // Widen in place from the last warp down: warp w's run starts at
      // w * width >= w, past every warp value still to be read.
      for (std::uint32_t w = warps; w-- > 0;) {
        const std::uint64_t value = rd[w];
        std::fill_n(rd + std::size_t{w} * width, width, value);
      }
    }
    level[instr.rd] = Level::kLane;
    const View value = view({l, values}, Level::kLane, spread_a);
    for (std::uint32_t k = 0; k < active_threads(); ++k) {
      rd[mask[k]] = value[mask[k]];
    }
  }

  /// Loop counters are control state: written in every lane (masked or
  /// not), so a counter is block-uniform by construction.
  void set_all(const Instr& instr, std::uint8_t rd, std::uint64_t value) {
    release(instr, rd);
    level[rd] = Level::kBlock;
    reg(rd)[0] = value;
  }

  /// An ALU step: its operands are resolved, and a zero divisor in any
  /// thread (masked or not) is an error, before rd changes, so rd may also
  /// be a source. A per-lane result is computed only in active threads.
  void alu(const Instr& instr) {
    const Vec a = resolve(instr, instr.a);
    const Vec b = resolve(instr, instr.b);
    if (instr.op == Op::kDiv || instr.op == Op::kMod) {
      const std::uint64_t* end = b.data + count(b.level);
      if (std::find(b.data, end, std::uint64_t{0}) != end) {
        fail(instr, instr.op == Op::kDiv ? "division by zero"
                                         : "modulo by zero");
      }
    }
    const Level l = std::max(a.level, b.level);
    const std::uint32_t* at = l == Level::kLane ? partial_mask() : nullptr;
    const std::size_t n = at != nullptr ? active_threads() : count(l);
    out.alu_lane_evaluations += n;
    const View x = view(a, l, spread_a);
    const View y = view(b, l, spread_b);
    std::uint64_t* r = values;
    using U = std::uint64_t;
    switch (instr.op) {
      case Op::kAdd: apply(at, n, x, y, r, [](U p, U q) { return p + q; });
        break;
      case Op::kSub: apply(at, n, x, y, r, [](U p, U q) { return p - q; });
        break;
      case Op::kMul: apply(at, n, x, y, r, [](U p, U q) { return p * q; });
        break;
      case Op::kDiv: apply(at, n, x, y, r, [](U p, U q) { return p / q; });
        break;
      case Op::kMod: apply(at, n, x, y, r, [](U p, U q) { return p % q; });
        break;
      case Op::kAnd: apply(at, n, x, y, r, [](U p, U q) { return p & q; });
        break;
      case Op::kOr: apply(at, n, x, y, r, [](U p, U q) { return p | q; });
        break;
      case Op::kXor: apply(at, n, x, y, r, [](U p, U q) { return p ^ q; });
        break;
      case Op::kShl:
        apply(at, n, x, y, r, [](U p, U q) { return q >= 64 ? 0 : p << q; });
        break;
      case Op::kShr:
        apply(at, n, x, y, r, [](U p, U q) { return q >= 64 ? 0 : p >> q; });
        break;
      case Op::kMin:
        apply(at, n, x, y, r, [](U p, U q) { return p < q ? p : q; });
        break;
      case Op::kMax:
        apply(at, n, x, y, r, [](U p, U q) { return p > q ? p : q; });
        break;
      case Op::kSlt:
        apply(at, n, x, y, r, [](U p, U q) -> U { return p < q ? 1 : 0; });
        break;
      case Op::kSeq:
        apply(at, n, x, y, r, [](U p, U q) -> U { return p == q ? 1 : 0; });
        break;
      default: fail(instr, "not an ALU op");
    }
    write_active(instr, l);
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

  /// Thread t's address, which must lie inside memory.
  std::uint64_t checked(const Instr& instr, View addrs, std::uint32_t t) const {
    const std::uint64_t addr = addrs[t];
    if (addr >= program.memory_words) {
      fail(instr, "thread " + std::to_string(t) + " address " +
                      std::to_string(addr) + " out of bounds (memory " +
                      std::to_string(program.memory_words) + " words)");
    }
    return addr;
  }

  /// The address operand per thread, resolved only when some thread is
  /// active (the per-thread walk evaluates addresses in active threads).
  View addresses(const Instr& instr) {
    return view(resolve(instr, instr.a), Level::kLane, spread_a);
  }

  std::uint32_t first_active() const {
    const std::uint32_t* mask = partial_mask();
    return mask == nullptr ? 0 : mask[0];
  }

  /// Emit one SIMD instruction holding make_op(t) for every active
  /// thread t in ascending order, or none when no thread is active;
  /// returns its first op's index.
  template <class MakeOp>
  std::size_t emit(const Instr& instr, bool memory_op, MakeOp&& make_op) {
    const std::size_t first = ops.size();
    if (active_threads() == 0) return first;
    if (const std::uint32_t* mask = partial_mask()) {
      for (std::uint32_t k = 0; k < active_threads(); ++k) {
        op_threads.push_back(mask[k]);
        ops.push_back(make_op(mask[k]));
      }
    } else {
      for (std::uint32_t t = 0; t < threads; ++t) {
        op_threads.push_back(t);
        ops.push_back(make_op(t));
      }
    }
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
    std::size_t first = ops.size();
    if (active_threads() != 0) {
      const View addrs = addresses(instr);
      first = emit(instr, true, [&](std::uint32_t t) {
        return dmm::ThreadOp{checked(instr, addrs, t), 0, kind, 0, factor};
      });
    }
    // Bound after the addresses, so an address error is reported first.
    const std::uint8_t slot = bind(instr);
    for (std::size_t k = first; k < ops.size(); ++k) ops[k].reg = slot;
    slot_written[slot] = true;
  }

  /// st: per active thread, the address is checked before the value is
  /// read, so the first active thread's address error precedes a missing
  /// value operand.
  void store(const Instr& instr) {
    const bool device_value =
        instr.b.kind == Operand::Kind::kReg &&
        dev[static_cast<std::size_t>(instr.b.value)] != kNoSlot;
    if (active_threads() == 0) return;
    const View addrs = addresses(instr);
    if (device_value) {
      const auto slot = static_cast<std::uint8_t>(
          dev[static_cast<std::size_t>(instr.b.value)]);
      (void)emit(instr, true, [&](std::uint32_t t) {
        return dmm::ThreadOp::store(checked(instr, addrs, t), slot);
      });
      return;
    }
    (void)checked(instr, addrs, first_active());
    const View data = view(resolve(instr, instr.b), Level::kLane, spread_b);
    (void)emit(instr, true, [&](std::uint32_t t) {
      return dmm::ThreadOp::store_imm(checked(instr, addrs, t), data[t]);
    });
  }

  /// mask: push the current activity AND a != 0. The predicate is read
  /// only in active threads, so it is resolved only when one exists.
  void push_mask(const Instr& instr) {
    if (mask_depth >= kMaxMaskDepth) {
      fail(instr, "mask nesting exceeds " + std::to_string(kMaxMaskDepth));
    }
    on.resize(std::max(on.size(), (mask_depth + 1) * threads));
    std::uint32_t* next = on.data() + mask_depth * threads;
    std::uint32_t kept = 0;
    if (active_threads() != 0) {
      const View pred =
          view(resolve(instr, instr.a), Level::kLane, spread_a);
      if (const std::uint32_t* mask = partial_mask()) {
        for (std::uint32_t k = 0; k < active_threads(); ++k) {
          next[kept] = mask[k];
          kept += pred[mask[k]] != 0 ? 1 : 0;
        }
      } else {
        for (std::uint32_t t = 0; t < threads; ++t) {
          next[kept] = t;
          kept += pred[t] != 0 ? 1 : 0;
        }
      }
    }
    active[mask_depth] = kept;
    ++mask_depth;
  }

  /// bz/bnz: the predicate is read in every thread (masked or not) and
  /// must agree; a block-uniform one agrees by construction.
  bool branch_taken(const Instr& instr) {
    const Vec pred = resolve(instr, instr.a);
    const std::uint64_t first = pred.data[0];
    const std::uint64_t* end = pred.data + count(pred.level);
    if (std::find_if(pred.data + 1, end, [first](std::uint64_t v) {
          return v != first;
        }) != end) {
      fail(instr, "divergent branch: the predicate must be uniform "
                  "across all threads");
    }
    return instr.op == Op::kBz ? first == 0 : first != 0;
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
          values[0] = instr.imm;
          ++out.alu_lane_evaluations;
          write_active(instr, Level::kBlock);
          break;
        case Op::kMov: {
          const Vec a = resolve(instr, instr.a);
          std::copy_n(a.data, count(a.level), values);
          out.alu_lane_evaluations += count(a.level);
          write_active(instr, a.level);
          break;
        }
        case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv:
        case Op::kMod: case Op::kAnd: case Op::kOr: case Op::kXor:
        case Op::kShl: case Op::kShr: case Op::kMin: case Op::kMax:
        case Op::kSlt: case Op::kSeq:
          alu(instr);
          break;
        case Op::kLd:
        case Op::kLdAdd:
        case Op::kLdMac:
          load(instr);
          break;
        case Op::kSt:
          store(instr);
          break;
        case Op::kAmo: {
          if (instr.b.kind != Operand::Kind::kReg) {
            fail(instr, "amo value must be a device-valued register");
          }
          const std::uint8_t slot =
              device_slot(instr, static_cast<std::uint8_t>(instr.b.value));
          if (active_threads() == 0) break;
          const View addrs = addresses(instr);
          (void)emit(instr, true, [&](std::uint32_t t) {
            return dmm::ThreadOp::atomic_add(checked(instr, addrs, t), slot);
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
        case Op::kMask:
          push_mask(instr);
          break;
        case Op::kUnmask:
          if (mask_depth == 0) fail(instr, "unmask without a mask");
          --mask_depth;
          break;
        case Op::kBz:
        case Op::kBnz:
          if (branch_taken(instr)) {
            pc = static_cast<std::size_t>(instr.imm);
            continue;  // do not ++pc
          }
          break;
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
  LoweredProgram out = std::move(interp.out);
  out.kernel = dmm::Kernel::from_sparse(
      program.num_threads, std::move(interp.ends),
      std::move(interp.op_threads), std::move(interp.ops));
  out.kernel.labels = std::move(interp.labels);
  return out;
}

}  // namespace rapsim::vm
