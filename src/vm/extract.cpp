#include "vm/extract.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rapsim::vm {
namespace {

constexpr std::size_t kMaxSites = 2048;
constexpr std::size_t kMaxVars = 1024;
constexpr std::uint64_t kMaxSteps = 1u << 20;

[[noreturn]] void fail(const Instr& instr, const std::string& message) {
  throw std::invalid_argument("line " + std::to_string(instr.line) + ": " +
                              message);
}

// ------------------------------------------------------ expression trees

struct Node;
using NodeRef = std::shared_ptr<const Node>;

struct Node {
  enum class K { kConst, kLane, kWarp, kVar, kOp, kDevice };
  K k = K::kConst;
  std::uint64_t cval = 0;  // kConst
  std::size_t var = 0;     // kVar: kernel variable index
  Op op = Op::kAdd;        // kOp
  NodeRef a, b;
};

NodeRef make_const(std::uint64_t value) {
  auto node = std::make_shared<Node>();
  node->k = Node::K::kConst;
  node->cval = value;
  return node;
}

NodeRef make_leaf(Node::K kind) {
  auto node = std::make_shared<Node>();
  node->k = kind;
  return node;
}

NodeRef make_var(std::size_t index) {
  auto node = std::make_shared<Node>();
  node->k = Node::K::kVar;
  node->var = index;
  return node;
}

std::uint64_t eval_op(Op op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kMul: return a * b;
    case Op::kDiv: return b == 0 ? 0 : a / b;
    case Op::kMod: return b == 0 ? 0 : a % b;
    case Op::kAnd: return a & b;
    case Op::kOr: return a | b;
    case Op::kXor: return a ^ b;
    case Op::kShl: return b >= 64 ? 0 : a << b;
    case Op::kShr: return b >= 64 ? 0 : a >> b;
    case Op::kMin: return a < b ? a : b;
    case Op::kMax: return a > b ? a : b;
    case Op::kSlt: return a < b ? 1 : 0;
    case Op::kSeq: return a == b ? 1 : 0;
    default: return 0;
  }
}

NodeRef make_op(Op op, NodeRef a, NodeRef b) {
  // Constant folding keeps trees (and opaque callbacks) small.
  if (a->k == Node::K::kConst && b->k == Node::K::kConst &&
      !((op == Op::kDiv || op == Op::kMod) && b->cval == 0)) {
    return make_const(eval_op(op, a->cval, b->cval));
  }
  auto node = std::make_shared<Node>();
  node->k = Node::K::kOp;
  node->op = op;
  node->a = std::move(a);
  node->b = std::move(b);
  return node;
}

bool contains(const NodeRef& node, Node::K kind) {
  if (node->k == kind) return true;
  if (node->k != Node::K::kOp) return false;
  return contains(node->a, kind) || contains(node->b, kind);
}

/// Replace every leaf of `kind` with `replacement` (memoized — trees are
/// DAGs through shared registers).
NodeRef substitute(const NodeRef& node, Node::K kind,
                   const NodeRef& replacement,
                   std::map<const Node*, NodeRef>& memo) {
  if (node->k == kind) return replacement;
  if (node->k != Node::K::kOp) return node;
  if (const auto found = memo.find(node.get()); found != memo.end()) {
    return found->second;
  }
  NodeRef result = make_op(node->op,
                           substitute(node->a, kind, replacement, memo),
                           substitute(node->b, kind, replacement, memo));
  memo.emplace(node.get(), result);
  return result;
}

NodeRef substitute(const NodeRef& node, Node::K kind,
                   const NodeRef& replacement) {
  std::map<const Node*, NodeRef> memo;
  return substitute(node, kind, replacement, memo);
}

/// Replace loop variable `var` with a constant (loop-exit values).
NodeRef substitute_var(const NodeRef& node, std::size_t var,
                       std::uint64_t value,
                       std::map<const Node*, NodeRef>& memo) {
  if (node->k == Node::K::kVar && node->var == var) {
    return make_const(value);
  }
  if (node->k != Node::K::kOp) return node;
  if (const auto found = memo.find(node.get()); found != memo.end()) {
    return found->second;
  }
  NodeRef result =
      make_op(node->op, substitute_var(node->a, var, value, memo),
              substitute_var(node->b, var, value, memo));
  memo.emplace(node.get(), result);
  return result;
}

/// An opaque address tree compiled once into a flat step list (the DAG
/// in dependency order, shared subtrees once) and evaluated a warp at a
/// time: each step is dispatched once per call, over one value when it
/// does not depend on the lane and over the whole lane vector when it
/// does. This is the site's OpaqueIndexFn.
class WarpIndex {
 public:
  explicit WarpIndex(const NodeRef& root) {
    std::map<const Node*, std::uint32_t> index;
    (void)compile(root, index);
  }

  void operator()(std::span<const std::uint64_t> binding,
                  std::span<std::uint64_t> addrs) const {
    const std::size_t n = addrs.size();
    // Step i's value: one word when uniform, n words when per-lane.
    thread_local std::vector<std::uint64_t> values;
    values.resize(lane_words_ * n + steps_.size());
    std::uint64_t* uniform = values.data() + lane_words_ * n;
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      const Step& step = steps_[i];
      std::uint64_t* out = step.lane ? values.data() + step.slot * n : nullptr;
      switch (step.kind) {
        case Node::K::kConst:
          uniform[i] = step.value;
          break;
        case Node::K::kVar:
          uniform[i] = step.value < binding.size() ? binding[step.value] : 0;
          break;
        case Node::K::kLane:
          for (std::size_t t = 0; t < n; ++t) out[t] = t;
          break;
        case Node::K::kOp: {
          const Step& a = steps_[step.a];
          const Step& b = steps_[step.b];
          if (!step.lane) {
            uniform[i] = eval_op(step.op, uniform[step.a], uniform[step.b]);
            break;
          }
          // Read a uniform operand at stride 0.
          const std::uint64_t* x =
              a.lane ? values.data() + a.slot * n : uniform + step.a;
          const std::uint64_t* y =
              b.lane ? values.data() + b.slot * n : uniform + step.b;
          const std::size_t sx = a.lane ? 1 : 0;
          const std::size_t sy = b.lane ? 1 : 0;
          apply(step.op, n, x, sx, y, sy, out);
          break;
        }
        case Node::K::kWarp:
        case Node::K::kDevice:
          uniform[i] = 0;  // substituted / rejected before compiling
          break;
      }
    }
    const Step& root = steps_.back();
    if (root.lane) {
      std::copy_n(values.data() + root.slot * n, n, addrs.data());
    } else {
      std::fill(addrs.begin(), addrs.end(), uniform[steps_.size() - 1]);
    }
  }

 private:
  struct Step {
    Node::K kind = Node::K::kConst;
    Op op = Op::kAdd;
    bool lane = false;        // the value depends on the lane
    std::uint32_t slot = 0;   // lane-vector slot when `lane`
    std::uint32_t a = 0, b = 0;  // operand steps (kOp)
    std::uint64_t value = 0;  // constant, or variable index (kVar)
  };

  std::uint32_t compile(const NodeRef& node,
                        std::map<const Node*, std::uint32_t>& index) {
    if (const auto found = index.find(node.get()); found != index.end()) {
      return found->second;
    }
    Step step;
    step.kind = node->k;
    switch (node->k) {
      case Node::K::kConst: step.value = node->cval; break;
      case Node::K::kVar: step.value = node->var; break;
      case Node::K::kLane: step.lane = true; break;
      case Node::K::kOp:
        step.op = node->op;
        step.a = compile(node->a, index);
        step.b = compile(node->b, index);
        step.lane = steps_[step.a].lane || steps_[step.b].lane;
        break;
      case Node::K::kWarp:
      case Node::K::kDevice:
        break;
    }
    if (step.lane) step.slot = static_cast<std::uint32_t>(lane_words_++);
    steps_.push_back(step);
    const auto id = static_cast<std::uint32_t>(steps_.size() - 1);
    index.emplace(node.get(), id);
    return id;
  }

  /// out[t] = op(x[t * sx], y[t * sy]) for t < n: eval_op with a constant
  /// op, so the opcode switch folds away inside the loop.
  template <Op kOp>
  static void each(std::size_t n, const std::uint64_t* x, std::size_t sx,
                   const std::uint64_t* y, std::size_t sy,
                   std::uint64_t* out) {
    for (std::size_t t = 0; t < n; ++t) {
      out[t] = eval_op(kOp, x[t * sx], y[t * sy]);
    }
  }

  /// One dispatch per call, on the step's opcode.
  static void apply(Op op, std::size_t n, const std::uint64_t* x,
                    std::size_t sx, const std::uint64_t* y, std::size_t sy,
                    std::uint64_t* out) {
    switch (op) {
      case Op::kAdd: return each<Op::kAdd>(n, x, sx, y, sy, out);
      case Op::kSub: return each<Op::kSub>(n, x, sx, y, sy, out);
      case Op::kMul: return each<Op::kMul>(n, x, sx, y, sy, out);
      case Op::kDiv: return each<Op::kDiv>(n, x, sx, y, sy, out);
      case Op::kMod: return each<Op::kMod>(n, x, sx, y, sy, out);
      case Op::kAnd: return each<Op::kAnd>(n, x, sx, y, sy, out);
      case Op::kOr: return each<Op::kOr>(n, x, sx, y, sy, out);
      case Op::kXor: return each<Op::kXor>(n, x, sx, y, sy, out);
      case Op::kShl: return each<Op::kShl>(n, x, sx, y, sy, out);
      case Op::kShr: return each<Op::kShr>(n, x, sx, y, sy, out);
      case Op::kMin: return each<Op::kMin>(n, x, sx, y, sy, out);
      case Op::kMax: return each<Op::kMax>(n, x, sx, y, sy, out);
      case Op::kSlt: return each<Op::kSlt>(n, x, sx, y, sy, out);
      case Op::kSeq: return each<Op::kSeq>(n, x, sx, y, sy, out);
      default: std::fill_n(out, n, std::uint64_t{0});  // as eval_op
    }
  }

  std::vector<Step> steps_;
  std::size_t lane_words_ = 0;  // lane-vector slots
};

// ------------------------------------------------- affine normalization

/// c0 + c_lane*lane + sum c_v*v, plus any `scale * (inner mod modulus)`
/// terms: the modulus is a power of two, so the u64 residue the executor
/// computes is the integer residue even where `inner` (itself mod-free)
/// wraps below zero.
struct Sum {
  struct Mod;
  std::int64_t base = 0;
  std::int64_t lane = 0;
  std::map<std::size_t, std::int64_t> coeffs;
  std::vector<Mod> mods;

  [[nodiscard]] bool is_const() const {
    return lane == 0 && coeffs.empty() && mods.empty();
  }
};

struct Sum::Mod {
  std::int64_t scale = 0;
  Sum inner;
  std::uint64_t modulus = 0;
};

/// into += sign * term.
void accumulate(Sum& into, const Sum& term, std::int64_t sign) {
  into.base += sign * term.base;
  into.lane += sign * term.lane;
  for (const auto& [var, coeff] : term.coeffs) {
    if ((into.coeffs[var] += sign * coeff) == 0) into.coeffs.erase(var);
  }
  for (Sum::Mod mod : term.mods) {
    mod.scale *= sign;
    if (mod.scale != 0) into.mods.push_back(std::move(mod));
  }
}

Sum scaled(const Sum& expr, std::int64_t factor) {
  Sum result;
  accumulate(result, expr, factor);
  return result;
}

std::optional<Sum> to_sum(const NodeRef& node) {
  Sum result;
  switch (node->k) {
    case Node::K::kConst:
      result.base = static_cast<std::int64_t>(node->cval);
      return result;
    case Node::K::kLane:
      result.lane = 1;
      return result;
    case Node::K::kVar:
      result.coeffs[node->var] = 1;
      return result;
    case Node::K::kWarp:
    case Node::K::kDevice:
      return std::nullopt;
    case Node::K::kOp: break;
  }
  const auto lhs = to_sum(node->a);
  const auto rhs = lhs ? to_sum(node->b) : std::nullopt;
  if (!rhs) return std::nullopt;
  switch (node->op) {
    case Op::kAdd:
    case Op::kSub:
      result = *lhs;
      accumulate(result, *rhs, node->op == Op::kAdd ? 1 : -1);
      return result;
    case Op::kShl:
      if (!rhs->is_const() || rhs->base < 0 || rhs->base > 32) break;
      return scaled(*lhs, std::int64_t{1} << rhs->base);
    case Op::kMul:
      if (rhs->is_const()) return scaled(*lhs, rhs->base);
      if (lhs->is_const()) return scaled(*rhs, lhs->base);
      break;
    case Op::kMod: {
      const auto modulus = static_cast<std::uint64_t>(rhs->base);
      if (!rhs->is_const() || rhs->base <= 0 ||
          (modulus & (modulus - 1)) != 0 || !lhs->mods.empty()) {
        break;
      }
      result.mods.push_back({1, *lhs, modulus});
      return result;
    }
    default: break;
  }
  return std::nullopt;
}

analyze::AffineExpr to_expr(const Sum& sum) {
  analyze::AffineExpr expr;
  expr.base = sum.base;
  expr.lane_coeff = sum.lane;
  if (!sum.coeffs.empty()) {
    expr.coeffs.assign(sum.coeffs.rbegin()->first + 1, 0);
    for (const auto& [var, coeff] : sum.coeffs) expr.coeffs[var] = coeff;
  }
  return expr;
}

/// Describe `sum` in the kRowCol form (row_base + (row mod row_mod)) * w
/// + (col mod w) when its mod terms are a column `(c) mod w` and/or a row
/// `w * ((r) mod m)`, as the diagonal transpose's (warp + lane) mod w
/// indices are. The affine rest must add whole rows under a column term
/// and a constant row under a row term; otherwise its part below w
/// becomes the column, which must stay in [0, w) for every lane <
/// `lanes` and binding. Returns false (the site stays opaque) for any
/// other shape.
bool to_rowcol(const Sum& sum, std::uint32_t width, std::uint32_t lanes,
               const std::vector<analyze::LoopVar>& vars,
               analyze::AccessSite& site) {
  const auto w = static_cast<std::int64_t>(width);
  const Sum::Mod* col = nullptr;
  const Sum::Mod* row = nullptr;
  for (const Sum::Mod& term : sum.mods) {
    if (term.scale == 1 && term.modulus == width && col == nullptr) {
      col = &term;
    } else if (term.scale == w && row == nullptr) {
      row = &term;
    } else {
      return false;
    }
  }
  // The affine rest = w * rest_row + rest_col, every rest_col coefficient
  // in [0, w); col_max is rest_col's largest value.
  Sum rest_row;
  Sum rest_col;
  const auto floor_div = [w](std::int64_t value) {
    return value / w - (value % w < 0 ? 1 : 0);
  };
  rest_row.base = floor_div(sum.base);
  rest_col.base = sum.base - rest_row.base * w;
  rest_row.lane = floor_div(sum.lane);
  rest_col.lane = sum.lane - rest_row.lane * w;
  std::int64_t col_max =
      rest_col.base + rest_col.lane * (static_cast<std::int64_t>(lanes) - 1);
  for (const auto& [var, coeff] : sum.coeffs) {
    const std::int64_t high = floor_div(coeff);
    const std::int64_t low = coeff - high * w;
    if (high != 0) rest_row.coeffs[var] = high;
    if (low != 0) rest_col.coeffs[var] = low;
    col_max += low * (static_cast<std::int64_t>(vars[var].count) - 1);
  }
  if (col != nullptr ? col_max != 0 : col_max >= w) return false;
  if (row != nullptr && (rest_row.lane != 0 || !rest_row.coeffs.empty())) {
    return false;
  }
  site.form = analyze::IndexForm::kRowCol;
  site.col = to_expr(col != nullptr ? col->inner : rest_col);
  if (row != nullptr) {
    site.row = to_expr(row->inner);
    site.row_mod = row->modulus;
    site.row_base = rest_row.base;
  } else {
    site.row = to_expr(rest_row);
  }
  return true;
}

// ------------------------------------------------------------ extractor

struct MaskEntry {
  enum class Kind {
    kNoop,       // constant-true predicate
    kAllOff,     // constant-false predicate: sites inside never execute
    kLanePrefix,  // lane < K
    kWarpPrefix,  // warp < K (fresh kernel variable `var` stands in)
    kWarpGuard,   // v == warp for a bare loop variable v
    kWarpExpr,    // expr == warp: sound but unattributable
  };
  Kind kind = Kind::kNoop;
  std::uint32_t lanes = 0;   // kLanePrefix
  std::size_t var = 0;       // kWarpPrefix / kWarpGuard
  NodeRef expr;              // kWarpExpr
  int id = 0;                // context identity for register reads
};

struct RegVal {
  NodeRef node;
  bool device = false;
  std::vector<int> ctx;  // mask ids at the time of the write
};

struct LoopFrame {
  std::set<int> written;
  std::set<int> read_before_write;
};

struct Extractor {
  const Program& program;
  analyze::KernelDesc kernel;
  bool complete = true;
  std::vector<std::string> notes;

  std::array<RegVal, kNumRegs> regs;
  std::vector<MaskEntry> masks;
  std::vector<LoopFrame> frames;
  std::map<std::string, int> site_names;
  std::size_t warp_var = SIZE_MAX;
  int var_seq = 0;
  int prefix_seq = 0;
  int mask_seq = 0;
  std::uint64_t steps = 0;
  bool halted = false;

  explicit Extractor(const Program& p) : program(p) {
    kernel.name = p.name;
    kernel.width = p.width;
    kernel.rows = p.rows();
    for (RegVal& reg : regs) reg.node = make_const(0);
  }

  std::vector<int> context() const {
    std::vector<int> ids;
    ids.reserve(masks.size());
    for (const MaskEntry& mask : masks) ids.push_back(mask.id);
    return ids;
  }

  bool context_is_prefix(const std::vector<int>& ctx) const {
    if (ctx.size() > masks.size()) return false;
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      if (masks[i].id != ctx[i]) return false;
    }
    return true;
  }

  std::size_t add_kernel_var(const Instr& instr, std::string name,
                             std::uint64_t count) {
    if (kernel.vars.size() >= kMaxVars) {
      fail(instr, "kernel exceeds " + std::to_string(kMaxVars) +
                      " loop variables");
    }
    kernel.vars.push_back({std::move(name), count});
    return kernel.vars.size() - 1;
  }

  std::size_t ensure_warp_var(const Instr& instr) {
    if (warp_var == SIZE_MAX) {
      warp_var = add_kernel_var(instr, "warp", program.num_warps());
    }
    return warp_var;
  }

  void note_read(int reg) {
    for (LoopFrame& frame : frames) {
      if (!frame.written.count(reg)) frame.read_before_write.insert(reg);
    }
  }

  void note_write(int reg) {
    for (LoopFrame& frame : frames) frame.written.insert(reg);
  }

  NodeRef value(const Instr& instr, const Operand& operand,
                bool allow_device = false) {
    switch (operand.kind) {
      case Operand::Kind::kReg: {
        const auto r = static_cast<std::size_t>(operand.value);
        note_read(static_cast<int>(r));
        const RegVal& reg = regs[r];
        if (reg.device) {
          if (!allow_device) {
            fail(instr, "r" + std::to_string(r) +
                            " holds loaded data (device-valued); it may "
                            "only be stored, accumulated, cmpx'd or "
                            "amo'd");
          }
          return reg.node;
        }
        if (!context_is_prefix(reg.ctx)) {
          fail(instr, "r" + std::to_string(r) +
                          " was written under a different mask; its value "
                          "is not defined for every active lane here");
        }
        return reg.node;
      }
      case Operand::Kind::kImm: return make_const(operand.value);
      case Operand::Kind::kLane: return make_leaf(Node::K::kLane);
      case Operand::Kind::kWarp: return make_leaf(Node::K::kWarp);
      case Operand::Kind::kNone: break;
    }
    fail(instr, "missing operand");
  }

  void write_reg(const Instr& instr, std::uint8_t rd, NodeRef node,
                 bool device = false) {
    // Mirrors exec: `ld` may re-bind a device register under a mask
    // (slot reuse); interpreter-valued overwrites may not.
    if (regs[rd].device && !device && !masks.empty()) {
      fail(instr, "cannot overwrite device-valued r" + std::to_string(rd) +
                      " under a mask");
    }
    regs[rd].node = std::move(node);
    regs[rd].device = device;
    regs[rd].ctx = context();
    note_write(rd);
  }

  // --------------------------------------------------------- mask logic

  MaskEntry classify_mask(const Instr& instr, const NodeRef& node) {
    MaskEntry entry;
    entry.id = ++mask_seq;
    if (node->k == Node::K::kConst) {
      entry.kind = node->cval ? MaskEntry::Kind::kNoop
                              : MaskEntry::Kind::kAllOff;
      return entry;
    }
    if (node->k != Node::K::kOp) {
      fail(instr, "mask predicate not recognized (use lane < K, warp < K, "
                  "or v == warp)");
    }
    if (node->op == Op::kSlt && node->b->k == Node::K::kConst) {
      const std::uint64_t bound = node->b->cval;
      if (node->a->k == Node::K::kLane) {
        if (bound == 0) {
          entry.kind = MaskEntry::Kind::kAllOff;
        } else {
          entry.kind = MaskEntry::Kind::kLanePrefix;
          entry.lanes = static_cast<std::uint32_t>(
              bound >= program.width ? program.width : bound);
        }
        return entry;
      }
      if (node->a->k == Node::K::kWarp) {
        if (bound == 0) {
          entry.kind = MaskEntry::Kind::kAllOff;
          return entry;
        }
        require_no_warp_mask(instr);
        const std::uint64_t warps = program.num_warps();
        entry.kind = MaskEntry::Kind::kWarpPrefix;
        entry.var = add_kernel_var(
            instr, "q" + std::to_string(prefix_seq++),
            bound >= warps ? warps : bound);
        return entry;
      }
    }
    if (node->op == Op::kSeq) {
      NodeRef other;
      if (node->a->k == Node::K::kWarp) other = node->b;
      if (node->b->k == Node::K::kWarp) other = node->a;
      if (other) {
        if (contains(other, Node::K::kWarp) ||
            contains(other, Node::K::kDevice)) {
          fail(instr, "mask predicate compares warp against an expression "
                      "that itself uses warp or loaded data");
        }
        require_no_warp_mask(instr);
        if (other->k == Node::K::kVar) {
          entry.kind = MaskEntry::Kind::kWarpGuard;
          entry.var = other->var;
        } else {
          entry.kind = MaskEntry::Kind::kWarpExpr;
          entry.expr = other;
        }
        return entry;
      }
    }
    fail(instr, "mask predicate not recognized (use lane < K, warp < K, "
                "or v == warp)");
  }

  void require_no_warp_mask(const Instr& instr) {
    for (const MaskEntry& mask : masks) {
      if (mask.kind == MaskEntry::Kind::kWarpPrefix ||
          mask.kind == MaskEntry::Kind::kWarpGuard ||
          mask.kind == MaskEntry::Kind::kWarpExpr) {
        fail(instr, "nested warp-selecting masks are not extractable");
      }
    }
  }

  bool all_off() const {
    for (const MaskEntry& mask : masks) {
      if (mask.kind == MaskEntry::Kind::kAllOff) return true;
    }
    return false;
  }

  std::uint32_t active_lanes() const {
    std::uint32_t lanes = program.width;
    for (const MaskEntry& mask : masks) {
      if (mask.kind == MaskEntry::Kind::kLanePrefix && mask.lanes < lanes) {
        lanes = mask.lanes;
      }
    }
    return lanes == program.width ? 0 : lanes;  // 0 = full width
  }

  const MaskEntry* warp_mask() const {
    for (const MaskEntry& mask : masks) {
      if (mask.kind == MaskEntry::Kind::kWarpPrefix ||
          mask.kind == MaskEntry::Kind::kWarpGuard ||
          mask.kind == MaskEntry::Kind::kWarpExpr) {
        return &mask;
      }
    }
    return nullptr;
  }

  // --------------------------------------------------------- site logic

  void emit_site(const Instr& instr, const NodeRef& raw_address,
                 analyze::AccessDir dir) {
    if (all_off()) return;
    if (kernel.sites.size() >= kMaxSites) {
      fail(instr, "kernel exceeds " + std::to_string(kMaxSites) +
                      " access sites");
    }
    if (contains(raw_address, Node::K::kDevice)) {
      fail(instr, "address depends on loaded data");
    }

    // Resolve which warps execute this site, and what the `warp` leaf
    // means inside the address.
    const MaskEntry* warp_entry = warp_mask();
    NodeRef warp_value;
    std::string warp_name;
    if (warp_entry == nullptr) {
      if (program.num_warps() > 1) {
        const std::size_t index = ensure_warp_var(instr);
        warp_value = make_var(index);
        warp_name = kernel.vars[index].name;
      } else {
        warp_value = make_const(0);
      }
    } else if (warp_entry->kind == MaskEntry::Kind::kWarpPrefix) {
      warp_value = make_var(warp_entry->var);
      warp_name = kernel.vars[warp_entry->var].name;
    } else if (warp_entry->kind == MaskEntry::Kind::kWarpGuard) {
      warp_value = make_var(warp_entry->var);
      warp_name = kernel.vars[warp_entry->var].name;
    } else {  // kWarpExpr: congestion-sound, executor unattributable
      warp_value = warp_entry->expr;
    }
    const NodeRef address =
        substitute(raw_address, Node::K::kWarp, warp_value);

    analyze::AccessSite site;
    site.dir = dir;
    site.lanes = active_lanes();
    site.warp = warp_name;
    {
      std::string base = instr.site.empty()
                             ? std::string(op_name(instr.op)) + "@" +
                                   std::to_string(instr.line)
                             : instr.site;
      const int occurrence = site_names[base]++;
      site.name = occurrence == 0
                      ? std::move(base)
                      : base + "#" + std::to_string(occurrence);
    }

    const std::optional<Sum> sum = to_sum(address);
    if (sum && sum->mods.empty()) {
      site.form = analyze::IndexForm::kFlat;
      site.flat = to_expr(*sum);
    } else if (!sum ||
               !to_rowcol(*sum, program.width,
                          site.lanes == 0 ? program.width : site.lanes,
                          kernel.vars, site)) {
      site.form = analyze::IndexForm::kOpaque;
      site.opaque = WarpIndex(address);
    }
    if (warp_entry != nullptr &&
        warp_entry->kind == MaskEntry::Kind::kWarpExpr && complete) {
      complete = false;
      notes.push_back("site '" + site.name +
                      "': executing warp is an expression; race analysis "
                      "is not applicable");
    }
    kernel.sites.push_back(std::move(site));
  }

  // ---------------------------------------------------------- execution

  bool range_has_barrier(std::size_t begin, std::size_t end) const {
    for (std::size_t pc = begin; pc < end; ++pc) {
      if (program.instrs[pc].op == Op::kBar) return true;
    }
    return false;
  }

  struct Snapshot {
    std::array<RegVal, kNumRegs> regs;
    std::vector<analyze::LoopVar> vars;
    std::size_t num_sites;
    bool complete;
    std::size_t num_notes;
    std::map<std::string, int> site_names;
    std::vector<LoopFrame> frames;
    std::size_t warp_var;
    int var_seq, prefix_seq;
  };

  Snapshot snapshot() const {
    return {regs,       kernel.vars, kernel.sites.size(), complete,
            notes.size(), site_names, frames,             warp_var,
            var_seq,    prefix_seq};
  }

  void restore(const Snapshot& snap) {
    regs = snap.regs;
    kernel.vars = snap.vars;
    kernel.sites.resize(snap.num_sites);
    complete = snap.complete;
    notes.resize(snap.num_notes);
    site_names = snap.site_names;
    frames = snap.frames;
    warp_var = snap.warp_var;
    var_seq = snap.var_seq;
    prefix_seq = snap.prefix_seq;
  }

  void run_loop(const Instr& header, std::size_t body_begin,
                std::size_t body_end) {
    const std::uint64_t trip = header.imm;
    if (trip == 0) return;
    const bool must_unroll = range_has_barrier(body_begin, body_end);

    if (!must_unroll) {
      // Symbolic attempt: one pass with the counter bound to a fresh
      // loop variable. Valid unless the body reads a register it also
      // writes (a recurrence) or halts.
      const Snapshot snap = snapshot();
      const std::size_t var =
          add_kernel_var(header, "i" + std::to_string(var_seq++), trip);
      write_reg(header, header.rd, make_var(var));
      frames.push_back({});
      frames.back().written.insert(header.rd);
      const std::size_t mask_depth = masks.size();
      exec_range(body_begin, body_end);
      if (masks.size() != mask_depth) {
        fail(header, "mask/unmask must balance within a loop body");
      }
      LoopFrame frame = std::move(frames.back());
      frames.pop_back();
      bool recurrence = halted;
      for (const int reg : frame.read_before_write) {
        if (reg != header.rd && frame.written.count(reg)) {
          recurrence = true;
          break;
        }
      }
      if (!recurrence) {
        // Loop-exit state: every register the body wrote holds its
        // last-iteration value.
        for (const int reg : frame.written) {
          std::map<const Node*, NodeRef> memo;
          regs[static_cast<std::size_t>(reg)].node = substitute_var(
              regs[static_cast<std::size_t>(reg)].node, var, trip - 1, memo);
        }
        // Propagate the body's footprint to enclosing frames.
        for (const int reg : frame.read_before_write) note_read(reg);
        for (const int reg : frame.written) note_write(reg);
        return;
      }
      restore(snap);
      halted = false;
    }

    // Unrolled execution: one pass per iteration with a constant counter.
    for (std::uint64_t i = 0; i < trip; ++i) {
      write_reg(header, header.rd, make_const(i));
      exec_range(body_begin, body_end);
      if (halted) return;
    }
  }

  void exec_range(std::size_t begin, std::size_t end) {
    std::size_t pc = begin;
    while (pc < end && !halted) {
      if (++steps > kMaxSteps) {
        throw std::invalid_argument(
            "program exceeds the extraction step budget (" +
            std::to_string(kMaxSteps) + ")");
      }
      const Instr& instr = program.instrs[pc];
      switch (instr.op) {
        case Op::kLi:
          write_reg(instr, instr.rd, make_const(instr.imm));
          break;
        case Op::kMov:
          write_reg(instr, instr.rd, value(instr, instr.a));
          break;
        case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv:
        case Op::kMod: case Op::kAnd: case Op::kOr: case Op::kXor:
        case Op::kShl: case Op::kShr: case Op::kMin: case Op::kMax:
        case Op::kSlt: case Op::kSeq:
          write_reg(instr, instr.rd,
                    make_op(instr.op, value(instr, instr.a),
                            value(instr, instr.b)));
          break;
        case Op::kLd:
        case Op::kLdAdd:
        case Op::kLdMac:
          // The accumulating loads read memory like ld; what they add
          // into rd is loaded data, so rd is not a recurrence.
          if (instr.op == Op::kLdMac &&
              (instr.b.kind != Operand::Kind::kReg ||
               !regs[static_cast<std::size_t>(instr.b.value)].device)) {
            fail(instr, "ldmac multiplier must be a device-valued register");
          }
          emit_site(instr, value(instr, instr.a), analyze::AccessDir::kLoad);
          write_reg(instr, instr.rd, make_leaf(Node::K::kDevice), true);
          break;
        case Op::kSt:
          (void)value(instr, instr.b, /*allow_device=*/true);
          emit_site(instr, value(instr, instr.a),
                    analyze::AccessDir::kStore);
          break;
        case Op::kAmo: {
          if (instr.b.kind != Operand::Kind::kReg ||
              !regs[static_cast<std::size_t>(instr.b.value)].device) {
            fail(instr, "amo value must be a device-valued register");
          }
          emit_site(instr, value(instr, instr.a),
                    analyze::AccessDir::kAtomic);
          break;
        }
        case Op::kCmpx: {
          if (!regs[instr.rd].device || instr.a.kind != Operand::Kind::kReg ||
              !regs[static_cast<std::size_t>(instr.a.value)].device) {
            fail(instr, "cmpx operands must both hold loaded data");
          }
          break;  // register-only: no memory site
        }
        case Op::kLoop: {
          if (instr.b.kind != Operand::Kind::kImm) {
            fail(instr, "malformed loop (no endl link)");
          }
          const auto endl_pc = static_cast<std::size_t>(instr.b.value);
          run_loop(instr, pc + 1, endl_pc);
          pc = endl_pc;  // ++pc below skips the endl
          break;
        }
        case Op::kEndl:
          fail(instr, "endl without an open loop");
        case Op::kMask:
          masks.push_back(classify_mask(instr, value(instr, instr.a)));
          break;
        case Op::kUnmask:
          if (masks.empty()) fail(instr, "unmask without a mask");
          masks.pop_back();
          break;
        case Op::kBz:
        case Op::kBnz:
          fail(instr, "branches are not extractable to kernel IR (use "
                      "loop/mask, or analyze the program trace-only)");
        case Op::kBar:
          if (!masks.empty()) {
            fail(instr, "bar under a mask (barriers are block-wide)");
          }
          kernel.add_barrier();
          break;
        case Op::kHalt:
          halted = true;
          break;
      }
      ++pc;
    }
  }
};

}  // namespace

ExtractResult extract_kernel(const Program& program) {
  if (program.width == 0 || program.num_threads == 0 ||
      program.num_threads % program.width != 0 ||
      program.memory_words == 0 ||
      program.memory_words % program.width != 0) {
    throw std::invalid_argument("program has invalid geometry");
  }
  Extractor extractor(program);
  extractor.exec_range(0, program.instrs.size());
  if (!extractor.masks.empty()) {
    throw std::invalid_argument(
        "program ended with an active mask (missing unmask)");
  }
  if (extractor.kernel.sites.empty()) {
    throw std::invalid_argument(
        "program has no memory access sites to describe");
  }
  // Drop trailing barriers after the last site (vacuous in the IR).
  while (!extractor.kernel.barriers.empty() &&
         extractor.kernel.barriers.back() >= extractor.kernel.sites.size()) {
    extractor.kernel.barriers.pop_back();
  }
  const std::vector<std::string> errors =
      analyze::validate_kernel(extractor.kernel);
  if (!errors.empty()) {
    throw std::invalid_argument("extracted kernel is invalid: " + errors[0]);
  }
  ExtractResult result;
  result.kernel = std::move(extractor.kernel);
  result.complete = extractor.complete;
  result.notes = std::move(extractor.notes);
  return result;
}

}  // namespace rapsim::vm
