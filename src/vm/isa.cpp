#include "vm/isa.hpp"

namespace rapsim::vm {

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kLi: return "li";
    case Op::kMov: return "mov";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kMin: return "min";
    case Op::kMax: return "max";
    case Op::kSlt: return "slt";
    case Op::kSeq: return "seq";
    case Op::kLd: return "ld";
    case Op::kLdAdd: return "ldadd";
    case Op::kLdMac: return "ldmac";
    case Op::kSt: return "st";
    case Op::kAmo: return "amo";
    case Op::kCmpx: return "cmpx";
    case Op::kLoop: return "loop";
    case Op::kEndl: return "endl";
    case Op::kMask: return "mask";
    case Op::kUnmask: return "unmask";
    case Op::kBz: return "bz";
    case Op::kBnz: return "bnz";
    case Op::kBar: return "bar";
    case Op::kHalt: return "halt";
  }
  return "?";
}

}  // namespace rapsim::vm
