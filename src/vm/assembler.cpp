#include "vm/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rapsim::vm {
namespace {

constexpr std::uint64_t kMaxThreads = 1u << 20;
constexpr std::uint64_t kMaxMemoryWords = 1u << 26;
constexpr std::size_t kMaxInstrs = 1u << 16;

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + message);
}

// ---------------------------------------------------------------- tokens

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// ------------------------------------------------- constant expressions
//
// expr  := sum (('<<' | '>>') sum)*
// sum   := term (('+' | '-') term)*
// term  := unary (('*' | '/' | '%') unary)*
// unary := '-' unary | number | ident | '(' expr ')'

struct ExprParser {
  const std::string& text;
  std::size_t pos = 0;
  std::size_t line;
  const std::map<std::string, std::uint64_t>& symbols;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool eat(const std::string& token) {
    skip_ws();
    if (text.compare(pos, token.size(), token) == 0) {
      // Don't let '<' match the first half of '<<' etc.
      pos += token.size();
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }

  std::uint64_t parse_expr() {
    std::uint64_t value = parse_sum();
    for (;;) {
      if (eat("<<")) {
        const std::uint64_t shift = parse_sum();
        value = shift >= 64 ? 0 : value << shift;
      } else if (eat(">>")) {
        const std::uint64_t shift = parse_sum();
        value = shift >= 64 ? 0 : value >> shift;
      } else {
        return value;
      }
    }
  }

  std::uint64_t parse_sum() {
    std::uint64_t value = parse_term();
    for (;;) {
      // '<<' handled a level up; a lone '<' is an error caught by the
      // caller's trailing-character check.
      if (peek() == '+' ) {
        ++pos;
        value += parse_term();
      } else if (peek() == '-') {
        ++pos;
        value -= parse_term();
      } else {
        return value;
      }
    }
  }

  std::uint64_t parse_term() {
    std::uint64_t value = parse_unary();
    for (;;) {
      const char c = peek();
      if (c == '*') {
        ++pos;
        value *= parse_unary();
      } else if (c == '/' || c == '%') {
        ++pos;
        const std::uint64_t rhs = parse_unary();
        if (rhs == 0) fail(line, "division by zero in constant expression");
        value = c == '/' ? value / rhs : value % rhs;
      } else {
        return value;
      }
    }
  }

  std::uint64_t parse_unary() {
    const char c = peek();
    if (c == '-') {
      ++pos;
      return ~parse_unary() + 1;  // wrapping negate
    }
    if (c == '(') {
      ++pos;
      const std::uint64_t value = parse_expr();
      if (peek() != ')') fail(line, "missing ')' in constant expression");
      ++pos;
      return value;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) return parse_number();
    if (ident_char(c)) {
      std::string name;
      while (pos < text.size() && ident_char(text[pos])) name += text[pos++];
      const auto found = symbols.find(name);
      if (found == symbols.end()) {
        fail(line, "unknown symbol '" + name + "' in constant expression");
      }
      return found->second;
    }
    fail(line, "malformed constant expression '" + text + "'");
  }

  std::uint64_t parse_number() {
    skip_ws();
    std::uint64_t value = 0;
    if (text.compare(pos, 2, "0x") == 0 || text.compare(pos, 2, "0X") == 0) {
      pos += 2;
      std::size_t digits = 0;
      while (pos < text.size() &&
             std::isxdigit(static_cast<unsigned char>(text[pos]))) {
        const char d = text[pos++];
        const std::uint64_t nibble =
            std::isdigit(static_cast<unsigned char>(d))
                ? static_cast<std::uint64_t>(d - '0')
                : static_cast<std::uint64_t>(std::tolower(d) - 'a') + 10;
        if (value > (~0ull >> 4)) fail(line, "integer literal overflows u64");
        value = (value << 4) | nibble;
        ++digits;
      }
      if (digits == 0) fail(line, "malformed hex literal");
      return value;
    }
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos]))) {
      const auto digit = static_cast<std::uint64_t>(text[pos++] - '0');
      if (value > (~0ull - digit) / 10) {
        fail(line, "integer literal overflows u64");
      }
      value = value * 10 + digit;
    }
    return value;
  }
};

std::uint64_t eval_expr(const std::string& text, std::size_t line,
                        const std::map<std::string, std::uint64_t>& symbols) {
  ExprParser parser{text, 0, line, symbols};
  const std::uint64_t value = parser.parse_expr();
  parser.skip_ws();
  if (parser.pos != text.size()) {
    fail(line, "trailing characters in constant expression '" + text + "'");
  }
  return value;
}

// ---------------------------------------------------------------- lines

/// Split an operand list on top-level commas (commas inside parentheses
/// belong to no one — the expression grammar has none, so any comma
/// splits).
std::vector<std::string> split_operands(const std::string& text,
                                        std::size_t line) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      parts.push_back(trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  const std::string last = trim(current);
  if (!last.empty()) parts.push_back(last);
  for (const std::string& part : parts) {
    if (part.empty()) fail(line, "empty operand");
  }
  return parts;
}

std::optional<std::uint32_t> parse_reg(const std::string& token) {
  if (token.size() < 2 || token.size() > 3 || token[0] != 'r') {
    return std::nullopt;
  }
  std::uint32_t index = 0;
  for (std::size_t i = 1; i < token.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(token[i]))) {
      return std::nullopt;
    }
    index = index * 10 + static_cast<std::uint32_t>(token[i] - '0');
  }
  return index;
}

const std::map<std::string, Op>& mnemonics() {
  static const std::map<std::string, Op> table = {
      {"li", Op::kLi},     {"mov", Op::kMov},   {"add", Op::kAdd},
      {"sub", Op::kSub},   {"mul", Op::kMul},   {"div", Op::kDiv},
      {"mod", Op::kMod},   {"and", Op::kAnd},   {"or", Op::kOr},
      {"xor", Op::kXor},   {"shl", Op::kShl},   {"shr", Op::kShr},
      {"min", Op::kMin},   {"max", Op::kMax},   {"slt", Op::kSlt},
      {"seq", Op::kSeq},   {"ld", Op::kLd},     {"ldadd", Op::kLdAdd},
      {"ldmac", Op::kLdMac}, {"st", Op::kSt},   {"amo", Op::kAmo},
      {"cmpx", Op::kCmpx}, {"loop", Op::kLoop},
      {"endl", Op::kEndl}, {"mask", Op::kMask}, {"unmask", Op::kUnmask},
      {"bz", Op::kBz},     {"bnz", Op::kBnz},   {"bar", Op::kBar},
      {"halt", Op::kHalt},
  };
  return table;
}

}  // namespace

Program assemble(const std::string& text, std::uint32_t width) {
  if (width == 0 || (width & (width - 1)) != 0) {
    throw std::invalid_argument("width must be a positive power of two");
  }
  Program program;
  program.width = width;
  program.name = "vm-program";

  std::map<std::string, std::uint64_t> symbols;
  symbols["w"] = width;

  bool saw_version = false;
  bool saw_threads = false;
  bool saw_memory = false;

  struct LoopOpen {
    std::size_t pc;
    std::size_t line;
  };
  std::vector<LoopOpen> loop_stack;
  std::map<std::string, std::size_t> labels;  // name -> target pc
  std::map<std::string, std::size_t> label_depth;
  struct Fixup {
    std::size_t pc;
    std::string label;
    std::size_t line;
    std::size_t depth;
  };
  std::vector<Fixup> fixups;

  const auto reg_operand = [](const std::string& token, std::size_t line,
                              const std::map<std::string, std::uint64_t>& syms)
      -> Operand {
    if (const auto reg = parse_reg(token)) {
      if (*reg >= kNumRegs) {
        fail(line, "register r" + std::to_string(*reg) + " out of range (r0-r" +
                       std::to_string(kNumRegs - 1) + ")");
      }
      return Operand::reg(*reg);
    }
    if (token == "lane") return Operand::lane();
    if (token == "warp") return Operand::warp();
    return Operand::imm(eval_expr(token, line, syms));
  };

  std::string raw_line;
  std::size_t line = 0;
  for (std::size_t next = 0; next < text.size();) {
    const std::size_t end = std::min(text.find('\n', next), text.size());
    raw_line.assign(text, next, end - next);
    next = end + 1;
    ++line;
    // Comments run from '#' to end of line.
    if (const std::size_t hash = raw_line.find('#');
        hash != std::string::npos) {
      raw_line.erase(hash);
    }
    // Optional trailing "@site" names the access site.
    std::string site;
    if (const std::size_t at = raw_line.rfind('@'); at != std::string::npos) {
      site = trim(raw_line.substr(at + 1));
      raw_line.erase(at);
      if (site.empty()) fail(line, "empty @site label");
    }
    const std::string stripped = trim(raw_line);
    if (stripped.empty()) {
      if (!site.empty()) fail(line, "@site label without an instruction");
      continue;
    }

    // Directives.
    if (stripped[0] == '.') {
      if (!site.empty()) fail(line, "@site label on a directive");
      std::istringstream words(stripped);
      std::string directive, rest;
      words >> directive;
      std::getline(words, rest);
      rest = trim(rest);
      if (directive == ".vm") {
        if (eval_expr(rest, line, symbols) != 1) {
          fail(line, "unsupported .vm version (expected 1)");
        }
        saw_version = true;
      } else if (directive == ".name") {
        if (rest.empty()) fail(line, ".name needs a value");
        for (const char c : rest) {
          if (!ident_char(c) && c != '-') {
            fail(line, "invalid character in program name");
          }
        }
        program.name = rest;
      } else if (directive == ".threads") {
        const std::uint64_t value = eval_expr(rest, line, symbols);
        if (value == 0 || value % width != 0 || value > kMaxThreads) {
          fail(line, ".threads must be a positive multiple of w (and <= " +
                         std::to_string(kMaxThreads) + ")");
        }
        program.num_threads = static_cast<std::uint32_t>(value);
        saw_threads = true;
      } else if (directive == ".memory") {
        const std::uint64_t value = eval_expr(rest, line, symbols);
        if (value == 0 || value % width != 0 || value > kMaxMemoryWords) {
          fail(line, ".memory must be a positive multiple of w (and <= " +
                         std::to_string(kMaxMemoryWords) + ")");
        }
        program.memory_words = value;
        saw_memory = true;
      } else if (directive == ".const") {
        std::istringstream decl(rest);
        std::string name, expr;
        decl >> name;
        std::getline(decl, expr);
        expr = trim(expr);
        if (name.empty() || expr.empty()) {
          fail(line, ".const needs a name and an expression");
        }
        for (const char c : name) {
          if (!ident_char(c)) fail(line, "invalid .const name '" + name + "'");
        }
        if (std::isdigit(static_cast<unsigned char>(name[0])) ||
            name == "w" || name == "lane" || name == "warp") {
          fail(line, "reserved or numeric .const name '" + name + "'");
        }
        symbols[name] = eval_expr(expr, line, symbols);
      } else {
        fail(line, "unknown directive '" + directive + "'");
      }
      continue;
    }

    // Labels: "name:" alone on a line.
    if (stripped.back() == ':') {
      if (!site.empty()) fail(line, "@site label on a label");
      const std::string name = trim(stripped.substr(0, stripped.size() - 1));
      if (name.empty()) fail(line, "empty label");
      for (const char c : name) {
        if (!ident_char(c)) fail(line, "invalid label '" + name + "'");
      }
      if (labels.count(name)) fail(line, "duplicate label '" + name + "'");
      labels[name] = program.instrs.size();
      label_depth[name] = loop_stack.size();
      continue;
    }

    // Instructions: the mnemonic, then its operands.
    const auto space =
        std::find_if(stripped.begin(), stripped.end(), [](char c) {
          return std::isspace(static_cast<unsigned char>(c)) != 0;
        });
    const std::string mnemonic(stripped.begin(), space);
    const std::string rest(space, stripped.end());
    const auto found = mnemonics().find(mnemonic);
    if (found == mnemonics().end()) {
      fail(line, "unknown instruction '" + mnemonic + "'");
    }
    if (!saw_version) fail(line, "missing .vm directive before code");
    if (program.instrs.size() >= kMaxInstrs) {
      fail(line, "program exceeds " + std::to_string(kMaxInstrs) +
                     " instructions");
    }
    const Op op = found->second;
    std::vector<std::string> operands = split_operands(rest, line);
    const auto expect = [&](std::size_t count) {
      if (operands.size() != count) {
        fail(line, std::string(op_name(op)) + " expects " +
                       std::to_string(count) + " operand(s), got " +
                       std::to_string(operands.size()));
      }
    };
    const auto dest_reg = [&](const std::string& token) -> std::uint8_t {
      const auto reg = parse_reg(token);
      if (!reg || *reg >= kNumRegs) {
        fail(line, std::string(op_name(op)) +
                       " destination must be a register r0-r" +
                       std::to_string(kNumRegs - 1) + ", got '" + token + "'");
      }
      return static_cast<std::uint8_t>(*reg);
    };

    Instr instr;
    instr.op = op;
    instr.line = static_cast<std::uint32_t>(line);
    if (!site.empty()) {
      if (op != Op::kLd && op != Op::kLdAdd && op != Op::kLdMac &&
          op != Op::kSt && op != Op::kAmo) {
        fail(line, "@site labels only apply to ld/ldadd/ldmac/st/amo");
      }
      instr.site = site;
    }

    switch (op) {
      case Op::kLi:
        expect(2);
        instr.rd = dest_reg(operands[0]);
        instr.imm = eval_expr(operands[1], line, symbols);
        break;
      case Op::kMov:
        expect(2);
        instr.rd = dest_reg(operands[0]);
        instr.a = reg_operand(operands[1], line, symbols);
        break;
      case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv:
      case Op::kMod: case Op::kAnd: case Op::kOr: case Op::kXor:
      case Op::kShl: case Op::kShr: case Op::kMin: case Op::kMax:
      case Op::kSlt: case Op::kSeq:
        expect(3);
        instr.rd = dest_reg(operands[0]);
        instr.a = reg_operand(operands[1], line, symbols);
        instr.b = reg_operand(operands[2], line, symbols);
        break;
      case Op::kLd:
      case Op::kLdAdd:
        expect(2);
        instr.rd = dest_reg(operands[0]);
        instr.a = reg_operand(operands[1], line, symbols);
        break;
      case Op::kLdMac:
        expect(3);
        instr.rd = dest_reg(operands[0]);
        instr.a = reg_operand(operands[1], line, symbols);
        instr.b = reg_operand(operands[2], line, symbols);
        if (instr.b.kind != Operand::Kind::kReg) {
          fail(line, "ldmac multiplier must be a register");
        }
        break;
      case Op::kSt:
      case Op::kAmo:
        expect(2);
        instr.a = reg_operand(operands[0], line, symbols);
        instr.b = reg_operand(operands[1], line, symbols);
        break;
      case Op::kCmpx:
        expect(2);
        instr.rd = dest_reg(operands[0]);
        instr.a = reg_operand(operands[1], line, symbols);
        if (instr.a.kind != Operand::Kind::kReg) {
          fail(line, "cmpx operands must both be registers");
        }
        break;
      case Op::kLoop:
        expect(2);
        instr.rd = dest_reg(operands[0]);
        instr.imm = eval_expr(operands[1], line, symbols);
        loop_stack.push_back({program.instrs.size(), line});
        break;
      case Op::kEndl:
        expect(0);
        if (loop_stack.empty()) fail(line, "endl without an open loop");
        instr.imm = loop_stack.back().pc;  // back-link to the loop header
        program.instrs[loop_stack.back().pc].b =
            Operand::imm(program.instrs.size());  // forward-link to endl
        loop_stack.pop_back();
        break;
      case Op::kMask:
        expect(1);
        instr.a = reg_operand(operands[0], line, symbols);
        break;
      case Op::kUnmask:
      case Op::kBar:
      case Op::kHalt:
        expect(0);
        break;
      case Op::kBz:
      case Op::kBnz: {
        expect(2);
        instr.a = reg_operand(operands[0], line, symbols);
        const std::string& target = operands[1];
        for (const char c : target) {
          if (!ident_char(c)) fail(line, "invalid branch label '" + target + "'");
        }
        fixups.push_back(
            {program.instrs.size(), target, line, loop_stack.size()});
        break;
      }
    }
    program.instrs.push_back(std::move(instr));
  }

  if (!saw_version) throw std::invalid_argument("missing .vm directive");
  if (!saw_threads) throw std::invalid_argument("missing .threads directive");
  if (!saw_memory) throw std::invalid_argument("missing .memory directive");
  if (!loop_stack.empty()) {
    fail(loop_stack.back().line, "loop is never closed (missing endl)");
  }
  for (const auto& fixup : fixups) {
    const auto found = labels.find(fixup.label);
    if (found == labels.end()) {
      fail(fixup.line, "undefined label '" + fixup.label + "'");
    }
    // Branching across a loop boundary would desynchronize the loop
    // stack; require source and target at the same nesting depth.
    if (label_depth[fixup.label] != fixup.depth) {
      fail(fixup.line, "branch to '" + fixup.label +
                           "' crosses a loop boundary");
    }
    program.instrs[fixup.pc].imm = found->second;
  }
  return program;
}

std::string disassemble(const Program& program) {
  std::ostringstream out;
  out << ".vm 1\n.name " << program.name << "\n.threads "
      << program.num_threads << "\n.memory " << program.memory_words << "\n";

  // Branch targets need labels in the output.
  std::map<std::uint64_t, std::string> target_labels;
  for (const Instr& instr : program.instrs) {
    if (instr.op == Op::kBz || instr.op == Op::kBnz) {
      target_labels.emplace(instr.imm, "L" + std::to_string(instr.imm));
    }
  }
  const auto operand = [](const Operand& value) -> std::string {
    switch (value.kind) {
      case Operand::Kind::kReg: return "r" + std::to_string(value.value);
      case Operand::Kind::kImm: return std::to_string(value.value);
      case Operand::Kind::kLane: return "lane";
      case Operand::Kind::kWarp: return "warp";
      case Operand::Kind::kNone: return "?";
    }
    return "?";
  };

  for (std::size_t pc = 0; pc < program.instrs.size(); ++pc) {
    if (const auto label = target_labels.find(pc);
        label != target_labels.end()) {
      out << label->second << ":\n";
    }
    const Instr& instr = program.instrs[pc];
    out << op_name(instr.op);
    switch (instr.op) {
      case Op::kLi:
      case Op::kLoop:
        out << " r" << static_cast<int>(instr.rd) << ", " << instr.imm;
        break;
      case Op::kMov:
      case Op::kLd:
      case Op::kLdAdd:
        out << " r" << static_cast<int>(instr.rd) << ", " << operand(instr.a);
        break;
      case Op::kLdMac:
      case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv:
      case Op::kMod: case Op::kAnd: case Op::kOr: case Op::kXor:
      case Op::kShl: case Op::kShr: case Op::kMin: case Op::kMax:
      case Op::kSlt: case Op::kSeq:
        out << " r" << static_cast<int>(instr.rd) << ", " << operand(instr.a)
            << ", " << operand(instr.b);
        break;
      case Op::kSt:
      case Op::kAmo:
        out << " " << operand(instr.a) << ", " << operand(instr.b);
        break;
      case Op::kCmpx:
        out << " r" << static_cast<int>(instr.rd) << ", " << operand(instr.a);
        break;
      case Op::kMask:
        out << " " << operand(instr.a);
        break;
      case Op::kBz:
      case Op::kBnz:
        out << " " << operand(instr.a) << ", L" << instr.imm;
        break;
      case Op::kEndl:
      case Op::kUnmask:
      case Op::kBar:
      case Op::kHalt:
        break;
    }
    if (!instr.site.empty()) out << " @" << instr.site;
    out << "\n";
  }
  // A label may point one past the last instruction (branch to end).
  if (const auto label = target_labels.find(program.instrs.size());
      label != target_labels.end()) {
    out << label->second << ":\n";
  }
  return out.str();
}

}  // namespace rapsim::vm
