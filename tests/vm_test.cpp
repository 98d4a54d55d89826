// Tests for the workload VM (src/vm/): assembler round-trips and error
// rejection (including exhaustive prefix/deletion fuzzing of the suite
// sources), the SPMD executor's semantics, and the extraction
// differential pinning the loop-nest IR to the executor's lowering for
// every suite program, and random programs lowered warp at a time
// against the per-lane reference interpreter (vm_reference.hpp).

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/race.hpp"
#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "replay/racecheck.hpp"
#include "util/hash.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/extract.hpp"
#include "vm/suite.hpp"
#include "vm_reference.hpp"

namespace rapsim::vm {
namespace {

// A minimal valid program the error tests mutate.
std::string tiny_program(const std::string& body) {
  return ".vm 1\n.name tiny\n.threads w\n.memory 2*w\n" + body + "halt\n";
}

Program assemble8(const std::string& body) {
  return assemble(tiny_program(body), 8);
}

/// The suite plus the catalog workloads written next to it: the three
/// transposes, the two reductions (n = 8w) and the two matmuls.
std::vector<SuiteProgram> all_programs(std::uint32_t w) {
  std::vector<SuiteProgram> programs = suite_programs(w);
  for (std::string& text : std::vector<std::string>{
           transpose_text(TransposeAlgorithm::kCrsw, w),
           transpose_text(TransposeAlgorithm::kSrcw, w),
           transpose_text(TransposeAlgorithm::kDrdw, w),
           reduction_text(ReductionVariant::kInterleaved, 8ull * w, w),
           reduction_text(ReductionVariant::kSequential, 8ull * w, w),
           matmul_text(MatmulLayout::kRowMajorB, w),
           matmul_text(MatmulLayout::kTransposedB, w)}) {
    programs.push_back({assemble(text, w).name, std::move(text)});
  }
  return programs;
}

// ---- Assembler.

TEST(VmAssembler, SuiteRoundTripsThroughDisassemble) {
  for (const std::uint32_t w : {8u, 16u, 32u}) {
    for (const SuiteProgram& entry : all_programs(w)) {
      Program program = assemble(entry.text, w);
      Program again = assemble(disassemble(program), w);
      // Disassembly normalizes source positions; everything else —
      // opcode stream, operands, geometry — must survive exactly.
      for (Program* p : {&program, &again}) {
        for (Instr& instr : p->instrs) instr.line = 0;
      }
      EXPECT_EQ(program.instrs, again.instrs) << entry.name << " w=" << w;
      EXPECT_EQ(program.name, again.name) << entry.name;
      EXPECT_EQ(program.num_threads, again.num_threads) << entry.name;
      EXPECT_EQ(program.memory_words, again.memory_words) << entry.name;
    }
  }
}

TEST(VmAssembler, ConstExpressionsFoldAtAssemblyTime) {
  const Program p = assemble(
      ".vm 1\n.name expr\n.const A (3+1)*w\n.const B A/2\n"
      ".threads w\n.memory A\nli r1, B-0x4\nhalt\n",
      8);
  ASSERT_EQ(p.instrs.size(), 2u);
  EXPECT_EQ(p.memory_words, 32u);
  EXPECT_EQ(p.instrs[0].imm, 12);  // (3+1)*8/2 - 4
}

TEST(VmAssembler, RejectsMalformedInput) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "missing .vm"},
      {".vm 2\n", "unsupported version"},
      {".vm 1\n.threads w\n.memory w\nhalt\n", "missing name is fine"},
      {".vm 1\n.name x\n.threads 3\n.memory w\nhalt\n", "threads not multiple"},
      {".vm 1\n.name x\n.threads w\n.memory 5\nhalt\n", "memory not multiple"},
      {".vm 1\n.name x\n.threads w\n.memory w\nfrob r1, 2\nhalt\n",
       "unknown mnemonic"},
      {".vm 1\n.name x\n.threads w\n.memory w\nli r99, 2\nhalt\n",
       "register out of range"},
      {".vm 1\n.name x\n.threads w\n.memory w\nli r1, 1/0\nhalt\n",
       "division by zero in const expr"},
      {".vm 1\n.name x\n.threads w\n.memory w\nloop r1, 4\nhalt\n",
       "unclosed loop"},
      {".vm 1\n.name x\n.threads w\n.memory w\nendl\nhalt\n",
       "endl without loop"},
      {".vm 1\n.name x\n.threads w\n.memory w\nbnz r1, nowhere\nhalt\n",
       "undefined label"},
      {".vm 1\n.name x\n.threads w\n.memory w\nli r1, 2 @oops\nhalt\n",
       "@site on a non-memory instruction"},
  };
  for (const auto& [text, why] : cases) {
    if (std::string(why) == "missing name is fine") {
      EXPECT_NO_THROW((void)assemble(text, 8)) << why;
      continue;
    }
    EXPECT_THROW((void)assemble(text, 8), std::invalid_argument) << why;
  }
}

TEST(VmAssembler, ErrorsCarrySourceLineNumbers) {
  try {
    (void)assemble(".vm 1\n.name x\n.threads w\n.memory w\nfrob r1\nhalt\n",
                   8);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
  }
}

// Exhaustive structural fuzz: every line-prefix and every single-line
// deletion of every suite source must either assemble or throw
// std::invalid_argument — never crash, hang, or throw anything else.
// (Programs that do assemble are lowered and extracted too, with the
// same contract: dynamic errors surface as invalid_argument.)
void expect_graceful(const std::string& text, const std::string& label) {
  Program program;
  try {
    program = assemble(text, 8);
  } catch (const std::invalid_argument&) {
    return;  // rejected cleanly
  }
  try {
    (void)lower_program(program);
  } catch (const std::invalid_argument&) {
  }
  try {
    (void)extract_kernel(program);
  } catch (const std::invalid_argument&) {
  }
  SUCCEED() << label;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(VmAssembler, EveryLinePrefixOfTheSuiteIsRejectedGracefully) {
  for (const SuiteProgram& entry : suite_programs(8)) {
    const std::vector<std::string> lines = split_lines(entry.text);
    std::string prefix;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      prefix += lines[i] + "\n";
      expect_graceful(prefix, entry.name + " prefix " + std::to_string(i));
    }
  }
}

TEST(VmAssembler, EveryLineDeletionOfTheSuiteIsRejectedGracefully) {
  for (const SuiteProgram& entry : suite_programs(8)) {
    const std::vector<std::string> lines = split_lines(entry.text);
    for (std::size_t skip = 0; skip < lines.size(); ++skip) {
      std::string text;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i != skip) text += lines[i] + "\n";
      }
      expect_graceful(text, entry.name + " minus line " +
                                std::to_string(skip + 1));
    }
  }
}

TEST(VmAssembler, CharacterPrefixesNeverCrash) {
  const std::string text = mergesort_round_text(8);
  for (std::size_t len = 0; len <= text.size(); ++len) {
    expect_graceful(text.substr(0, len),
                    "char prefix " + std::to_string(len));
  }
}

// ---- Executor semantics.

std::vector<std::uint64_t> run_lowered(const LoweredProgram& low,
                                       std::vector<std::uint64_t> init) {
  const auto map =
      core::make_matrix_map(core::Scheme::kRaw, low.width, low.rows, 1);
  dmm::Dmm machine(dmm::DmmConfig{low.width, 1}, *map);
  for (std::size_t i = 0; i < init.size(); ++i) machine.store(i, init[i]);
  (void)machine.run(low.kernel);
  std::vector<std::uint64_t> out(init.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = machine.load(i);
  return out;
}

TEST(VmExec, LaneAndWarpOperandsAddressPerThread) {
  // thread t = warp*w + lane copies mem[t] to mem[w + t] ... with
  // .threads w there is a single warp, so warp contributes 0.
  const Program p = assemble8(
      "add r1, warp, lane\n"
      "ld r2, r1\n"
      "add r3, r1, w\n"
      "st r3, r2\n");
  std::vector<std::uint64_t> init(16, 0);
  for (int i = 0; i < 8; ++i) init[i] = 100 + i;
  const auto out = run_lowered(lower_program(p), init);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[8 + i], 100u + i) << i;
}

TEST(VmExec, MaskPredicatesMemoryTraffic) {
  // Only lanes < 3 load-and-store; the rest stay silent.
  const Program q = assemble8(
      "slt r1, lane, 3\n"
      "mask r1\n"
      "ld r4, lane\n"
      "add r2, lane, w\n"
      "st r2, r4\n"
      "unmask\n");
  std::vector<std::uint64_t> init(16, 0);
  for (int i = 0; i < 8; ++i) init[i] = 50 + i;
  const auto out = run_lowered(lower_program(q), init);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[8 + i], i < 3 ? 50u + i : 0u) << i;
  }
}

TEST(VmExec, LoopCounterIsVisibleInTheBody) {
  // mem[w + c] = c for c in 0..3 (lane 0 only would race; all lanes
  // write the same value to the same address in distinct SIMD steps —
  // use lane 0 via mask to keep it single-writer).
  const Program p = assemble8(
      "slt r1, lane, 1\n"
      "mask r1\n"
      "loop r2, 4\n"
      "ld r3, r2\n"
      "add r4, r2, w\n"
      "st r4, r3\n"
      "endl\n"
      "unmask\n");
  std::vector<std::uint64_t> init(16, 0);
  for (int i = 0; i < 4; ++i) init[i] = 200 + i;
  const auto out = run_lowered(lower_program(p), init);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[8 + i], 200u + i) << i;
}

TEST(VmExec, CmpxSortsAPairOfDeviceValues) {
  const Program p = assemble8(
      "slt r1, lane, 1\n"
      "mask r1\n"
      "ld r2, 0\n"
      "ld r3, 1\n"
      "cmpx r2, r3\n"
      "st 0, r2\n"
      "st 1, r3\n"
      "unmask\n");
  const auto out = run_lowered(lower_program(p), {9, 3});
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[1], 9u);
}

TEST(VmExec, AmoAccumulatesAtomically) {
  // All 8 lanes amo-add their loaded value into mem[8].
  const Program p = assemble8(
      "ld r2, lane\n"
      "li r3, w\n"
      "amo r3, r2\n");
  std::vector<std::uint64_t> init(16, 1);
  init[8] = 0;
  const auto out = run_lowered(lower_program(p), init);
  EXPECT_EQ(out[8], 8u);
}

TEST(VmAssembler, AccumulatingLoadsRoundTripAndExtractAsLoadSites) {
  Program p = assemble8(
      "ld r1, lane @a\n"
      "add r2, lane, w\n"
      "ldadd r1, r2 @b\n"
      "ldmac r3, lane, r1 @c\n"
      "st r2, r3 @d\n");
  ASSERT_EQ(p.instrs.size(), 6u);
  EXPECT_EQ(p.instrs[2].op, Op::kLdAdd);
  EXPECT_EQ(p.instrs[3].op, Op::kLdMac);
  EXPECT_EQ(p.instrs[3].b, Operand::reg(1));
  Program again = assemble(disassemble(p), 8);
  for (Program* q : {&p, &again}) {
    for (Instr& instr : q->instrs) instr.line = 0;
  }
  EXPECT_EQ(p.instrs, again.instrs);

  const ExtractResult ext = extract_kernel(p);
  ASSERT_EQ(ext.kernel.sites.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ext.kernel.sites[i].dir, analyze::AccessDir::kLoad) << i;
  }
  EXPECT_EQ(ext.kernel.sites[1].name, "b");
  EXPECT_EQ(ext.kernel.sites[2].name, "c");
  EXPECT_EQ(ext.kernel.sites[3].dir, analyze::AccessDir::kStore);

  // The multiplier must be a register; an immediate does not assemble.
  EXPECT_THROW((void)assemble8("ldmac r3, lane, 2\n"), std::invalid_argument);
}

TEST(VmExec, AccumulatingLoadsLowerToLoadAddAndLoadMulAdd) {
  // x[w + l] <- (x[l] + x[w + l]) * x[l]: r1 binds machine register 0,
  // the accumulator r3 the untouched register 1.
  const Program p = assemble8(
      "ld r1, lane\n"
      "add r2, lane, w\n"
      "ldadd r1, r2\n"
      "ldmac r3, lane, r1\n"
      "st r2, r3\n");
  const LoweredProgram low = lower_program(p);
  ASSERT_EQ(low.kernel.instructions.size(), 4u);
  const dmm::ThreadOp& add = low.kernel.instructions[1][0];
  EXPECT_EQ(add.kind, dmm::OpKind::kLoadAdd);
  EXPECT_EQ(add.reg, 0u);
  const dmm::ThreadOp& mac = low.kernel.instructions[2][0];
  EXPECT_EQ(mac.kind, dmm::OpKind::kLoadMulAdd);
  EXPECT_EQ(mac.reg, 1u);
  EXPECT_EQ(mac.reg2, 0u);
  std::vector<std::uint64_t> init(16, 10);
  for (std::uint64_t l = 0; l < 8; ++l) init[l] = l + 1;
  const auto out = run_lowered(low, init);
  for (std::uint64_t l = 0; l < 8; ++l) {
    EXPECT_EQ(out[8 + l], (l + 1 + 10) * (l + 1)) << l;
  }
}

TEST(VmExec, RejectsLdmacWithoutALoadedMultiplier) {
  // Interpreter-valued, or never loaded: the DMM multiplies by a machine
  // register, so the multiplier must hold loaded data.
  for (const char* body : {"li r1, 3\nldmac r2, lane, r1\n",
                           "ldmac r2, lane, r5\n"}) {
    const Program p = assemble8(body);
    EXPECT_THROW((void)lower_program(p), std::invalid_argument) << body;
    EXPECT_THROW((void)extract_kernel(p), std::invalid_argument) << body;
  }
}

TEST(VmExec, RejectsAnAccumulatorStartingFromAWrittenRegister) {
  // r1's ld wrote machine register 0; once li releases it, an ldadd into
  // the fresh r2 would bind register 0 again and add to the stale value,
  // because the DMM zeroes registers only when a run begins.
  for (const char* body : {"ld r1, lane\nli r1, 0\nldadd r2, lane\n",
                           "ld r1, lane\nld r4, lane\nli r1, 0\n"
                           "ldmac r2, lane, r4\n"}) {
    try {
      (void)lower_program(assemble8(body));
      ADD_FAILURE() << "expected invalid_argument: " << body;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("accumulator r2"),
                std::string::npos)
          << e.what();
    }
  }
  // An accumulator may bind a register no instruction wrote, and a plain
  // ld may reuse a written one (it overwrites it).
  EXPECT_NO_THROW(
      (void)lower_program(assemble8("ld r1, lane\nldadd r2, lane\n")));
  EXPECT_NO_THROW((void)lower_program(
      assemble8("ld r1, lane\nli r1, 0\nld r2, lane\n")));
}

TEST(VmExec, RejectsNonUniformBranch) {
  const Program p = assemble(
      ".vm 1\n.name bad\n.threads w\n.memory w\n"
      "top:\nadd r1, r1, 1\nslt r2, lane, 4\nbnz r2, top\nhalt\n",
      8);
  EXPECT_THROW((void)lower_program(p), std::invalid_argument);
}

TEST(VmExec, RejectsBarrierUnderMask) {
  const Program p = assemble8("slt r1, lane, 4\nmask r1\nbar\nunmask\n");
  EXPECT_THROW((void)lower_program(p), std::invalid_argument);
}

TEST(VmExec, RejectsFallingOffTheEndUnderAMask) {
  // `halt` is an explicit exit and may fire under a mask; running off
  // the end with a mask still open is a structural error.
  const Program p = assemble(
      ".vm 1\n.name bad\n.threads w\n.memory w\nslt r1, lane, 4\nmask r1\n",
      8);
  EXPECT_THROW((void)lower_program(p), std::invalid_argument);
}

TEST(VmExec, RejectsOutOfBoundsAddress) {
  const Program p = assemble8("li r1, 2*w\nld r2, r1\n");
  EXPECT_THROW((void)lower_program(p), std::invalid_argument);
}

TEST(VmExec, RejectsDeviceValueAsAddress) {
  // A loaded (device) register may be stored, not used as an address.
  const Program p = assemble8("ld r1, lane\nld r2, r1\n");
  EXPECT_THROW((void)lower_program(p), std::invalid_argument);
}

TEST(VmExec, UniformBranchLoopsExecute) {
  // Count 5 iterations via bnz on a register all lanes agree on.
  const Program p = assemble(
      ".vm 1\n.name countdown\n.threads w\n.memory 2*w\n"
      "li r1, 5\n"
      "li r2, 0\n"
      "top:\n"
      "add r2, r2, 1\n"
      "sub r1, r1, 1\n"
      "bnz r1, top\n"
      "slt r3, lane, 1\n"
      "mask r3\n"
      "ld r4, 0\n"
      "st r2, r4\n"  // mem[5] = mem[0]
      "unmask\n"
      "halt\n",
      8);
  const auto out = run_lowered(lower_program(p), {77, 0, 0, 0, 0, 0});
  EXPECT_EQ(out[5], 77u);
}

// ---- Warp-at-a-time lowering against the per-lane reference.

/// Random well-linked programs mixing block-uniform values (li, loop
/// counters), warp-uniform ones (warp arithmetic) and per-lane ones,
/// with nested masks (some all-off), zero-trip loops, forward branches
/// on uniform and divergent predicates, divisors that may be zero,
/// addresses that may leave memory and device registers where the ISA
/// forbids them. Registers r0-r7 are scratch, r8-r11 take loads and
/// r12-r15 count loops; each choice strays outside its class now and
/// then, so errors of every kind occur.
class RandomProgram {
 public:
  explicit RandomProgram(std::uint64_t seed) : state_(seed) {}

  Program make(std::uint32_t width) {
    program_ = Program{};
    loaded_ = 0;
    program_.name = "random";
    program_.width = width;
    program_.num_threads = width * (1 + static_cast<std::uint32_t>(below(3)));
    program_.memory_words = width * (2 + below(3));
    block(0, 4 + below(9));
    if (chance(10)) push(Op::kHalt);
    return program_;
  }

 private:
  static constexpr Op kAlu[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv,
                                Op::kMod, Op::kAnd, Op::kOr,  Op::kXor,
                                Op::kShl, Op::kShr, Op::kMin, Op::kMax,
                                Op::kSlt, Op::kSeq};

  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool chance(std::uint64_t percent) { return below(100) < percent; }

  std::size_t push(Op op, std::uint8_t rd = 0, Operand a = {},
                   Operand b = {}, std::uint64_t imm = 0) {
    Instr instr;
    instr.op = op;
    instr.rd = rd;
    instr.a = a;
    instr.b = b;
    instr.imm = imm;
    instr.line = static_cast<std::uint32_t>(program_.instrs.size() + 1);
    if ((op == Op::kLd || op == Op::kSt) && chance(30)) {
      instr.site = "s" + std::to_string(below(4));
    }
    program_.instrs.push_back(std::move(instr));
    return program_.instrs.size() - 1;
  }

  std::uint8_t scratch() { return static_cast<std::uint8_t>(below(8)); }
  std::uint8_t data() { return static_cast<std::uint8_t>(8 + below(4)); }
  std::uint8_t any_reg() { return static_cast<std::uint8_t>(below(16)); }

  std::uint8_t dest() {
    if (chance(4)) return any_reg();
    return scratch();
  }

  Operand operand() {
    switch (below(10)) {
      case 0: return Operand::imm(below(8));
      case 1: return Operand::imm(below(program_.memory_words + 4));
      case 2: return Operand::lane();
      case 3: return Operand::warp();
      case 4: return Operand::reg(static_cast<std::uint32_t>(12 + below(4)));
      default:
        return Operand::reg(chance(4) ? any_reg() : scratch());
    }
  }

  void alu() {
    const Op op = kAlu[below(std::size(kAlu))];
    Operand b = operand();
    if ((op == Op::kDiv || op == Op::kMod) && chance(70)) {
      b = Operand::imm(1 + below(8));
    }
    const std::uint8_t rd = dest();
    push(op, rd, operand(), b);
  }

  Operand address() {
    const std::uint64_t pick = below(10);
    if (pick < 7) {
      const std::uint8_t r = scratch();
      const std::uint64_t bound =
          chance(15) ? program_.memory_words + 1 + below(program_.width)
                     : program_.memory_words;
      push(Op::kMod, r, operand(), Operand::imm(bound));
      return Operand::reg(r);
    }
    if (pick == 7) return chance(50) ? Operand::lane() : Operand::warp();
    if (pick == 8) return Operand::imm(below(program_.memory_words + 2));
    // Device-valued whenever the register holds loaded data.
    return Operand::reg(chance(50) ? loaded() : any_reg());
  }

  /// A data register, most often one an earlier ld wrote (loading one
  /// first when none was).
  std::uint8_t loaded() {
    if (chance(15)) return data();
    if ((loaded_ & 0xF00u) == 0) {
      const std::uint8_t r = data();
      push(Op::kLd, r, Operand::lane());
      loaded_ |= 1u << r;
      return r;
    }
    std::uint8_t r = data();
    while ((loaded_ >> r & 1u) == 0) r = data();
    return r;
  }

  void memory() {
    switch (below(8)) {
      case 0: case 1: case 2: {
        const Operand a = address();
        const std::uint8_t rd = chance(5) ? any_reg() : data();
        push(Op::kLd, rd, a);
        loaded_ |= 1u << rd;
        break;
      }
      case 3: {
        const Operand a = address();
        push(Op::kLdAdd, chance(50) ? loaded() : data(), a);
        break;
      }
      case 4: {
        const Operand a = address();
        const std::uint8_t rd = chance(50) ? loaded() : data();
        push(Op::kLdMac, rd, a, Operand::reg(loaded()));
        break;
      }
      case 5: case 6: {
        const Operand a = address();
        push(Op::kSt, 0, a,
             chance(50) ? Operand::reg(loaded()) : operand());
        break;
      }
      default:
        if (chance(50)) {
          const Operand a = address();
          push(Op::kAmo, 0, a,
               Operand::reg(chance(90) ? loaded() : any_reg()));
        } else {
          const std::uint8_t lo = loaded();
          push(Op::kCmpx, lo, Operand::reg(loaded()));
        }
        break;
    }
  }

  /// A predicate register: a comparison of lane, warp, a counter or a
  /// scratch register against a small constant (some never true).
  Operand predicate() {
    if (chance(15)) return operand();
    const std::uint8_t r = scratch();
    const Operand lhs = chance(30)   ? Operand::lane()
                        : chance(40) ? Operand::warp()
                                     : operand();
    const Op op = chance(60) ? Op::kSlt : Op::kSeq;
    push(op, r, lhs, Operand::imm(below(program_.width + 1)));
    return Operand::reg(r);
  }

  void block(std::size_t depth, std::uint64_t statements) {
    std::vector<std::size_t> branches;  // forward to the end of the block
    for (std::uint64_t s = 0; s < statements; ++s) {
      const std::uint64_t pick = below(100);
      if (pick < 30) {
        alu();
      } else if (pick < 38) {
        const std::uint8_t rd = dest();
        push(Op::kLi, rd, {}, {}, below(program_.memory_words + 2));
      } else if (pick < 43) {
        const std::uint8_t rd = dest();
        push(Op::kMov, rd, operand());
      } else if (pick < 63) {
        memory();
      } else if (pick < 73 && depth < 3) {
        push(Op::kMask, 0,
             chance(10) ? Operand::reg(loaded()) : predicate());
        block(depth + 1, 1 + below(5));
        push(Op::kUnmask);
      } else if (pick < 83 && depth < 3) {
        const std::size_t header = push(
            Op::kLoop, static_cast<std::uint8_t>(12 + depth), {}, {},
            chance(25) ? 0 : 1 + below(3));
        block(depth + 1, 1 + below(5));
        const std::size_t endl = push(Op::kEndl, 0, {}, {}, header);
        program_.instrs[header].b = Operand::imm(endl);
      } else if (pick < 91) {
        const Operand p =
            chance(40) ? (chance(50) ? Operand::imm(below(2))
                                     : Operand::reg(static_cast<std::uint32_t>(
                                           12 + below(4))))
            : chance(50) ? operand()
                         : predicate();
        branches.push_back(push(chance(50) ? Op::kBz : Op::kBnz, 0, p));
      } else if (pick < 95) {
        push(Op::kBar);
      } else if (pick < 96) {
        push(Op::kHalt);
      } else {
        alu();
      }
    }
    for (const std::size_t pc : branches) {
      program_.instrs[pc].imm = program_.instrs.size();
    }
  }

  std::uint64_t state_;
  Program program_;
  std::uint32_t loaded_ = 0;  // registers some generated ld wrote
};

struct LoweringOutcome {
  std::string error;  // empty when lowering succeeded
  std::uint64_t digest = 0;
  std::uint64_t steps = 0;
  std::uint64_t memory_instructions = 0;
  std::uint64_t barriers = 0;

  friend bool operator==(const LoweringOutcome&,
                         const LoweringOutcome&) = default;
};

/// FNV-1a over every active op (instruction, thread, kind, address,
/// immediate, registers) and every label.
std::uint64_t kernel_digest(const dmm::Kernel& kernel) {
  std::uint64_t h = util::kFnvOffsetBasis;
  const auto add = [&h](std::uint64_t word) { h = util::fnv1a_u64(word, h); };
  add(kernel.num_threads);
  add(kernel.instructions.size());
  for (std::size_t i = 0; i < kernel.instructions.size(); ++i) {
    const dmm::Instruction instr = kernel.instructions[i];
    const auto threads = instr.threads();
    for (std::size_t k = 0; k < instr.size(); ++k) {
      add(i);
      add(threads[k]);
      add(static_cast<std::uint64_t>(instr[k].kind));
      add(instr[k].logical);
      add(instr[k].immediate);
      add(instr[k].reg);
      add(instr[k].reg2);
    }
  }
  add(kernel.labels.size());
  for (const std::string& label : kernel.labels) {
    add(label.size());
    h = util::fnv1a(label, h);
  }
  return h;
}

template <class Lower>
LoweringOutcome lowering_outcome(Lower&& lower, const Program& program) {
  LoweringOutcome outcome;
  try {
    const LoweredProgram low = lower(program);
    outcome.digest = kernel_digest(low.kernel);
    outcome.steps = low.steps;
    outcome.memory_instructions = low.memory_instructions;
    outcome.barriers = low.barriers;
  } catch (const std::invalid_argument& e) {
    outcome.error = e.what();
  }
  return outcome;
}

TEST(VmExec, WarpAtATimeLoweringMatchesPerLaneReference) {
  std::uint64_t lowered = 0;
  std::map<std::string, std::uint64_t> errors;
  std::uint64_t seed = 1;
  for (const std::uint32_t w : {4u, 8u, 32u}) {
    for (int i = 0; i < 1500; ++i, ++seed) {
      const Program program = RandomProgram(seed).make(w);
      const LoweringOutcome want =
          lowering_outcome(testing::lower_per_lane, program);
      const LoweringOutcome got = lowering_outcome(lower_program, program);
      ASSERT_EQ(got, want) << "seed " << seed << " width " << w << ": '"
                           << got.error << "' vs reference '" << want.error
                           << "'\n"
                           << disassemble(program);
      if (want.error.empty()) {
        ++lowered;
        continue;
      }
      for (const char* kind :
           {"division by zero", "modulo by zero", "divergent branch",
            "out of bounds", "holds loaded data", "under a mask",
            "does not hold loaded data", "accumulator"}) {
        if (want.error.find(kind) != std::string::npos) ++errors[kind];
      }
    }
  }
  // The mix stays a mix: most programs lower, and every error kind the
  // two interpreters must agree on occurs.
  EXPECT_GE(lowered, 1500u);
  for (const char* kind :
       {"division by zero", "modulo by zero", "divergent branch",
        "out of bounds", "holds loaded data", "under a mask",
        "does not hold loaded data", "accumulator"}) {
    EXPECT_GE(errors[kind], 3u) << kind;
  }
}

// ---- Extraction differential: for every suite and catalog program the
// extracted loop-nest IR, materialized back to concrete accesses, must
// cover the SAME per-barrier-phase address sets as the executor's
// lowering (set, not multiset: loop variables whose coefficient is zero
// collapse repeats, which congestion and race verdicts are insensitive
// to). Accumulating loads are loads.

using PhaseSet = std::set<std::pair<int, std::uint64_t>>;

std::vector<PhaseSet> phase_sets(const dmm::Kernel& kernel) {
  std::vector<PhaseSet> phases(1);
  for (const dmm::Instruction& instr : kernel.instructions) {
    bool barrier = false;
    for (const dmm::ThreadOp& op : instr) {
      switch (op.kind) {
        case dmm::OpKind::kBarrier:
          barrier = true;
          break;
        case dmm::OpKind::kLoad:
        case dmm::OpKind::kLoadAdd:
        case dmm::OpKind::kLoadMulAdd:
          phases.back().insert({0, op.logical});
          break;
        case dmm::OpKind::kStore:
        case dmm::OpKind::kStoreImm:
          phases.back().insert({1, op.logical});
          break;
        case dmm::OpKind::kAtomicAdd:
          phases.back().insert({2, op.logical});
          break;
        default:
          break;
      }
      if (barrier) break;
    }
    if (barrier) phases.emplace_back();
  }
  while (phases.size() > 1 && phases.back().empty()) phases.pop_back();
  return phases;
}

TEST(VmExtract, SuiteIrMatchesExecutorLoweringPhaseByPhase) {
  for (const std::uint32_t w : {8u, 16u, 32u}) {
    for (const SuiteProgram& entry : all_programs(w)) {
      const Program program = assemble(entry.text, w);
      const LoweredProgram low = lower_program(program);
      const ExtractResult ext = extract_kernel(program);
      ASSERT_TRUE(ext.complete)
          << entry.name << " w=" << w << ": incomplete extraction";

      const replay::LoweredKernel ir =
          replay::lower_kernel_desc(ext.kernel, 1u << 19);
      ASSERT_FALSE(ir.truncated) << entry.name << " w=" << w;

      const auto from_exec = phase_sets(low.kernel);
      const auto from_ir = phase_sets(ir.kernel);
      ASSERT_EQ(from_exec.size(), from_ir.size())
          << entry.name << " w=" << w << ": phase count";
      for (std::size_t i = 0; i < from_exec.size(); ++i) {
        EXPECT_EQ(from_exec[i], from_ir[i])
            << entry.name << " w=" << w << ": phase " << i;
      }
    }
  }
}

TEST(VmExtract, DiagonalModIndicesExtractAsRowColumnSites) {
  // DRDW reads A[lane][(warp + lane) mod w] and writes B[(warp + lane)
  // mod w][lane]: a column term over whole rows, and a wrapped row in the
  // B half over an in-row column.
  const ExtractResult drdw = extract_kernel(
      assemble(transpose_text(TransposeAlgorithm::kDrdw, 16), 16));
  ASSERT_EQ(drdw.kernel.sites.size(), 2u);
  const analyze::AccessSite& read = drdw.kernel.sites[0];
  EXPECT_EQ(read.form, analyze::IndexForm::kRowCol);
  EXPECT_EQ(read.row_mod, 0u);
  EXPECT_EQ(read.row.lane_coeff, 1);
  EXPECT_EQ(read.col.lane_coeff, 1);
  const analyze::AccessSite& write = drdw.kernel.sites[1];
  EXPECT_EQ(write.form, analyze::IndexForm::kRowCol);
  EXPECT_EQ(write.row_mod, 16u);
  EXPECT_EQ(write.row_base, 16);
  EXPECT_EQ(write.col.lane_coeff, 1);

  // Sums the form cannot hold exactly stay opaque: a modulus that is not
  // a power of two, a column term plus a part below w (it may carry),
  // and a column that reaches w.
  for (const char* body : {"mod r1, lane, 6\nld r2, r1\n",
                           "mod r1, lane, w\nadd r1, r1, 1\nld r2, r1\n",
                           "mod r1, lane, 2\nmul r1, r1, w\n"
                           "add r1, r1, lane\nadd r1, r1, lane\n"
                           "ld r2, r1\n"}) {
    const ExtractResult ext = extract_kernel(
        assemble(".vm 1\n.name t\n.threads w\n.memory 4*w\n" +
                     std::string(body) + "halt\n",
                 8));
    ASSERT_EQ(ext.kernel.sites.size(), 1u) << body;
    EXPECT_EQ(ext.kernel.sites[0].form, analyze::IndexForm::kOpaque) << body;
  }
}

TEST(VmExtract, SuiteIsRaceFreeStaticallyAndDynamically) {
  for (const std::uint32_t w : {8u, 16u}) {
    for (const SuiteProgram& entry : suite_programs(w)) {
      const ExtractResult ext =
          extract_kernel(assemble(entry.text, w));
      ASSERT_TRUE(ext.complete) << entry.name;
      EXPECT_TRUE(analyze::analyze_races(ext.kernel).race_free())
          << entry.name << " w=" << w;
      EXPECT_TRUE(replay::run_race_check(ext.kernel, {}).race_clean())
          << entry.name << " w=" << w;
    }
  }
}

// ---- Suite semantics: every suite program's output is checked against
// its catalog reference (workloads/catalog.hpp) by CatalogCorrectness in
// workloads_test.cpp.

TEST(VmSuite, RejectsUnsupportedGeometry) {
  EXPECT_THROW((void)suite_programs(4), std::invalid_argument);   // w < 8
  EXPECT_THROW((void)suite_programs(24), std::invalid_argument);  // not 2^k
  EXPECT_THROW((void)suite_program("vm-nope", 16), std::invalid_argument);
  EXPECT_THROW((void)bitonic_text(24, 8), std::invalid_argument);
  EXPECT_THROW((void)shearsort_text(4), std::invalid_argument);
}

}  // namespace
}  // namespace rapsim::vm
