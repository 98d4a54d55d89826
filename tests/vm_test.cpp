// Tests for the workload VM (src/vm/): assembler round-trips and error
// rejection (including exhaustive prefix/deletion fuzzing of the suite
// sources), the SPMD executor's semantics, and the extraction
// differential pinning the loop-nest IR to the executor's lowering for
// every suite program.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/race.hpp"
#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "replay/racecheck.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/extract.hpp"
#include "vm/suite.hpp"

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

// ---- Suite semantics (bitonic's sortedness is pinned by
// workloads_test; the remaining programs are pinned here).

std::vector<std::uint64_t> simulate(const LoweredProgram& low,
                                    std::uint64_t memory_words,
                                    std::uint64_t seed,
                                    std::vector<std::uint64_t>* input) {
  const auto map =
      core::make_matrix_map(core::Scheme::kRaw, low.width, low.rows, 1);
  dmm::Dmm machine(dmm::DmmConfig{low.width, 2}, *map);
  util::Pcg32 rng(seed, 7);
  input->resize(memory_words);
  for (std::uint64_t i = 0; i < memory_words; ++i) {
    (*input)[i] = rng() % 1000000;
    machine.store(i, (*input)[i]);
  }
  (void)machine.run(low.kernel);
  std::vector<std::uint64_t> out(memory_words);
  for (std::uint64_t i = 0; i < memory_words; ++i) out[i] = machine.load(i);
  return out;
}

TEST(VmSuite, ShearsortConvergesToSnakeOrder) {
  for (const std::uint32_t w : {8u, 16u, 32u}) {
    const LoweredProgram low =
        lower_program(assemble(shearsort_text(w), w));
    std::vector<std::uint64_t> in;
    const auto mem = simulate(low, 1ull * w * w, 43, &in);
    // Element x of grid row i lives at x*w + i; reading i-outer /
    // x-inner walks the snake in sorted order.
    std::vector<std::uint64_t> seq;
    for (std::uint64_t i = 0; i < 8; ++i) {
      for (std::uint64_t x = 0; x < w; ++x) seq.push_back(mem[x * w + i]);
    }
    EXPECT_TRUE(std::is_sorted(seq.begin(), seq.end())) << "w=" << w;
  }
}

TEST(VmSuite, MergesortRoundTransposesEachWarpTile) {
  for (const std::uint32_t w : {8u, 16u}) {
    const LoweredProgram low =
        lower_program(assemble(mergesort_round_text(w), w));
    const std::uint64_t n = 4ull * w * w;
    std::vector<std::uint64_t> in;
    const auto mem = simulate(low, 2 * n, 44, &in);
    for (std::uint64_t u = 0; u < 4; ++u) {
      for (std::uint64_t d = 0; d < w; ++d) {
        for (std::uint64_t l = 0; l < w; ++l) {
          ASSERT_EQ(mem[n + u * w * w + d * w + l],
                    in[u * w * w + l * w + d])
              << "w=" << w << " u=" << u << " d=" << d << " l=" << l;
        }
      }
    }
  }
}

TEST(VmSuite, PermutationsAreBijectionsOntoTheOutputHalf) {
  for (const std::uint32_t w : {8u, 16u, 32u}) {
    for (const PermuteKind kind :
         {PermuteKind::kIdentity, PermuteKind::kBitReversal,
          PermuteKind::kDerangement}) {
      const LoweredProgram low =
          lower_program(assemble(permute_text(kind, w), w));
      const std::uint64_t n = 8ull * w;
      std::vector<std::uint64_t> in;
      const auto mem = simulate(low, 2 * n, 45, &in);
      std::multiset<std::uint64_t> src(in.begin(), in.begin() + n);
      std::multiset<std::uint64_t> dst(mem.begin() + n, mem.end());
      EXPECT_EQ(src, dst) << "kind=" << static_cast<int>(kind) << " w=" << w;
      if (kind == PermuteKind::kIdentity) {
        EXPECT_TRUE(std::equal(in.begin(), in.begin() + n, mem.begin() + n))
            << "w=" << w;
      }
    }
  }
}

TEST(VmSuite, RejectsUnsupportedGeometry) {
  EXPECT_THROW((void)suite_programs(4), std::invalid_argument);   // w < 8
  EXPECT_THROW((void)suite_programs(24), std::invalid_argument);  // not 2^k
  EXPECT_THROW((void)suite_program("vm-nope", 16), std::invalid_argument);
  EXPECT_THROW((void)bitonic_text(24, 8), std::invalid_argument);
  EXPECT_THROW((void)shearsort_text(4), std::invalid_argument);
}

}  // namespace
}  // namespace rapsim::vm
