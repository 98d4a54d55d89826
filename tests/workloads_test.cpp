// Tests for the workloads library: the catalog's references, the one run
// harness that checks every catalog program against them, the workloads'
// congestion claims, and the register-file / ALU extensions of the DMM
// they rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/factory.hpp"
#include "vm/assembler.hpp"
#include "vm/suite.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

namespace rapsim::workloads {
namespace {

using core::Scheme;

// ---- DMM ALU extensions (exercised through tiny kernels).

TEST(AluOps, LoadAddAccumulates) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 4, 4, 1);
  dmm::Dmm machine(dmm::DmmConfig{4, 1}, *map);
  machine.store(0, 10);
  machine.store(1, 32);
  dmm::Kernel k{1, {}, {}};
  k.push({dmm::ThreadOp::load(0)});
  k.push({dmm::ThreadOp::load_add(1)});
  k.push({dmm::ThreadOp::store(2)});
  machine.run(k);
  EXPECT_EQ(machine.load(2), 42u);
}

TEST(AluOps, LoadMulAddUsesSecondRegister) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 4, 4, 1);
  dmm::Dmm machine(dmm::DmmConfig{4, 1}, *map);
  machine.store(0, 6);
  machine.store(1, 7);
  dmm::Kernel k{1, {}, {}};
  k.push({dmm::ThreadOp::load(0, 1)});             // r1 = 6
  k.push({dmm::ThreadOp::load_mul_add(1, 0, 1)});  // r0 += r1 * mem[1]
  k.push({dmm::ThreadOp::store(2, 0)});
  machine.run(k);
  EXPECT_EQ(machine.load(2), 42u);
}

TEST(AluOps, MinMaxSwapsWhenOutOfOrder) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 4, 4, 1);
  dmm::Dmm machine(dmm::DmmConfig{4, 1}, *map);
  machine.store(0, 9);
  machine.store(1, 3);
  dmm::Kernel k{1, {}, {}};
  k.push({dmm::ThreadOp::load(0, 0)});
  k.push({dmm::ThreadOp::load(1, 1)});
  k.push({dmm::ThreadOp::min_max(0, 1)});
  k.push({dmm::ThreadOp::store(2, 0)});
  k.push({dmm::ThreadOp::store(3, 1)});
  machine.run(k);
  EXPECT_EQ(machine.load(2), 3u);  // min
  EXPECT_EQ(machine.load(3), 9u);  // max
}

TEST(AluOps, RegisterOnlyInstructionsAreFree) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 4, 4, 1);
  dmm::Dmm machine(dmm::DmmConfig{4, 5}, *map);
  dmm::Kernel with_alu{4, {}, {}};
  dmm::Row load(4), alu(4), store(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    load[t] = dmm::ThreadOp::load(t, 0);
    alu[t] = dmm::ThreadOp::min_max(0, 1);
    store[t] = dmm::ThreadOp::store(4 + t, 0);
  }
  with_alu.push(load);
  with_alu.push(alu);
  with_alu.push(store);
  const auto stats = machine.run(with_alu);
  EXPECT_EQ(stats.dispatches, 2u);  // only the memory instructions
  EXPECT_EQ(stats.total_stages, 2u);
}

TEST(AluOps, MixingRegisterAndMemoryOpsThrows) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 4, 4, 1);
  dmm::Dmm machine(dmm::DmmConfig{4, 1}, *map);
  dmm::Kernel k{4, {}, {}};
  dmm::Row mixed(4);
  mixed[0] = dmm::ThreadOp::load(0);
  mixed[1] = dmm::ThreadOp::min_max(0, 1);
  k.push(std::move(mixed));
  EXPECT_THROW(machine.run(k), std::invalid_argument);
}

TEST(AluOps, RegisterIndexOutOfRangeThrows) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 4, 4, 1);
  dmm::Dmm machine(dmm::DmmConfig{4, 1}, *map);
  dmm::Kernel k{1, {}, {}};
  k.push({dmm::ThreadOp::load(0, dmm::kRegistersPerThread)});
  EXPECT_THROW(machine.run(k), std::out_of_range);
}

// ---- The catalog: every program against its reference.

/// Runs `program` under `scheme` at every seed x latency and expects the
/// reference to accept each final memory.
void expect_matches_reference(const std::string& name,
                              const vm::LoweredProgram& program,
                              const Reference& reference, Scheme scheme,
                              std::initializer_list<std::uint64_t> seeds,
                              std::initializer_list<std::uint32_t> latencies) {
  for (const std::uint64_t seed : seeds) {
    for (const std::uint32_t latency : latencies) {
      EXPECT_TRUE(
          run_program(program, reference, scheme, latency, seed).correct)
          << name << " " << core::scheme_name(scheme)
          << " w=" << program.width << " rows=" << program.rows
          << " seed=" << seed << " l=" << latency;
    }
  }
}

/// The catalog entry `name` at width `width`, lowered at a problem size
/// of the caller's choosing (its `text`), checked by the entry's
/// reference.
void expect_catalog_reference_holds(
    const char* name, const std::string& text, std::uint32_t width,
    Scheme scheme, std::initializer_list<std::uint64_t> seeds,
    std::initializer_list<std::uint32_t> latencies) {
  expect_matches_reference(name, vm::lower_program(vm::assemble(text, width)),
                           workload_program(name, width).reference, scheme,
                           seeds, latencies);
}

struct CatalogCase {
  std::string name;
  std::uint32_t width = 0;
  Scheme scheme = Scheme::kRaw;
};

void PrintTo(const CatalogCase& c, std::ostream* out) {
  *out << c.name << " " << core::scheme_name(c.scheme) << " w=" << c.width;
}

std::vector<CatalogCase> catalog_cases() {
  std::vector<CatalogCase> cases;
  for (const std::uint32_t width : {8u, 16u, 32u}) {
    for (const Workload& entry : workload_programs(width)) {
      for (const Scheme scheme :
           {Scheme::kRaw, Scheme::kPad, Scheme::kRas, Scheme::kRap}) {
        cases.push_back({entry.name, width, scheme});
      }
    }
  }
  return cases;
}

class CatalogCorrectness : public ::testing::TestWithParam<CatalogCase> {};

TEST_P(CatalogCorrectness, MatchesReference) {
  const CatalogCase& c = GetParam();
  const Workload entry = workload_program(c.name, c.width);
  expect_matches_reference(
      entry.name, vm::lower_program(vm::assemble(entry.text, c.width)),
      entry.reference, c.scheme, {1, 7, 43, 44, 45}, {1, 2});
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, CatalogCorrectness, ::testing::ValuesIn(catalog_cases()),
    [](const auto& param_info) {
      std::string name = param_info.param.name + "_" +
                         core::scheme_name(param_info.param.scheme) + "_w" +
                         std::to_string(param_info.param.width);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(CatalogReference, RejectsUnrunAndCorruptedImages) {
  constexpr std::uint64_t kSeed = 3;
  for (const std::uint32_t w : {4u, 8u, 32u}) {
    for (const Workload& entry : workload_programs(w)) {
      const Reference& reference = entry.reference;
      const vm::LoweredProgram program =
          vm::lower_program(vm::assemble(entry.text, w));
      const std::uint64_t words = program.rows * w;
      const std::vector<std::uint64_t> input =
          reference.fill(w, words, kSeed);
      ASSERT_EQ(input.size(), words) << entry.name;
      EXPECT_FALSE(reference.check(w, kSeed, input))
          << entry.name << " w=" << w << ": accepts its own input";

      const auto map = core::make_matrix_map(Scheme::kRaw, w, program.rows, 1);
      dmm::Dmm machine(dmm::DmmConfig{w, 1}, *map);
      ASSERT_TRUE(run_program(program, reference, machine, kSeed).correct)
          << entry.name << " w=" << w;
      std::vector<std::uint64_t> output(words);
      for (std::uint64_t i = 0; i < words; ++i) output[i] = machine.load(i);
      // The lowest word the run changed is an output word: flip one bit.
      const auto changed = static_cast<std::size_t>(
          std::mismatch(input.begin(), input.end(), output.begin()).first -
          input.begin());
      ASSERT_LT(changed, output.size()) << entry.name << ": run wrote nothing";
      output[changed] ^= 1;
      EXPECT_FALSE(reference.check(w, kSeed, output))
          << entry.name << " w=" << w << ": misses a flipped word "
          << changed;
    }
  }
}

TEST(WorkloadCatalog, UnknownNameListsEveryAcceptedName) {
  for (const std::uint32_t w : {4u, 32u}) {
    std::vector<std::string> accepted;
    for (const Workload& entry : workload_programs(w)) {
      accepted.push_back(entry.name);
      if (entry.name == "bitonic" && w >= 8) accepted.push_back("vm-bitonic");
    }
    std::string expected = "unknown workload 'nope' (known: ";
    for (const std::string& name : accepted) {
      expected += name + (name == accepted.back() ? ")" : ", ");
      EXPECT_EQ(workload_program(name, w).name, name) << "w=" << w;
    }
    try {
      (void)workload_program("nope", w);
      ADD_FAILURE() << "w=" << w << ": an unknown name resolved";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), expected);
    }
  }
  EXPECT_EQ(workload_program("vm-bitonic", 16).text,
            vm::suite_program("vm-bitonic", 16).text);
}

// The per-workload sweeps below run the same harness and the catalog's
// references over grids that also reach sizes and widths the catalog's
// n = 8w, w >= 8 instances do not: transposes at w = 2 and 4, reduction
// and bitonic at n = 2w and 32w, matmul at w = 4.

constexpr const char* kTransposeLabels[] = {"CRSW", "SRCW", "DRDW"};
constexpr const char* kTransposeNames[] = {"transpose-crsw", "transpose-srcw",
                                           "transpose-drdw"};

class TransposeCorrectness
    : public ::testing::TestWithParam<
          std::tuple<vm::TransposeAlgorithm, Scheme, std::uint32_t>> {};

TEST_P(TransposeCorrectness, ProducesExactTranspose) {
  const auto [algorithm, scheme, width] = GetParam();
  const char* name = kTransposeNames[static_cast<int>(algorithm)];
  expect_catalog_reference_holds(name, vm::transpose_text(algorithm, width),
                                 width, scheme, {1, 7, 1234567}, {2});
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TransposeCorrectness,
    ::testing::Combine(::testing::Values(vm::TransposeAlgorithm::kCrsw,
                                         vm::TransposeAlgorithm::kSrcw,
                                         vm::TransposeAlgorithm::kDrdw),
                       ::testing::Values(Scheme::kRaw, Scheme::kRas,
                                         Scheme::kRap),
                       ::testing::Values(2u, 4u, 8u, 16u, 32u)),
    [](const auto& param_info) {
      return std::string(kTransposeLabels[static_cast<int>(
                 std::get<0>(param_info.param))]) +
             "_" + core::scheme_name(std::get<1>(param_info.param)) + "_w" +
             std::to_string(std::get<2>(param_info.param));
    });

// ---- Reduction.

constexpr const char* kReductionLabels[] = {"interleaved", "sequential"};
constexpr const char* kReductionNames[] = {"reduction-interleaved",
                                           "reduction-sequential"};

class ReductionCorrectness
    : public ::testing::TestWithParam<
          std::tuple<vm::ReductionVariant, Scheme, std::uint64_t>> {};

TEST_P(ReductionCorrectness, ComputesTheSum) {
  const auto [variant, scheme, n] = GetParam();
  expect_catalog_reference_holds(kReductionNames[static_cast<int>(variant)],
                                 vm::reduction_text(variant, n, 8), 8, scheme,
                                 {1, 9}, {2});
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReductionCorrectness,
    ::testing::Combine(::testing::Values(vm::ReductionVariant::kInterleaved,
                                         vm::ReductionVariant::kSequential),
                       ::testing::Values(Scheme::kRaw, Scheme::kRas,
                                         Scheme::kRap, Scheme::kPad),
                       ::testing::Values(16ull, 64ull, 256ull)),
    [](const auto& param_info) {
      return std::string(kReductionLabels[static_cast<int>(
                 std::get<0>(param_info.param))]) +
             "_" + core::scheme_name(std::get<1>(param_info.param)) + "_n" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(Reduction, RejectsBadSizes) {
  // The program generator rejects them before anything is lowered.
  using vm::ReductionVariant;
  EXPECT_THROW((void)vm::reduction_text(ReductionVariant::kSequential, 24, 8),
               std::invalid_argument);
  EXPECT_THROW((void)vm::reduction_text(ReductionVariant::kSequential, 4, 8),
               std::invalid_argument);
}

TEST(Reduction, InterleavedConflictsUnderRawNotUnderRap) {
  constexpr std::uint64_t n = 1024;
  constexpr std::uint32_t w = 32;
  const Reference reference =
      workload_program("reduction-interleaved", w).reference;
  const auto lowered = [&](vm::ReductionVariant variant) {
    return vm::lower_program(
        vm::assemble(vm::reduction_text(variant, n, w), w));
  };
  const vm::LoweredProgram interleaved =
      lowered(vm::ReductionVariant::kInterleaved);
  const vm::LoweredProgram sequential =
      lowered(vm::ReductionVariant::kSequential);
  const auto raw = run_program(interleaved, reference, Scheme::kRaw, 1, 1);
  const auto seq = run_program(sequential, reference, Scheme::kRaw, 1, 1);
  // Interleaved RAW hits growing power-of-two strides.
  EXPECT_GT(raw.stats.max_congestion, 8u);
  EXPECT_EQ(seq.stats.max_congestion, 1u);

  double rap_time = 0;
  constexpr int kSeeds = 10;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const auto rap = run_program(interleaved, reference, Scheme::kRap, 1,
                                 static_cast<std::uint64_t>(seed));
    EXPECT_TRUE(rap.correct);
    EXPECT_LE(rap.stats.max_congestion, 12u);
    rap_time += static_cast<double>(rap.stats.time);
  }
  EXPECT_LT(rap_time / kSeeds, static_cast<double>(raw.stats.time));
}

// ---- Bitonic sort.

class BitonicCorrectness
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint64_t>> {};

TEST_P(BitonicCorrectness, SortsRandomInput) {
  const auto [scheme, n] = GetParam();
  expect_catalog_reference_holds("bitonic", vm::bitonic_text(n, 8), 8, scheme,
                                 {77}, {1});
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BitonicCorrectness,
    ::testing::Combine(::testing::Values(Scheme::kRaw, Scheme::kRas,
                                         Scheme::kRap, Scheme::kPad),
                       ::testing::Values(16ull, 64ull, 256ull)),
    [](const auto& param_info) {
      return std::string(core::scheme_name(std::get<0>(param_info.param))) +
             "_n" + std::to_string(std::get<1>(param_info.param));
    });

TEST(Bitonic, RejectsBadSizes) {
  // The program generator rejects them before anything is lowered.
  EXPECT_THROW((void)vm::bitonic_text(24, 8), std::invalid_argument);
  EXPECT_THROW((void)vm::bitonic_text(8, 8), std::invalid_argument);
}

TEST(Bitonic, SortedInputStaysSorted) {
  // Determinism check via the full pipeline: run twice, identical stats.
  const vm::LoweredProgram program =
      vm::lower_program(vm::assemble(vm::bitonic_text(128, 16), 16));
  const Reference reference = workload_program("bitonic", 16).reference;
  const auto a = run_program(program, reference, Scheme::kRap, 1, 5);
  const auto b = run_program(program, reference, Scheme::kRap, 1, 5);
  EXPECT_EQ(a.stats.time, b.stats.time);
  EXPECT_TRUE(a.correct);
}

TEST(Bitonic, RapDoesNoHarmOnAWellBehavedKernel) {
  // The VM-authored bitonic touches contiguous 2j-aligned blocks, so
  // RAW congestion is exactly 1; RAP must preserve both the result and
  // (approximately) that budget — the "no harm" half of the paper's
  // pitch. (n = 512 keeps the lane-masked network's dense kernel small;
  // the assertions are size-independent.)
  constexpr std::uint64_t n = 512;
  constexpr std::uint32_t w = 32;
  const vm::LoweredProgram program =
      vm::lower_program(vm::assemble(vm::bitonic_text(n, w), w));
  const Reference reference = workload_program("bitonic", w).reference;
  const auto raw = run_program(program, reference, Scheme::kRaw, 1, 3);
  const auto rap = run_program(program, reference, Scheme::kRap, 1, 3);
  ASSERT_TRUE(raw.correct);
  ASSERT_TRUE(rap.correct);
  EXPECT_LE(raw.stats.max_congestion, 2u);
  EXPECT_LE(rap.stats.max_congestion, 6u);  // randomized noise, small
  EXPECT_LT(static_cast<double>(rap.stats.time),
            1.5 * static_cast<double>(raw.stats.time));
}

// ---- Matmul.

constexpr const char* kMatmulLabels[] = {"row_major_B", "transposed_B"};
constexpr const char* kMatmulNames[] = {"matmul-rowmajorb",
                                        "matmul-transposedb"};

class MatmulCorrectness
    : public ::testing::TestWithParam<std::tuple<vm::MatmulLayout, Scheme>> {};

TEST_P(MatmulCorrectness, MatchesReferenceProduct) {
  const auto [layout, scheme] = GetParam();
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    expect_catalog_reference_holds(kMatmulNames[static_cast<int>(layout)],
                                   vm::matmul_text(layout, w), w, scheme,
                                   {21}, {1});
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatmulCorrectness,
    ::testing::Combine(::testing::Values(vm::MatmulLayout::kRowMajorB,
                                         vm::MatmulLayout::kTransposedB),
                       ::testing::Values(Scheme::kRaw, Scheme::kRas,
                                         Scheme::kRap, Scheme::kPad)),
    [](const auto& param_info) {
      return std::string(kMatmulLabels[static_cast<int>(
                 std::get<0>(param_info.param))]) +
             "_" + core::scheme_name(std::get<1>(param_info.param));
    });

/// The catalog's matmul `name` at width 16, lowered, run under `scheme`.
RunReport matmul16_report(const char* name, Scheme scheme) {
  const Workload entry = workload_program(name, 16);
  return run_program(vm::lower_program(vm::assemble(entry.text, 16)),
                     entry.reference, scheme, 1, 2);
}

TEST(Matmul, RowMajorIsConflictFreeEverywhere) {
  // The "RAP does no harm" check: the well-behaved layout stays
  // congestion 1 under both RAW and RAP.
  for (const Scheme s : {Scheme::kRaw, Scheme::kRap}) {
    const auto report = matmul16_report("matmul-rowmajorb", s);
    EXPECT_TRUE(report.correct) << core::scheme_name(s);
    EXPECT_EQ(report.stats.max_congestion, 1u) << core::scheme_name(s);
  }
}

TEST(Matmul, TransposedBStridesUnderRawOnly) {
  const auto raw = matmul16_report("matmul-transposedb", Scheme::kRaw);
  EXPECT_EQ(raw.stats.max_congestion, 16u);
  const auto rap = matmul16_report("matmul-transposedb", Scheme::kRap);
  EXPECT_LE(rap.stats.max_congestion, 6u);
  EXPECT_LT(rap.stats.time, raw.stats.time);
}

}  // namespace
}  // namespace rapsim::workloads
