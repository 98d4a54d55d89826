// Tests for the workloads library: reduction, bitonic sort, matmul, and
// the register-file / ALU extensions of the DMM they rely on.

#include <gtest/gtest.h>

#include <tuple>

#include "core/factory.hpp"
#include "workloads/bitonic.hpp"
#include "workloads/matmul.hpp"
#include "workloads/reduction.hpp"

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

// ---- Reduction.

class ReductionCorrectness
    : public ::testing::TestWithParam<
          std::tuple<ReductionVariant, Scheme, std::uint64_t>> {};

TEST_P(ReductionCorrectness, ComputesTheSum) {
  const auto [variant, scheme, n] = GetParam();
  for (std::uint64_t seed : {1ull, 9ull}) {
    const auto report = run_reduction(variant, scheme, n, 8, 2, seed);
    EXPECT_TRUE(report.correct)
        << reduction_variant_name(variant) << " " << core::scheme_name(scheme)
        << " n=" << n << ": got " << report.sum;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReductionCorrectness,
    ::testing::Combine(::testing::Values(ReductionVariant::kInterleaved,
                                         ReductionVariant::kSequential),
                       ::testing::Values(Scheme::kRaw, Scheme::kRas,
                                         Scheme::kRap, Scheme::kPad),
                       ::testing::Values(16ull, 64ull, 256ull)),
    [](const auto& param_info) {
      return std::string(
                 reduction_variant_name(std::get<0>(param_info.param))) +
             "_" + core::scheme_name(std::get<1>(param_info.param)) + "_n" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(Reduction, RejectsBadSizes) {
  EXPECT_THROW(build_reduction_kernel(ReductionVariant::kSequential, 24, 8),
               std::invalid_argument);
  EXPECT_THROW(build_reduction_kernel(ReductionVariant::kSequential, 4, 8),
               std::invalid_argument);
}

TEST(Reduction, InterleavedConflictsUnderRawNotUnderRap) {
  constexpr std::uint64_t n = 1024;
  constexpr std::uint32_t w = 32;
  const auto raw =
      run_reduction(ReductionVariant::kInterleaved, Scheme::kRaw, n, w, 1, 1);
  const auto seq =
      run_reduction(ReductionVariant::kSequential, Scheme::kRaw, n, w, 1, 1);
  // Interleaved RAW hits growing power-of-two strides.
  EXPECT_GT(raw.stats.max_congestion, 8u);
  EXPECT_EQ(seq.stats.max_congestion, 1u);

  double rap_time = 0;
  constexpr int kSeeds = 10;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const auto rap = run_reduction(ReductionVariant::kInterleaved,
                                   Scheme::kRap, n, w, 1,
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
  const auto report = run_bitonic_sort(scheme, n, 8, 1, 77);
  EXPECT_TRUE(report.sorted) << core::scheme_name(scheme) << " n=" << n;
  EXPECT_TRUE(report.is_permutation);
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
  EXPECT_THROW(build_bitonic_kernel(24, 8), std::invalid_argument);
  EXPECT_THROW(build_bitonic_kernel(8, 8), std::invalid_argument);
}

TEST(Bitonic, SortedInputStaysSorted) {
  // Determinism check via the full pipeline: run twice, identical stats.
  const auto a = run_bitonic_sort(Scheme::kRap, 128, 16, 1, 5);
  const auto b = run_bitonic_sort(Scheme::kRap, 128, 16, 1, 5);
  EXPECT_EQ(a.stats.time, b.stats.time);
  EXPECT_TRUE(a.sorted);
}

TEST(Bitonic, RapDoesNoHarmOnAWellBehavedKernel) {
  // The VM-authored bitonic touches contiguous 2j-aligned blocks, so
  // RAW congestion is exactly 1; RAP must preserve both the result and
  // (approximately) that budget — the "no harm" half of the paper's
  // pitch. (n = 512 keeps the lane-masked network's dense kernel small;
  // the assertions are size-independent.)
  constexpr std::uint64_t n = 512;
  constexpr std::uint32_t w = 32;
  const auto raw = run_bitonic_sort(Scheme::kRaw, n, w, 1, 3);
  const auto rap = run_bitonic_sort(Scheme::kRap, n, w, 1, 3);
  ASSERT_TRUE(raw.sorted);
  ASSERT_TRUE(rap.sorted);
  EXPECT_LE(raw.stats.max_congestion, 2u);
  EXPECT_LE(rap.stats.max_congestion, 6u);  // randomized noise, small
  EXPECT_LT(static_cast<double>(rap.stats.time),
            1.5 * static_cast<double>(raw.stats.time));
}

// ---- Matmul.

class MatmulCorrectness
    : public ::testing::TestWithParam<std::tuple<MatmulLayout, Scheme>> {};

TEST_P(MatmulCorrectness, MatchesReferenceProduct) {
  const auto [layout, scheme] = GetParam();
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    const auto report = run_matmul(layout, scheme, w, 1, 21);
    EXPECT_TRUE(report.correct)
        << matmul_layout_name(layout) << " " << core::scheme_name(scheme)
        << " w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatmulCorrectness,
    ::testing::Combine(::testing::Values(MatmulLayout::kRowMajorB,
                                         MatmulLayout::kTransposedB),
                       ::testing::Values(Scheme::kRaw, Scheme::kRas,
                                         Scheme::kRap, Scheme::kPad)),
    [](const auto& param_info) {
      std::string name =
          matmul_layout_name(std::get<0>(param_info.param));
      for (auto& ch : name) {
        if (ch == ' ' || ch == '-') ch = '_';
      }
      return name + "_" +
             std::string(core::scheme_name(std::get<1>(param_info.param)));
    });

TEST(Matmul, RowMajorIsConflictFreeEverywhere) {
  // The "RAP does no harm" check: the well-behaved layout stays
  // congestion 1 under both RAW and RAP.
  for (const Scheme s : {Scheme::kRaw, Scheme::kRap}) {
    const auto report = run_matmul(MatmulLayout::kRowMajorB, s, 16, 1, 2);
    EXPECT_EQ(report.stats.max_congestion, 1u) << core::scheme_name(s);
  }
}

TEST(Matmul, TransposedBStridesUnderRawOnly) {
  const auto raw = run_matmul(MatmulLayout::kTransposedB, Scheme::kRaw, 16, 1, 2);
  EXPECT_EQ(raw.stats.max_congestion, 16u);
  const auto rap = run_matmul(MatmulLayout::kTransposedB, Scheme::kRap, 16, 1, 2);
  EXPECT_LE(rap.stats.max_congestion, 6u);
  EXPECT_LT(rap.stats.time, raw.stats.time);
}

}  // namespace
}  // namespace rapsim::workloads
