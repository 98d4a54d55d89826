// Tests for the DMM / UMM machine simulator — including the paper's
// Figure 3 worked example and the Section III closed-form access times.

#include "dmm/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/mapping.hpp"
#include "core/permutation.hpp"
#include "dmm/umm.hpp"

namespace rapsim::dmm {
namespace {


/// Kernel in which every thread t performs a single load of address
/// addr_fn(t).
template <typename AddrFn>
Kernel single_load_kernel(std::uint32_t threads, AddrFn addr_fn) {
  Kernel k;
  k.num_threads = threads;
  Instruction instr(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    instr[t] = ThreadOp::load(addr_fn(t));
  }
  k.push(std::move(instr));
  return k;
}

TEST(DmmConfig, RejectsZeroWidthOrLatency) {
  EXPECT_THROW((DmmConfig{0, 1}).validate(), std::invalid_argument);
  EXPECT_THROW((DmmConfig{4, 0}).validate(), std::invalid_argument);
  EXPECT_NO_THROW((DmmConfig{4, 1}).validate());
}

TEST(Dmm, RejectsWidthMismatchWithMap) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  EXPECT_THROW(Dmm(DmmConfig{8, 1}, map), std::invalid_argument);
}

TEST(Dmm, HostLoadStoreRoundTrip) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 1}, map);
  machine.store(7, 99);
  EXPECT_EQ(machine.load(7), 99u);
}

TEST(Dmm, FillIdentityThroughMapping) {
  const core::AddressMap map(core::Scheme::kRap, 4, 4,
                             core::Permutation({2, 0, 3, 1}).image());
  Dmm machine(DmmConfig{4, 1}, map);
  machine.fill_identity();
  for (std::uint64_t a = 0; a < 16; ++a) EXPECT_EQ(machine.load(a), a);
}

// ---- Figure 3: w = 4, l = 5. Warp W(0) accesses {7, 5, 15, 0} (addresses
// ---- 7 and 15 share bank 3 -> 2 stages); W(1) accesses {10, 11, 12, 9}
// ---- (4 distinct banks -> 1 stage). Total pipeline occupancy 3 stages,
// ---- completion at 3 + 5 - 1 = 7 time units.
TEST(Dmm, Figure3WorkedExample) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 16 / 4);
  Dmm machine(DmmConfig{4, 5}, map);
  Kernel k;
  k.num_threads = 8;
  Instruction instr(8);
  const std::uint64_t w0[4] = {7, 5, 15, 0};
  const std::uint64_t w1[4] = {10, 11, 12, 9};
  for (std::uint32_t t = 0; t < 4; ++t) {
    instr[t] = ThreadOp::load(w0[t]);
    instr[4 + t] = ThreadOp::load(w1[t]);
  }
  k.push(std::move(instr));

  Trace trace;
  const RunStats stats = machine.run(k, &trace);
  EXPECT_EQ(stats.total_stages, 3u);
  EXPECT_EQ(stats.time, 7u);  // 3 + 5 - 1
  ASSERT_EQ(trace.dispatches.size(), 2u);
  EXPECT_EQ(trace.dispatches[0].stages, 2u);  // W(0): bank 3 twice
  EXPECT_EQ(trace.dispatches[1].stages, 1u);  // W(1): conflict-free
}

// ---- Section III closed forms on a w x w matrix with p = w^2 threads.

class AccessTimeClosedForm
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(AccessTimeClosedForm, ContiguousTakesWPlusLMinus1) {
  const auto [w, l] = GetParam();
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  Dmm machine(DmmConfig{w, l}, map);
  // Contiguous: thread t = i*w + j accesses (i, j) = address t.
  const auto k = single_load_kernel(w * w, [&](std::uint32_t t) { return t; });
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.time, w + l - 1);
  EXPECT_EQ(stats.max_congestion, 1u);
}

TEST_P(AccessTimeClosedForm, StrideTakesW2PlusLMinus1) {
  const auto [w, l] = GetParam();
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  Dmm machine(DmmConfig{w, l}, map);
  // Stride: thread t = i*w + j accesses (j, i) = address j*w + i.
  const auto k = single_load_kernel(w * w, [&](std::uint32_t t) {
    const std::uint32_t i = t / w, j = t % w;
    return static_cast<std::uint64_t>(j) * w + i;
  });
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.time, static_cast<std::uint64_t>(w) * w + l - 1);
  EXPECT_EQ(stats.max_congestion, w);
}

TEST_P(AccessTimeClosedForm, DiagonalTakesWPlusLMinus1) {
  const auto [w, l] = GetParam();
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  Dmm machine(DmmConfig{w, l}, map);
  const auto k = single_load_kernel(w * w, [&](std::uint32_t t) {
    const std::uint32_t i = t / w, j = t % w;
    return static_cast<std::uint64_t>(j) * w + (i + j) % w;
  });
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.time, w + l - 1);
  EXPECT_EQ(stats.max_congestion, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    WidthLatencySweep, AccessTimeClosedForm,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u, 32u),
                       ::testing::Values(1u, 2u, 5u, 16u)),
    [](const auto& param_info) {
      return "w" + std::to_string(std::get<0>(param_info.param)) + "_l" +
             std::to_string(std::get<1>(param_info.param));
    });

// k requests to one bank take k + l - 1 time units (Section II).
TEST(Dmm, SameBankRequestsSerialize) {
  const std::uint32_t w = 4, l = 3;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  Dmm machine(DmmConfig{w, l}, map);
  const auto k = single_load_kernel(
      w, [&](std::uint32_t t) { return static_cast<std::uint64_t>(t) * w; });
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.time, w + l - 1);
}

TEST(Dmm, MergedAccessTakesOneStage) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 2}, map);
  const auto k = single_load_kernel(4, [](std::uint32_t) { return 5ull; });
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.total_stages, 1u);
  EXPECT_EQ(stats.time, 2u);  // 1 + l - 1
}

TEST(Dmm, CrcwWriteLowestThreadWins) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 1}, map);
  Kernel k;
  k.num_threads = 4;
  Instruction instr(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    instr[t] = ThreadOp::store_imm(3, 100 + t);
  }
  k.push(std::move(instr));
  machine.run(k);
  EXPECT_EQ(machine.load(3), 100u);
}

TEST(Dmm, MixedReadWriteInOneWarpInstructionThrows) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 1}, map);
  Kernel k;
  k.num_threads = 4;
  Instruction instr(4);
  instr[0] = ThreadOp::load(0);
  instr[1] = ThreadOp::store_imm(1, 9);
  k.push(std::move(instr));
  EXPECT_THROW(machine.run(k), std::invalid_argument);
}

TEST(Dmm, LoadThenStoreMovesData) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 8);
  Dmm machine(DmmConfig{4, 2}, map);
  machine.store(2, 77);
  Kernel k;
  k.num_threads = 4;
  Instruction load(4), store(4);
  load[1] = ThreadOp::load(2);
  store[1] = ThreadOp::store(30);
  k.push(std::move(load));
  k.push(std::move(store));
  machine.run(k);
  EXPECT_EQ(machine.load(30), 77u);
}

TEST(Dmm, DependentInstructionsRespectLatency) {
  // One warp, two dependent instructions: the second cannot enter the
  // pipeline before the first completes at 1 + l - 1 = l, so it starts at
  // l + 1 and completes at (l + 1) + 1 + l - 1 = 2l + 1.
  const std::uint32_t w = 4, l = 5;
  const core::AddressMap map(core::Scheme::kRaw, w, w * 2);
  Dmm machine(DmmConfig{w, l}, map);
  Kernel k;
  k.num_threads = w;
  Instruction first(w), second(w);
  for (std::uint32_t t = 0; t < w; ++t) {
    first[t] = ThreadOp::load(t);
    second[t] = ThreadOp::store(w + t);
  }
  k.push(std::move(first));
  k.push(std::move(second));
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.time, 2ull * l + 1);
}

TEST(Dmm, IndependentWarpsPipelineWithoutWaiting) {
  // Two warps, one instruction each: dispatch back to back.
  const std::uint32_t w = 4, l = 5;
  const core::AddressMap map(core::Scheme::kRaw, w, 2);
  Dmm machine(DmmConfig{w, l}, map);
  const auto k = single_load_kernel(2 * w, [&](std::uint32_t t) {
    return static_cast<std::uint64_t>(t);
  });
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.time, 2 + l - 1);
}

TEST(Dmm, IdleInstructionsCostNothing) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 3}, map);
  Kernel k;
  k.num_threads = 4;
  k.push(Instruction(4));  // all kNone
  k.push(Instruction(4));
  Instruction real(4);
  real[0] = ThreadOp::load(0);
  k.push(std::move(real));
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.dispatches, 1u);
  EXPECT_EQ(stats.time, 3u);  // 1 + l - 1
}

TEST(Dmm, EmptyKernelRunsInZeroTime) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 3}, map);
  Kernel k;
  k.num_threads = 4;
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.time, 0u);
  EXPECT_EQ(stats.dispatches, 0u);
}

TEST(Dmm, OutOfRangeAccessThrows) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 1);
  Dmm machine(DmmConfig{4, 1}, map);
  const auto k = single_load_kernel(4, [](std::uint32_t) { return 100ull; });
  EXPECT_THROW(machine.run(k), std::out_of_range);
}

TEST(Trace, CsvExportHasHeaderAndOneLinePerDispatch) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 2}, map);
  const auto k = single_load_kernel(8, [](std::uint32_t t) {
    return static_cast<std::uint64_t>(t % 4);
  });
  Trace trace;
  machine.run(k, &trace);
  const std::string csv = trace.to_csv();
  EXPECT_EQ(csv.rfind("warp,instruction,start,stages,completion", 0), 0u);
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), trace.dispatches.size() + 1);
}

TEST(Kernel, PushRejectsWrongArity) {
  Kernel k;
  k.num_threads = 4;
  EXPECT_THROW(k.push(Instruction(3)), std::invalid_argument);
}

/// Every instruction's index entry, as plain vectors (comparable).
std::vector<std::vector<std::uint32_t>> index_of(const Kernel& k) {
  std::vector<std::vector<std::uint32_t>> out;
  for (std::size_t i = 0; i < k.instructions.size(); ++i) {
    const auto threads = k.active_threads(i);
    out.emplace_back(threads.begin(), threads.end());
  }
  return out;
}

TEST(Kernel, PushAndBarrierMaintainTheActiveIndex) {
  Kernel k;
  k.num_threads = 6;
  Instruction sparse(6);
  sparse[1] = ThreadOp::load(3);
  sparse[4] = ThreadOp::min_max(0, 1);
  k.push(sparse);
  k.push(Instruction(6));  // all idle
  k.push_barrier();
  ASSERT_TRUE(k.indexed());
  using Threads = std::vector<std::uint32_t>;
  EXPECT_EQ(index_of(k), (std::vector<Threads>{
                             {1, 4}, {}, {0, 1, 2, 3, 4, 5}}));
  // One warp's slice of an instruction: ids in [first, last).
  const auto slice = k.active_threads(0, 2, 6);
  EXPECT_EQ(Threads(slice.begin(), slice.end()), Threads{4});
  EXPECT_TRUE(k.active_threads(0, 5, 6).empty());

  // The constructor indexes the rows it is given.
  const Kernel built(6, {sparse, Instruction(6)});
  EXPECT_EQ(index_of(built), (std::vector<Threads>{{1, 4}, {}}));
  EXPECT_THROW(Kernel(6, {Instruction(5)}), std::invalid_argument);
}

TEST(Kernel, ReindexRebuildsAfterAnInPlaceEdit) {
  Kernel k(4, {Instruction(4), Instruction(4)});
  k.instructions[1][2] = ThreadOp::store(1);
  k.instructions.push_back(Instruction(4, ThreadOp::load(0)));
  EXPECT_FALSE(k.indexed());
  k.reindex();
  ASSERT_TRUE(k.indexed());
  using Threads = std::vector<std::uint32_t>;
  EXPECT_EQ(index_of(k),
            (std::vector<Threads>{{}, {2}, {0, 1, 2, 3}}));
}

TEST(Kernel, StaleIndexIsRejected) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 2}, map);

  // An instruction appended behind the index's back: not covered.
  Kernel uncovered = single_load_kernel(4, [](std::uint32_t t) {
    return static_cast<std::uint64_t>(t);
  });
  uncovered.instructions.push_back(uncovered.instructions[0]);
  machine.begin_run(uncovered);
  EXPECT_THROW(KernelWarpSource(machine, uncovered), std::logic_error);
  EXPECT_THROW(machine.run(uncovered), std::logic_error);
  EXPECT_THROW((void)machine.warp_access(uncovered, 0, 0), std::logic_error);

  // A row edited in place so an indexed thread went idle.
  Kernel edited = single_load_kernel(4, [](std::uint32_t t) {
    return static_cast<std::uint64_t>(t);
  });
  edited.instructions[0][2] = ThreadOp::none();
  EXPECT_THROW(machine.run(edited), std::logic_error);
  edited.reindex();
  EXPECT_EQ(machine.run(edited).dispatches, 1u);
}

TEST(Kernel, SetActiveIndexRejectsMalformedShapes) {
  Kernel k(4, {Instruction(4), Instruction(4)});
  // Wrong instruction count, end past the thread list, descending ends,
  // unsorted ids and an id past num_threads.
  EXPECT_THROW(k.set_active_index({0}, {}), std::invalid_argument);
  EXPECT_THROW(k.set_active_index({0, 2}, {1}), std::invalid_argument);
  EXPECT_THROW(k.set_active_index({2, 1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(k.set_active_index({2, 2}, {2, 1}), std::invalid_argument);
  EXPECT_THROW(k.set_active_index({1, 1}, {4}), std::invalid_argument);
  k.instructions[0][1] = ThreadOp::load(0);
  k.instructions[0][3] = ThreadOp::load(1);
  k.set_active_index({2, 2}, {1, 3});
  EXPECT_EQ(index_of(k),
            (std::vector<std::vector<std::uint32_t>>{{1, 3}, {}}));
}

// ---- UMM contrast: stride access touches w distinct rows -> w slots on
// ---- the UMM too, but *contiguous* access also costs 1 row... while an
// ---- access to one column of a row-major matrix costs w rows on both.
// ---- The discriminating case: w threads accessing w distinct addresses
// ---- in ONE row — DMM does it in 1 slot; UMM also 1 (same row). And w
// ---- threads accessing the same bank across w rows: both w. The real
// ---- difference: w threads on addresses {0, 5, 10, 15} (w = 4, distinct
// ---- banks AND distinct rows): DMM 1 slot, UMM 4 slots.
TEST(Umm, BroadcastRowAccounting) {
  const std::uint32_t w = 4, l = 2;
  const core::AddressMap map(core::Scheme::kRaw, w, w);

  const auto diagonal = single_load_kernel(w, [&](std::uint32_t t) {
    return static_cast<std::uint64_t>(t) * w + t;  // distinct rows and banks
  });

  Dmm dmm(dmm_config(w, l), map);
  const RunStats on_dmm = dmm.run(diagonal);
  EXPECT_EQ(on_dmm.total_stages, 1u);

  Umm umm(umm_config(w, l), map);
  const RunStats on_umm = umm.run(diagonal);
  EXPECT_EQ(on_umm.total_stages, 4u);
  EXPECT_EQ(on_umm.time, 4 + l - 1);
}

TEST(Umm, SameRowIsOneSlot) {
  const std::uint32_t w = 4, l = 2;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  Umm umm(umm_config(w, l), map);
  const auto k = single_load_kernel(
      w, [&](std::uint32_t t) { return static_cast<std::uint64_t>(t); });
  const RunStats stats = umm.run(k);
  EXPECT_EQ(stats.total_stages, 1u);
}

}  // namespace
}  // namespace rapsim::dmm
