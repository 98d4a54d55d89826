// Tests for the DMM / UMM machine simulator — including the paper's
// Figure 3 worked example and the Section III closed-form access times.

#include "dmm/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/mapping.hpp"
#include "core/permutation.hpp"
#include "dmm/umm.hpp"
#include "util/rng.hpp"

namespace rapsim::dmm {
namespace {


/// Kernel in which every thread t performs a single load of address
/// addr_fn(t).
template <typename AddrFn>
Kernel single_load_kernel(std::uint32_t threads, AddrFn addr_fn) {
  Kernel k;
  k.num_threads = threads;
  Row instr(threads);
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
  Row instr(8);
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
  Row instr(4);
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
  Row instr(4);
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
  Row load(4), store(4);
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
  Row first(w), second(w);
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
  k.push(Row(4));  // all kNone
  k.push(Row(4));
  Row real(4);
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

TEST(Dmm, AddressAccessCostsLikeTheKernelAccessButMovesNoData) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 1}, map);
  EXPECT_EQ(machine.load(5), 0u);  // no image yet: every word reads 0
  machine.store(5, 42);
  // Lanes 0 and 1 merge on address 5, which shares bank 1 with 9.
  const std::vector<std::uint32_t> lanes = {0, 1, 2};
  const std::vector<std::uint64_t> addrs = {5, 5, 9};
  machine.begin_run(4);
  const Dmm::WarpAccess write = machine.perform_warp_access(
      CapturedOpClass::kWrite, lanes, addrs, 0, 0);
  EXPECT_EQ(write.congestion, 2u);
  EXPECT_EQ(write.unique_requests, 2u);
  EXPECT_EQ(write.active_threads, 3u);
  // Atomics serialize instead of merging.
  EXPECT_EQ(machine
                .perform_warp_access(CapturedOpClass::kAtomic, lanes, addrs,
                                     1, 0)
                .congestion,
            3u);
  EXPECT_EQ(machine.load(5), 42u);
  EXPECT_EQ(machine.load(9), 0u);
  EXPECT_THROW((void)machine.perform_warp_access(
                   CapturedOpClass::kWrite, lanes,
                   std::span(addrs).first(2), 0, 0),
               std::invalid_argument);

  // The kernel entry needs the register file begin_run(kernel) makes;
  // then it prices the same writes alike and moves their data.
  const std::vector<ThreadOp> ops = {
      ThreadOp::store_imm(5, 7), ThreadOp::store_imm(5, 8),
      ThreadOp::store_imm(9, 9)};
  EXPECT_THROW((void)machine.perform_warp_access(lanes, ops, 0, 0),
               std::logic_error);
  machine.begin_run(Kernel(4));
  EXPECT_EQ(machine.perform_warp_access(lanes, ops, 0, 0).congestion, 2u);
  EXPECT_EQ(machine.load(5), 7u);
  EXPECT_EQ(machine.load(9), 9u);
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
  EXPECT_THROW(k.push(Row(3)), std::invalid_argument);
}

/// Every instruction's active thread ids, as plain vectors (comparable).
std::vector<std::vector<std::uint32_t>> threads_of(const Kernel& k) {
  std::vector<std::vector<std::uint32_t>> out;
  for (const Instruction instr : k.instructions) {
    out.emplace_back(instr.threads().begin(), instr.threads().end());
  }
  return out;
}

bool same_op(const ThreadOp& a, const ThreadOp& b) {
  return a.kind == b.kind && a.logical == b.logical &&
         a.immediate == b.immediate && a.reg == b.reg && a.reg2 == b.reg2;
}

TEST(Kernel, PushAndBarrierMaintainTheActiveIndex) {
  Kernel k;
  k.num_threads = 6;
  Row sparse(6);
  sparse[1] = ThreadOp::load(3);
  sparse[4] = ThreadOp::min_max(0, 1);
  k.push(sparse);
  k.push(Row(6));  // all idle
  k.push_barrier();
  using Threads = std::vector<std::uint32_t>;
  EXPECT_EQ(threads_of(k), (std::vector<Threads>{
                               {1, 4}, {}, {0, 1, 2, 3, 4, 5}}));
  EXPECT_TRUE(k.instructions[1].empty());
  for (const ThreadOp& op : k.instructions[2]) {
    EXPECT_EQ(op.kind, OpKind::kBarrier);
  }
  // One warp's slice of an instruction: ids in [first, last), with their
  // ops side by side.
  const Instruction slice = k.instructions[0].slice(2, 6);
  EXPECT_EQ(Threads(slice.threads().begin(), slice.threads().end()),
            Threads{4});
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_TRUE(same_op(slice[0], ThreadOp::min_max(0, 1)));
  EXPECT_TRUE(k.instructions[0].slice(5, 6).empty());

  // The constructor pushes the rows it is given.
  const Kernel built(6, {sparse, Row(6)});
  EXPECT_EQ(threads_of(built), (std::vector<Threads>{{1, 4}, {}}));
  EXPECT_THROW(Kernel(6, {Row(5)}), std::invalid_argument);
}

TEST(Kernel, PushKeepsExactlyTheNonIdleSlotsInAscendingOrder) {
  // Random rows of every op kind with random idle slots: the store holds
  // each row's non-kNone slots, in ascending thread order, op for op.
  util::Pcg32 rng(7);
  const std::uint32_t threads = 37;
  Kernel k(threads);
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    Row row(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
      const auto addr = std::uint64_t{rng.bounded(1000)};
      switch (rng.bounded(5)) {
        case 0: break;  // idle
        case 1: row[t] = ThreadOp::load(addr, 1); break;
        case 2: row[t] = ThreadOp::store_imm(addr, rng()); break;
        case 3: row[t] = ThreadOp::load_mul_add(addr, 2, 3); break;
        default: row[t] = ThreadOp::min_max(1, 2); break;
      }
    }
    rows.push_back(row);
    k.push(std::move(row), "i" + std::to_string(i));
  }
  ASSERT_EQ(k.instructions.size(), rows.size());
  ASSERT_EQ(k.labels.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Instruction instr = k.instructions[i];
    std::size_t next = 0;
    for (std::uint32_t t = 0; t < threads; ++t) {
      if (rows[i][t].kind == OpKind::kNone) continue;
      ASSERT_LT(next, instr.size()) << "instr " << i;
      EXPECT_EQ(instr.threads()[next], t) << "instr " << i;
      EXPECT_TRUE(same_op(instr[next], rows[i][t]))
          << "instr " << i << " thread " << t;
      ++next;
    }
    EXPECT_EQ(next, instr.size()) << "instr " << i;
    EXPECT_EQ(k.labels[i], "i" + std::to_string(i));
  }
}

TEST(Kernel, StoreIsReadOnlyAndBuildersAgree) {
  // No in-place edit can make the store disagree with itself: a table
  // element is a view by value over const ops.
  Kernel k = single_load_kernel(4, [](std::uint32_t t) {
    return static_cast<std::uint64_t>(t);
  });
  static_assert(std::is_same_v<decltype(k.instructions[0]), Instruction>);
  static_assert(
      !std::is_assignable_v<decltype((k.instructions[0][0])), ThreadOp>);

  // A row with an idle slot runs only its active lanes...
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 2}, map);
  Row row(4, ThreadOp::load(1));
  row[2] = ThreadOp::none();
  Kernel pushed(4);
  pushed.push(row);
  Trace pushed_trace;
  EXPECT_EQ(machine.run(pushed, &pushed_trace).dispatches, 1u);
  ASSERT_EQ(pushed_trace.dispatches.size(), 1u);
  EXPECT_EQ(pushed_trace.dispatches[0].active_threads, 3u);
  machine.begin_run(pushed);
  KernelWarpSource source(machine, pushed);
  EXPECT_EQ(source.issue(0).active_threads, 3u);

  // ...and the same instruction handed over sparse is the same kernel:
  // same ops, same run, same dispatch trace.
  const Kernel sparse = Kernel::from_sparse(
      4, {3}, {0, 1, 3},
      {ThreadOp::load(1), ThreadOp::load(1), ThreadOp::load(1)});
  EXPECT_EQ(threads_of(sparse), threads_of(pushed));
  Trace sparse_trace;
  const RunStats a = machine.run(sparse, &sparse_trace);
  const RunStats b = machine.run(pushed);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(sparse_trace.to_csv(), pushed_trace.to_csv());

  // A copy owns its store: pushing to it leaves the original unchanged.
  Kernel copy = pushed;
  copy.push_barrier();
  EXPECT_EQ(copy.instructions.size(), 2u);
  EXPECT_EQ(pushed.instructions.size(), 1u);
  EXPECT_EQ(threads_of(pushed), threads_of(sparse));
}

TEST(Kernel, FromSparseRejectsMalformedShapes) {
  const auto op = ThreadOp::load(0);
  // Ends past the ops, threads and ops of different lengths, descending
  // ends, unsorted ids, a duplicate id, an id past num_threads and an
  // idle op.
  EXPECT_THROW((void)Kernel::from_sparse(4, {0, 2}, {1}, {op}),
               std::invalid_argument);
  EXPECT_THROW((void)Kernel::from_sparse(4, {1}, {1}, {op, op}),
               std::invalid_argument);
  EXPECT_THROW((void)Kernel::from_sparse(4, {}, {1}, {op}),
               std::invalid_argument);
  EXPECT_THROW((void)Kernel::from_sparse(4, {2, 1}, {1, 2}, {op, op}),
               std::invalid_argument);
  EXPECT_THROW((void)Kernel::from_sparse(4, {2, 2}, {2, 1}, {op, op}),
               std::invalid_argument);
  EXPECT_THROW((void)Kernel::from_sparse(4, {2, 2}, {1, 1}, {op, op}),
               std::invalid_argument);
  EXPECT_THROW((void)Kernel::from_sparse(4, {1, 1}, {4}, {op}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)Kernel::from_sparse(4, {2, 2}, {1, 3}, {op, ThreadOp::none()}),
      std::invalid_argument);
  // Ids ascend within an instruction, not across: {3} then {0, 2}.
  const Kernel k =
      Kernel::from_sparse(4, {2, 2, 3}, {1, 3, 0}, {op, ThreadOp::load(1), op});
  EXPECT_EQ(threads_of(k),
            (std::vector<std::vector<std::uint32_t>>{{1, 3}, {}, {0}}));
  EXPECT_EQ(k.instructions[0][1].logical, 1u);
  EXPECT_TRUE(Kernel::from_sparse(4, {}, {}, {}).instructions.empty());
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
