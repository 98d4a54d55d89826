// Tests for the block-wide barrier (__syncthreads) semantics of the DMM.

#include <gtest/gtest.h>

#include "core/mapping.hpp"
#include "dmm/machine.hpp"
#include "dmm/umm.hpp"

namespace rapsim::dmm {
namespace {


TEST(Barrier, PushBarrierAppendsFullWidthBarrier) {
  Kernel k{8, {}, {}};
  k.push_barrier();
  ASSERT_EQ(k.instructions.size(), 1u);
  for (const auto& op : k.instructions[0]) {
    EXPECT_EQ(op.kind, OpKind::kBarrier);
  }
}

TEST(Barrier, BarrierOnlyKernelCompletesInZeroTime) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 5}, map);
  Kernel k{8, {}, {}};
  k.push_barrier();
  k.push_barrier();
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.time, 0u);
  EXPECT_EQ(stats.dispatches, 0u);
}

TEST(Barrier, OrdersCrossWarpProducerConsumer) {
  // Warp 0 writes a value that warp 1 reads after a barrier. Warp 0's
  // write is delayed behind a long serialized prefix; without the barrier
  // the scheduler would let warp 1's read run first (and read 0).
  const std::uint32_t w = 4, l = 8;
  const core::AddressMap map(core::Scheme::kRaw, w, 8);
  Dmm machine(DmmConfig{w, l}, map);

  Kernel k{2 * w, {}, {}};
  // Instruction 0: warp 0 performs a fully-conflicted (4-slot) write of
  // marker values; warp 1 idles.
  Row produce(2 * w);
  for (std::uint32_t t = 0; t < w; ++t) {
    produce[t] = ThreadOp::store_imm(static_cast<std::uint64_t>(t) * w, 7);
  }
  k.push(std::move(produce));
  k.push_barrier();
  // Instruction 2: warp 1 reads what warp 0 wrote; warp 0 idles.
  Row consume(2 * w);
  for (std::uint32_t t = 0; t < w; ++t) {
    consume[w + t] = ThreadOp::load(static_cast<std::uint64_t>(t) * w, 0);
  }
  k.push(std::move(consume));
  // Instruction 3: warp 1 stores its registers to fresh addresses.
  Row out(2 * w);
  for (std::uint32_t t = 0; t < w; ++t) {
    out[w + t] = ThreadOp::store(static_cast<std::uint64_t>(t) * w + 1, 0);
  }
  k.push(std::move(out));

  machine.run(k);
  for (std::uint32_t t = 0; t < w; ++t) {
    EXPECT_EQ(machine.load(static_cast<std::uint64_t>(t) * w + 1), 7u);
  }
}

TEST(Barrier, ReleaseWaitsForOutstandingRequests) {
  // One warp with a conflicted access followed by a barrier and a second
  // access: the second access cannot start before the first completes
  // (start >= completion + 1), so time >= (w + l - 1) + 1 + l.
  const std::uint32_t w = 4, l = 6;
  const core::AddressMap map(core::Scheme::kRaw, w, 8);
  Dmm machine(DmmConfig{w, l}, map);
  Kernel k{w, {}, {}};
  Row first(w), second(w);
  for (std::uint32_t t = 0; t < w; ++t) {
    first[t] = ThreadOp::load(static_cast<std::uint64_t>(t) * w);  // 4 slots
    second[t] = ThreadOp::load(t);
  }
  k.push(std::move(first));
  k.push_barrier();
  k.push(std::move(second));
  const RunStats stats = machine.run(k);
  // First completes at 4 + 6 - 1 = 9; second starts at >= 10, 1 slot,
  // completes at >= 10 + 1 + 6 - 1 = 16.
  EXPECT_GE(stats.time, 16u);
}

TEST(Barrier, WarpsWithDifferentSpeedsResynchronize) {
  // Warp 0 has a 1-slot access, warp 1 a w-slot access; after the
  // barrier, both perform a second access. The total dispatch count and
  // data correctness confirm no warp ran ahead.
  const std::uint32_t w = 4, l = 2;
  const core::AddressMap map(core::Scheme::kRaw, w, 16);
  Dmm machine(DmmConfig{w, l}, map);
  Kernel k{2 * w, {}, {}};
  Row phase1(2 * w);
  for (std::uint32_t t = 0; t < w; ++t) {
    phase1[t] = ThreadOp::store_imm(t, 1);  // warp 0: conflict-free
    phase1[w + t] =
        ThreadOp::store_imm(static_cast<std::uint64_t>(t) * w + 8, 2);
  }
  k.push(std::move(phase1));
  k.push_barrier();
  Row phase2(2 * w);
  for (std::uint32_t t = 0; t < w; ++t) {
    // Warp 0 reads warp 1's data and vice versa.
    phase2[t] = ThreadOp::load(static_cast<std::uint64_t>(t) * w + 8);
    phase2[w + t] = ThreadOp::load(t);
  }
  k.push(std::move(phase2));
  Row phase3(2 * w);
  for (std::uint32_t t = 0; t < w; ++t) {
    phase3[t] = ThreadOp::store(32 + t);
    phase3[w + t] = ThreadOp::store(36 + t);
  }
  k.push(std::move(phase3));
  const RunStats stats = machine.run(k);
  EXPECT_EQ(stats.dispatches, 6u);
  for (std::uint32_t t = 0; t < w; ++t) {
    EXPECT_EQ(machine.load(32 + t), 2u);
    EXPECT_EQ(machine.load(36 + t), 1u);
  }
}

TEST(Barrier, ConsecutiveBarriersAreHarmless) {
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 3}, map);
  Kernel k{8, {}, {}};
  Row a(8);
  a[0] = ThreadOp::store_imm(0, 5);
  k.push(std::move(a));
  k.push_barrier();
  k.push_barrier();
  k.push_barrier();
  Row b(8);
  b[4] = ThreadOp::load(0);
  k.push(std::move(b));
  Row c(8);
  c[4] = ThreadOp::store(1);
  k.push(std::move(c));
  machine.run(k);
  EXPECT_EQ(machine.load(1), 5u);
}

TEST(Barrier, SingleWarpBarrierIsCheap) {
  // With one warp the barrier degenerates to a no-op ordering point.
  const core::AddressMap map(core::Scheme::kRaw, 4, 4);
  Dmm machine(DmmConfig{4, 2}, map);
  Kernel k{4, {}, {}};
  Row a(4);
  for (std::uint32_t t = 0; t < 4; ++t) a[t] = ThreadOp::load(t);
  k.push(std::move(a));
  k.push_barrier();
  Row b(4);
  for (std::uint32_t t = 0; t < 4; ++t) b[t] = ThreadOp::store(4 + t);
  k.push(std::move(b));
  const RunStats stats = machine.run(k);
  // Same as the dependent two-instruction case without a barrier:
  // load completes at 1 + 2 - 1 = 2, store at (3) + 1 + 2 - 1 = 5.
  EXPECT_EQ(stats.time, 5u);
}

TEST(Barrier, WorksOnTheUmmToo) {
  // The barrier logic is machine-kind agnostic: the UMM's row-based slot
  // accounting must compose with cross-warp synchronization.
  const std::uint32_t w = 4, l = 3;
  const core::AddressMap map(core::Scheme::kRaw, w, 8);
  Dmm machine(umm_config(w, l), map);
  Kernel k{2 * w, {}, {}};
  Row produce(2 * w);
  for (std::uint32_t t = 0; t < w; ++t) {
    produce[t] = ThreadOp::store_imm(t, 42);  // warp 0, one row
  }
  k.push(std::move(produce));
  k.push_barrier();
  Row consume(2 * w), out(2 * w);
  for (std::uint32_t t = 0; t < w; ++t) {
    consume[w + t] = ThreadOp::load(t);
    out[w + t] = ThreadOp::store(w + t);
  }
  k.push(std::move(consume));
  k.push(std::move(out));
  machine.run(k);
  for (std::uint32_t t = 0; t < w; ++t) {
    EXPECT_EQ(machine.load(w + t), 42u);
  }
}

// Trace invariants: dispatch records are pipeline-consistent.
TEST(TraceInvariants, SlotsDoNotOverlapAndCompletionsAreConsistent) {
  const std::uint32_t w = 8, l = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, 2 * w);
  Dmm machine(DmmConfig{w, l}, map);
  Kernel k{w * 2, {}, {}};
  util::Pcg32 rng(5);
  for (int instr = 0; instr < 6; ++instr) {
    Row in(w * 2);
    for (std::uint32_t t = 0; t < w * 2; ++t) {
      in[t] = instr % 2 == 0
                  ? ThreadOp::load(rng.bounded(w * w * 2))
                  : ThreadOp::store(rng.bounded(w * w * 2));
    }
    k.push(std::move(in));
    if (instr == 2) k.push_barrier();
  }
  Trace trace;
  machine.run(k, &trace);
  std::uint64_t last_end = 0;
  bool first = true;
  for (const auto& d : trace.dispatches) {
    EXPECT_GE(d.stages, 1u);
    EXPECT_EQ(d.completion, d.start + d.stages + l - 1);
    if (!first) {
      EXPECT_GE(d.start, last_end);  // slots never overlap
    }
    last_end = d.start + d.stages;
    first = false;
  }
}

}  // namespace
}  // namespace rapsim::dmm
