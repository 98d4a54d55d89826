// Differential tests: the DMM's scheduled execution vs a straightforward
// in-order reference interpreter.
//
// The reference executes instructions strictly in program order, all
// warps in lockstep — the semantics a CUDA kernel with a __syncthreads()
// after every instruction would have. The DMM's scheduler may interleave
// warps arbitrarily between barriers, so the two must agree exactly on:
//   * any single-warp kernel (only one instruction stream), and
//   * any multi-warp kernel with a barrier after every instruction, and
//   * any race-free multi-warp kernel (no warp reads or writes a location
//     another warp writes without an intervening barrier) — transpose and
//     matmul are instances.
// Fuzzing random kernels of these classes pins the data semantics of the
// whole machine (merging, CRCW arbitration, ALU ops, register file).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "util/rng.hpp"

namespace rapsim::dmm {
namespace {

/// In-order reference interpreter over the same logical memory.
class ReferenceMachine {
 public:
  ReferenceMachine(const core::AddressMap& map)
      : map_(map), memory_(map.size(), 0) {}

  void store(std::uint64_t logical, std::uint64_t value) {
    memory_[map_.translate(logical)] = value;
  }
  [[nodiscard]] std::uint64_t load(std::uint64_t logical) const {
    return memory_[map_.translate(logical)];
  }

  void run(const Kernel& kernel) {
    regs_.assign(
        static_cast<std::size_t>(kernel.num_threads) * kRegistersPerThread,
        0);
    for (const Instruction instr : kernel.instructions) {
      const auto threads = instr.threads();
      // Reads first (all threads see pre-instruction memory), then CRCW
      // writes with lowest-thread-wins — matching one warp... but here
      // applied across the whole block, which is exactly the semantics
      // of per-instruction barriers. Reads and writes never mix in one
      // instruction (SIMD rule), so a two-phase sweep is enough.
      for (std::size_t k = 0; k < instr.size(); ++k) {
        const std::uint32_t t = threads[k];
        const ThreadOp& op = instr[k];
        auto& reg = regs_[static_cast<std::size_t>(t) * kRegistersPerThread +
                          op.reg];
        switch (op.kind) {
          case OpKind::kLoad:
            reg = load_raw(op.logical);
            break;
          case OpKind::kLoadAdd:
            reg += load_raw(op.logical);
            break;
          case OpKind::kLoadMulAdd:
            reg += regs_[static_cast<std::size_t>(t) * kRegistersPerThread +
                         op.reg2] *
                   load_raw(op.logical);
            break;
          case OpKind::kMinMax: {
            auto& hi = regs_[static_cast<std::size_t>(t) *
                                 kRegistersPerThread +
                             op.reg2];
            if (reg > hi) std::swap(reg, hi);
            break;
          }
          default:
            break;
        }
      }
      std::vector<bool> written(memory_.size(), false);
      for (std::size_t k = 0; k < instr.size(); ++k) {
        const std::uint32_t t = threads[k];
        const ThreadOp& op = instr[k];
        if (op.kind != OpKind::kStore && op.kind != OpKind::kStoreImm) {
          continue;
        }
        const std::uint64_t phys = map_.translate(op.logical);
        if (written[phys]) continue;  // CRCW: lowest thread id wins
        written[phys] = true;
        memory_[phys] =
            op.kind == OpKind::kStoreImm
                ? op.immediate
                : regs_[static_cast<std::size_t>(t) * kRegistersPerThread +
                        op.reg];
      }
    }
  }

  [[nodiscard]] const std::vector<std::uint64_t>& memory() const {
    return memory_;
  }

 private:
  [[nodiscard]] std::uint64_t load_raw(std::uint64_t logical) const {
    return memory_[map_.translate(logical)];
  }
  const core::AddressMap& map_;
  std::vector<std::uint64_t> memory_;
  std::vector<std::uint64_t> regs_;
};

/// Random kernel over `warps` warps with a barrier after every
/// instruction, alternating read-class and write-class instructions with
/// random ops, addresses and registers. Reads may target anything; write
/// targets are partitioned per warp, because the winner of a same-
/// instruction same-address write race between *different warps* is
/// scheduler-defined on the DMM (and undefined on real hardware), so a
/// well-defined differential oracle must avoid it. Within a warp, CRCW
/// lowest-thread-wins applies and IS exercised.
Kernel random_synced_kernel(std::uint32_t w, std::uint32_t warps,
                            std::uint64_t mem_size, int instructions,
                            util::Pcg32& rng) {
  Kernel k{w * warps, {}, {}};
  const std::uint64_t region = mem_size / warps;
  for (int i = 0; i < instructions; ++i) {
    Row instr(k.num_threads);
    const bool write_phase = i % 2 == 1;
    for (std::uint32_t t = 0; t < k.num_threads; ++t) {
      if (rng.bounded(8) == 0) continue;  // some threads idle
      const auto reg = static_cast<std::uint8_t>(rng.bounded(2));
      if (write_phase) {
        const std::uint64_t addr =
            (t / w) * region + rng.bounded(static_cast<std::uint32_t>(region));
        instr[t] = rng.bounded(2) ? ThreadOp::store(addr, reg)
                                  : ThreadOp::store_imm(addr, rng());
      } else {
        const auto addr = rng.bounded(static_cast<std::uint32_t>(mem_size));
        switch (rng.bounded(3)) {
          case 0: instr[t] = ThreadOp::load(addr, reg); break;
          case 1: instr[t] = ThreadOp::load_add(addr, reg); break;
          default:
            instr[t] = ThreadOp::load_mul_add(
                addr, reg, static_cast<std::uint8_t>(1 - reg));
        }
      }
    }
    k.push(std::move(instr));
    k.push_barrier();
  }
  return k;
}

void expect_same_memory(const Dmm& machine, const ReferenceMachine& ref,
                        std::uint64_t size, const char* label) {
  for (std::uint64_t a = 0; a < size; ++a) {
    ASSERT_EQ(machine.load(a), ref.load(a)) << label << " at address " << a;
  }
}

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, SyncedKernelsMatchReferenceExactly) {
  const std::uint64_t seed = GetParam();
  util::Pcg32 rng(seed);
  const std::uint32_t w = 4u << rng.bounded(3);        // 4..16
  const std::uint32_t warps = 1 + rng.bounded(4);      // 1..4
  const std::uint32_t latency = 1 + rng.bounded(6);
  const std::uint64_t rows = 4ull * warps;
  const auto scheme = std::vector<core::Scheme>{
      core::Scheme::kRaw, core::Scheme::kRas, core::Scheme::kRap,
      core::Scheme::kPad}[rng.bounded(4)];
  const auto map = core::make_matrix_map(scheme, w, rows, seed);

  Dmm machine(DmmConfig{w, latency}, *map);
  ReferenceMachine ref(*map);
  for (std::uint64_t a = 0; a < map->size(); ++a) {
    const std::uint64_t v = rng();
    machine.store(a, v);
    ref.store(a, v);
  }

  const auto kernel =
      random_synced_kernel(w, warps, map->size(), 8, rng);
  machine.run(kernel);
  ref.run(kernel);
  expect_same_memory(machine, ref, map->size(), "synced fuzz");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range<std::uint64_t>(1, 26),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

TEST(Differential, SingleWarpKernelsNeedNoBarriers) {
  // With one warp the scheduler is inherently in-order: strip the
  // barriers and the results must still match.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    util::Pcg32 rng(seed);
    const std::uint32_t w = 8;
    const auto map = core::make_matrix_map(core::Scheme::kRap, w, 4, seed);
    Dmm machine(DmmConfig{w, 3}, *map);
    ReferenceMachine ref(*map);
    for (std::uint64_t a = 0; a < map->size(); ++a) {
      machine.store(a, a * 3 + 1);
      ref.store(a, a * 3 + 1);
    }
    auto kernel = random_synced_kernel(w, 1, map->size(), 10, rng);
    // Remove the barrier instructions.
    Kernel stripped{kernel.num_threads, {}, {}};
    for (const Instruction instr : kernel.instructions) {
      if (instr[0].kind == OpKind::kBarrier) continue;
      Row row(kernel.num_threads);
      for (std::size_t k = 0; k < instr.size(); ++k) {
        row[instr.threads()[k]] = instr[k];
      }
      stripped.push(std::move(row));
    }
    machine.run(stripped);
    ref.run(stripped);
    expect_same_memory(machine, ref, map->size(), "single warp");
  }
}

TEST(Differential, RaceFreeMultiWarpKernelWithoutBarriers) {
  // Disjoint working sets per warp: warp g only touches rows [2g, 2g+2).
  // No barriers needed; scheduler interleaving must not matter.
  for (std::uint64_t seed = 200; seed < 210; ++seed) {
    util::Pcg32 rng(seed);
    const std::uint32_t w = 8, warps = 3;
    const auto map =
        core::make_matrix_map(core::Scheme::kRas, w, 2 * warps, seed);
    Dmm machine(DmmConfig{w, 5}, *map);
    ReferenceMachine ref(*map);
    for (std::uint64_t a = 0; a < map->size(); ++a) {
      machine.store(a, a + 7);
      ref.store(a, a + 7);
    }
    Kernel k{w * warps, {}, {}};
    for (int i = 0; i < 6; ++i) {
      Row instr(k.num_threads);
      const bool write_phase = i % 2 == 1;
      for (std::uint32_t t = 0; t < k.num_threads; ++t) {
        const std::uint32_t g = t / w;
        const std::uint64_t base = 2ull * g * w;
        const std::uint64_t addr = base + rng.bounded(2 * w);
        instr[t] = write_phase ? ThreadOp::store(addr, 0)
                               : ThreadOp::load_add(addr, 0);
      }
      k.push(std::move(instr));
    }
    machine.run(k);
    ref.run(k);
    expect_same_memory(machine, ref, map->size(), "race-free");
  }
}

TEST(Differential, InterleavedIdleLanesAndPartialLastWarp) {
  // 3 warps of w = 8 over 21 threads: the last warp has 5 lanes. Each
  // instruction leaves a different lane pattern idle — alternate lanes,
  // whole warps, everything but the partial warp's last lane — and the
  // idle slots carry an out-of-range address, so a lane walk that read
  // them would fault. Per-warp write regions keep the oracle well-defined
  // (see random_synced_kernel).
  const std::uint32_t w = 8, threads = 21;
  const auto map = core::make_matrix_map(core::Scheme::kRap, w, 6, 11);
  const std::uint64_t region = map->size() / 3;
  ThreadOp idle = ThreadOp::none();
  idle.logical = map->size() * 16;

  const auto row = [&](auto active, auto make) {
    Row instr(threads, idle);
    for (std::uint32_t t = 0; t < threads; ++t) {
      if (active(t)) instr[t] = make(t);
    }
    return instr;
  };
  const auto load_at = [&](std::uint32_t t) {
    return ThreadOp::load((t * 5 + 3) % map->size(), 0);
  };
  const auto store_own = [&](std::uint32_t t) {
    return ThreadOp::store((t / w) * region + (t * 3) % region, 0);
  };
  // The rows as built, kept to count each warp's non-idle lanes below.
  Kernel k(threads);
  std::vector<Row> rows;
  const auto push = [&](Row instr) {
    rows.push_back(instr);
    k.push(std::move(instr));
  };
  const auto barrier = [&] {
    rows.emplace_back(threads, ThreadOp::barrier());
    k.push_barrier();
  };
  push(row([](std::uint32_t t) { return t % 2 == 1; }, load_at));
  barrier();
  push(row([](std::uint32_t t) { return t % 3 != 0; },
           [](std::uint32_t) { return ThreadOp::min_max(0, 1); }));
  barrier();
  push(row([&](std::uint32_t t) { return t / w == 1; }, store_own));
  barrier();
  push(row([](std::uint32_t t) { return t % 2 == 0; }, store_own));
  barrier();
  push(row([&](std::uint32_t t) { return t == threads - 1; }, load_at));
  barrier();
  push(row([&](std::uint32_t t) { return t >= 2 * w; }, store_own));

  Dmm machine(DmmConfig{w, 3}, *map);
  ReferenceMachine ref(*map);
  for (std::uint64_t a = 0; a < map->size(); ++a) {
    machine.store(a, a * 11 + 5);
    ref.store(a, a * 11 + 5);
  }
  Trace trace;
  machine.run(k, &trace);
  ref.run(k);
  expect_same_memory(machine, ref, map->size(), "idle lanes");

  // Every dispatch counts exactly its warp's non-idle lanes.
  ASSERT_FALSE(trace.dispatches.empty());
  for (const DispatchRecord& d : trace.dispatches) {
    const Row& instr = rows[d.instruction];
    std::uint32_t active = 0;
    for (std::uint32_t t = d.warp * w;
         t < std::min((d.warp + 1) * w, threads); ++t) {
      if (instr[t].kind != OpKind::kNone) ++active;
    }
    EXPECT_EQ(d.active_threads, active)
        << "instr " << d.instruction << " warp " << d.warp;
  }
}

}  // namespace
}  // namespace rapsim::dmm
