// Deterministic allocation gates for the warp-access hot path. Heap
// allocations are counted by a replacement global operator new that only
// this test executable links, so the counts are exact and repeat on every
// machine, unlike wall time.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "access/montecarlo.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "replay/replay.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/suite.hpp"

namespace {

// Monte-Carlo workers allocate too, so the counter is shared.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment,
                                   rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

// These deletes pair with the news above, which allocate with malloc; GCC
// sees only the free() once a delete is inlined next to a new-expression.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace rapsim {
namespace {

/// Allocations made while running `fn`.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(AllocGate, CountingOperatorNewIsLinked) {
  std::unique_ptr<std::uint64_t> kept;  // outlives the count: not elided
  EXPECT_EQ(allocations_during(
                [&] { kept = std::make_unique<std::uint64_t>(7); }),
            1u);
  EXPECT_EQ(*kept, 7u);
}

/// Two warps of w lanes: merged loads, a CRCW store race, atomics, a
/// register-only op and a warp with idle lanes.
dmm::Kernel mixed_kernel(std::uint32_t w) {
  dmm::Kernel kernel;
  kernel.num_threads = 2 * w;
  dmm::Instruction loads(kernel.num_threads);
  dmm::Instruction stores(kernel.num_threads);
  dmm::Instruction atomics(kernel.num_threads);
  dmm::Instruction minmax(kernel.num_threads);
  dmm::Instruction sparse(kernel.num_threads, dmm::ThreadOp::none());
  for (std::uint32_t t = 0; t < kernel.num_threads; ++t) {
    loads[t] = dmm::ThreadOp::load((t * 7) % (w * w / 2));
    stores[t] = dmm::ThreadOp::store_imm((t / 2) * w, t);
    atomics[t] = dmm::ThreadOp::atomic_add(t % 5);
    minmax[t] = dmm::ThreadOp::min_max(0, 1);
    if (t % 3 == 0) sparse[t] = dmm::ThreadOp::load(t);
  }
  kernel.push(loads);
  kernel.push(stores);
  kernel.push(atomics);
  kernel.push(minmax);
  kernel.push(sparse);
  return kernel;
}

TEST(AllocGate, DmmWarpAccessAllocatesOnlyOnItsFirstCall) {
  for (const dmm::MachineKind kind :
       {dmm::MachineKind::kDmm, dmm::MachineKind::kUmm}) {
    for (const std::uint32_t w : {4u, 32u, 64u}) {
      const auto map = core::make_matrix_map(core::Scheme::kRap, w, w, 3);
      dmm::Dmm machine(dmm::DmmConfig{w, 2, kind}, *map);
      const dmm::Kernel kernel = mixed_kernel(w);
      machine.begin_run(kernel);
      (void)machine.warp_access(kernel, 0, 0);
      const std::uint64_t allocs = allocations_during([&] {
        for (int run = 0; run < 3; ++run) {
          for (std::uint32_t i = 0; i < kernel.instructions.size(); ++i) {
            for (std::uint32_t warp = 0; warp < 2; ++warp) {
              (void)machine.warp_access(kernel, i, warp);
            }
          }
        }
      });
      EXPECT_EQ(allocs, 0u) << "w=" << w << " umm="
                            << (kind == dmm::MachineKind::kUmm);
    }
  }
}

TEST(AllocGate, TraceValidationAllocatesPerTableGrowthNotPerRecord) {
  // The bitonic capture: thousands of records, valid throughout. The
  // validator's one open-addressing table grows by doubling, so its
  // allocations are logarithmic in the record count.
  const vm::LoweredProgram lowered = vm::lower_program(
      vm::assemble(vm::suite_program("vm-bitonic", 32).text, 32));
  const auto map =
      core::make_matrix_map(core::Scheme::kRaw, 32, lowered.rows, 0);
  dmm::Dmm recorder(dmm::DmmConfig{32, 2}, *map);
  const replay::AccessTrace trace =
      replay::capture_run(recorder, lowered.kernel);
  ASSERT_GT(trace.records.size(), 9000u);
  EXPECT_LT(allocations_during([&] { trace.validate(); }), 100u);
}

TEST(AllocGate, CongestionValueDoesNotAllocateUpToWidth256) {
  // The thread's scratch is sized by its first warp of 256 lanes.
  const auto big = core::make_matrix_map(core::Scheme::kRap, 256, 256, 1);
  (void)core::congestion_value(std::vector<std::uint64_t>(256, 0), *big);
  for (const std::uint32_t w : {1u, 16u, 24u, 32u, 64u, 128u, 256u}) {
    for (const core::Scheme scheme :
         {core::Scheme::kRaw, core::Scheme::kRas, core::Scheme::kRap}) {
      const auto map = core::make_matrix_map(scheme, w, w, 5);
      std::vector<std::uint64_t> addrs(w);
      for (std::uint32_t t = 0; t < w; ++t) addrs[t] = t * w + (t * t) % w;
      EXPECT_EQ(allocations_during(
                    [&] { (void)core::congestion_value(addrs, *map); }),
                0u)
          << core::scheme_name(scheme) << " w=" << w;
    }
  }
}

TEST(AllocGate, Estimate2dAllocationsDoNotGrowWithTrials) {
  // One-time set-up (function statics) happens outside the counted runs.
  (void)access::estimate_congestion_2d(core::Scheme::kRap,
                                       access::Pattern2d::kRandom, 32, 100, 9);
  for (const core::Scheme scheme : core::table2_schemes()) {
    for (const access::Pattern2d pattern :
         {access::Pattern2d::kContiguous, access::Pattern2d::kStride,
          access::Pattern2d::kDiagonal, access::Pattern2d::kRandom,
          access::Pattern2d::kMalicious}) {
      const auto run = [&](std::uint64_t trials) {
        return allocations_during([&] {
          (void)access::estimate_congestion_2d(scheme, pattern, 32, trials, 9);
        });
      };
      EXPECT_EQ(run(2000), run(20000))
          << core::scheme_name(scheme) << " "
          << access::pattern2d_name(pattern);
    }
  }
}

}  // namespace
}  // namespace rapsim
