// Differential pin of the hierarchy simulator against the plain Dmm.
//
// With sms = 1, scheduler = "roundrobin" and PathParams::zero(), a
// HierSim is definitionally the body of Dmm::run — the same EventCore,
// the same KernelWarpSource, extra_latency identically zero — so its
// per-SM RunStats must reproduce the native machine BIT FOR BIT (exact
// double equality on avg_congestion included) for every catalog
// workload x scheme x width. This is the guarantee that lets the
// hierarchy reuse every conclusion the single-SM model has validated.
//
// On top of the pin: multi-SM zero-path runs are N independent copies
// (every SM equals the 1-SM result), and at >= 2 SMs with a hot memory
// path the cycle count must actually depend on the scheduler — the
// whole point of making the policy pluggable.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "hier/hier.hpp"
#include "workload_kernels.hpp"

namespace {

using namespace rapsim;

constexpr std::uint32_t kLatency = 2;
constexpr std::uint64_t kSeed = 42;

void expect_same_stats(const dmm::RunStats& native, const dmm::RunStats& got,
                       const std::string& label) {
  EXPECT_EQ(native.time, got.time) << label;
  EXPECT_EQ(native.total_stages, got.total_stages) << label;
  EXPECT_EQ(native.dispatches, got.dispatches) << label;
  EXPECT_EQ(native.max_congestion, got.max_congestion) << label;
  EXPECT_EQ(native.avg_congestion, got.avg_congestion) << label;
}

TEST(HierDifferential, OneSmZeroPathReproducesDmmExactly) {
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    for (const tools::WorkloadKernel& entry : tools::workload_kernels(width)) {
      for (const core::Scheme scheme :
           {core::Scheme::kRaw, core::Scheme::kRas, core::Scheme::kRap,
            core::Scheme::kPad}) {
        const std::string label = entry.name + " / " +
                                  core::scheme_name(scheme) + " / w=" +
                                  std::to_string(width);

        const auto native_map =
            core::make_matrix_map(scheme, width, entry.rows, kSeed);
        dmm::Dmm native(dmm::DmmConfig{width, kLatency}, *native_map);
        const dmm::RunStats native_stats = native.run(entry.kernel);

        const auto hier_map =
            core::make_matrix_map(scheme, width, entry.rows, kSeed);
        hier::HierConfig config;
        config.sms = 1;
        config.width = width;
        config.shared_latency = kLatency;
        config.scheduler = "roundrobin";
        config.path = hier::PathParams::zero();
        hier::HierSim sim(config, *hier_map);
        const hier::HierResult result = sim.run(entry.kernel, scheme);

        ASSERT_EQ(result.sms.size(), 1u) << label;
        expect_same_stats(native_stats, result.sms[0].run, label);
        EXPECT_EQ(result.cycles, native_stats.time) << label;
        EXPECT_EQ(result.dispatches, native_stats.dispatches) << label;
        // No path: nothing may leak into the memory-side counters.
        EXPECT_EQ(result.sms[0].l1_misses, 0u) << label;
        EXPECT_EQ(result.sms[0].mem_wait_cycles, 0u) << label;
        EXPECT_EQ(result.l2_misses, 0u) << label;
      }
    }
  }
}

TEST(HierDifferential, MultiSmZeroPathIsIndependentCopies) {
  // Without the shared L2/DRAM ports the SMs cannot interact, so every
  // SM of a 4-SM run must equal the 1-SM result exactly.
  const std::uint32_t width = 32;
  for (const tools::WorkloadKernel& entry : tools::workload_kernels(width)) {
    const std::string label = entry.name;
    const auto map =
        core::make_matrix_map(core::Scheme::kRap, width, entry.rows, kSeed);
    dmm::Dmm native(dmm::DmmConfig{width, kLatency}, *map);
    const dmm::RunStats native_stats = native.run(entry.kernel);

    const auto hier_map =
        core::make_matrix_map(core::Scheme::kRap, width, entry.rows, kSeed);
    hier::HierConfig config;
    config.sms = 4;
    config.width = width;
    config.shared_latency = kLatency;
    config.path = hier::PathParams::zero();
    hier::HierSim sim(config, *hier_map);
    const hier::HierResult result = sim.run(entry.kernel, core::Scheme::kRap);

    ASSERT_EQ(result.sms.size(), 4u) << label;
    for (const hier::SmStats& sm : result.sms) {
      expect_same_stats(native_stats, sm.run,
                        label + " / sm=" + std::to_string(sm.sm));
    }
    EXPECT_EQ(result.cycles, native_stats.time) << label;
    EXPECT_EQ(result.dispatches, 4 * native_stats.dispatches) << label;
  }
}

TEST(HierDifferential, HotPathMakesSchedulingMatter) {
  // With a small L1 and few MSHRs the memory path stays hot, and once
  // SMs contend for the shared ports the policies order warps
  // differently enough to change end-to-end cycles — the configuration
  // of results/ext_hier_scaling.txt and rapbench's hier-hotpath.
  const std::uint32_t width = 32;
  const tools::WorkloadKernel entry = tools::workload_kernel("bitonic", width);
  const auto map =
      core::make_matrix_map(core::Scheme::kRap, width, entry.rows, 1);

  for (const std::uint32_t sms : {2u, 4u}) {
    std::vector<std::uint64_t> cycles;
    for (const std::string& scheduler : hier::scheduler_names()) {
      hier::HierConfig config;
      config.sms = sms;
      config.width = width;
      config.scheduler = scheduler;
      config.path = hier::PathParams::defaults();
      config.path.l1.lines = 4;
      config.path.mshrs = 2;
      hier::HierSim sim(config, *map);
      cycles.push_back(sim.run(entry.kernel, core::Scheme::kRap).cycles);
      EXPECT_GT(cycles.back(), 0u) << scheduler << " sms=" << sms;
    }
    bool any_different = false;
    for (const std::uint64_t c : cycles) {
      if (c != cycles.front()) any_different = true;
    }
    EXPECT_TRUE(any_different)
        << "sms=" << sms << ": all schedulers produced " << cycles.front()
        << " cycles - the policies are not actually plugged in";
  }
}

}  // namespace
