// Tests for the SM timing model and the Figure 7 register packing.

#include "gpu/sm_model.hpp"

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "gpu/register_pack.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

namespace rapsim::gpu {
namespace {

TEST(RegisterPack, BitsForWidth) {
  EXPECT_EQ(bits_for_width(2), 1u);
  EXPECT_EQ(bits_for_width(4), 2u);
  EXPECT_EQ(bits_for_width(32), 5u);
  EXPECT_EQ(bits_for_width(33), 6u);
  EXPECT_EQ(bits_for_width(1), 1u);
}

TEST(RegisterPack, Figure7LayoutForW32) {
  // 32 values of 5 bits -> 6 per 32-bit word -> 6 words, exactly the
  // paper's int r[6].
  std::vector<std::uint32_t> shifts(32);
  for (std::uint32_t i = 0; i < 32; ++i) shifts[i] = (i * 7) % 32;
  const PackedShifts packed(shifts, 32);
  EXPECT_EQ(packed.bits(), 5u);
  EXPECT_EQ(packed.values_per_word(), 6u);
  EXPECT_EQ(packed.words().size(), 6u);
}

TEST(RegisterPack, RoundTripsAllValues) {
  for (std::uint32_t width : {2u, 4u, 8u, 16u, 32u, 64u, 256u}) {
    std::vector<std::uint32_t> shifts(width);
    for (std::uint32_t i = 0; i < width; ++i) shifts[i] = (i * 13 + 5) % width;
    const PackedShifts packed(shifts, width);
    for (std::uint32_t i = 0; i < width; ++i) {
      EXPECT_EQ(packed.get(i), shifts[i]) << "width " << width << " i " << i;
    }
  }
}

TEST(RegisterPack, MatchesPaperExtractionFormula) {
  // The CUDA snippet extracts shift i as (r[i/6] >> (5*(i%6))) & 0x1f.
  std::vector<std::uint32_t> shifts(32);
  for (std::uint32_t i = 0; i < 32; ++i) shifts[i] = (31 - i);
  const PackedShifts packed(shifts, 32);
  const auto words = packed.words();
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ((words[i / 6] >> (5 * (i % 6))) & 0x1f, shifts[i]);
  }
}

TEST(RegisterPack, RejectsOutOfRangeValue) {
  const std::vector<std::uint32_t> bad = {0, 5, 4};
  EXPECT_THROW(PackedShifts(bad, 4), std::invalid_argument);
}

TEST(SmModel, AddrOverheadOrdering) {
  const auto p = SmTimingParams::titan_calibrated();
  EXPECT_EQ(p.addr_overhead_ns(core::Scheme::kRaw), p.addr_raw_ns);
  EXPECT_GT(p.addr_overhead_ns(core::Scheme::kRas),
            p.addr_overhead_ns(core::Scheme::kRap));
  // All RAP variants share the packed-register computation.
  EXPECT_EQ(p.addr_overhead_ns(core::Scheme::kRap3P),
            p.addr_overhead_ns(core::Scheme::kRap));
}

TEST(SmModel, CalibrateRecoversConstantsFromAnchors) {
  // Synthesize anchors from known constants and recover them.
  const SmTimingParams truth{50.0, 2.5, 0, 0, 0};
  const double ns_a = truth.launch_ns + 1000 * truth.stage_ns;
  const double ns_b = truth.launch_ns + 64 * truth.stage_ns;
  const auto fitted = SmTimingParams::calibrate(1000, ns_a, 64, ns_b);
  EXPECT_NEAR(fitted.launch_ns, truth.launch_ns, 1e-9);
  EXPECT_NEAR(fitted.stage_ns, truth.stage_ns, 1e-9);
}

TEST(SmModel, CalibrateOnPaperAnchorsMatchesDefaults) {
  // Table III RAW anchors: CRSW = 1056 stages @ 1595 ns, DRDW = 64 stages
  // @ 158.4 ns; the fit should land near the shipped defaults.
  const auto fitted = SmTimingParams::calibrate(1056, 1595.0, 64, 158.4);
  const auto defaults = SmTimingParams::titan_calibrated();
  EXPECT_NEAR(fitted.stage_ns, defaults.stage_ns, 0.05);
  EXPECT_NEAR(fitted.launch_ns, defaults.launch_ns, 10.0);
}

TEST(SmModel, CalibrateRejectsDegenerateAnchors) {
  EXPECT_THROW(static_cast<void>(SmTimingParams::calibrate(64, 100.0, 64, 200.0)),
               std::invalid_argument);
  // Negative slope (slower kernel with fewer stages) is non-physical.
  EXPECT_THROW(static_cast<void>(SmTimingParams::calibrate(1000, 50.0, 64, 200.0)),
               std::invalid_argument);
}

TEST(SmModel, CalibrateAcceptsZeroLaunchBoundary) {
  // Anchors on a pure proportional law: launch_ns = 0 is physical and
  // must be accepted (only negative intercepts are rejected).
  const auto fitted = SmTimingParams::calibrate(100, 200.0, 50, 100.0);
  EXPECT_NEAR(fitted.launch_ns, 0.0, 1e-12);
  EXPECT_NEAR(fitted.stage_ns, 2.0, 1e-12);
}

TEST(SmModel, TotalsOverloadMatchesTraceAndClosedForm) {
  // The trace overload re-sums into hier::DispatchTotals and defers to
  // the totals overload, which defers to the closed form — all three
  // entry points must agree exactly for every scheme.
  dmm::Trace trace;
  trace.dispatches = {{0, 0, 0, 3, 4, 32, 3},
                      {1, 1, 3, 1, 5, 32, 1},
                      {0, 2, 4, 7, 12, 16, 7}};
  hier::DispatchTotals totals;
  std::uint64_t stages = 0;
  for (const auto& d : trace.dispatches) {
    totals.add(d.stages, d.completion);
    stages += d.stages;
  }
  EXPECT_EQ(totals.max_congestion, 7u);
  EXPECT_EQ(totals.last_completion, 12u);

  const auto p = SmTimingParams::titan_calibrated();
  for (const core::Scheme scheme : {core::Scheme::kRaw, core::Scheme::kRas,
                                    core::Scheme::kRap}) {
    const double from_trace = estimate_kernel_time_ns(trace, scheme, p);
    const double from_totals = estimate_time_ns(totals, scheme, p);
    const double closed =
        estimate_time_ns(stages, trace.dispatches.size(), scheme, p);
    EXPECT_DOUBLE_EQ(from_trace, from_totals);
    EXPECT_DOUBLE_EQ(from_totals, closed);
  }
}

TEST(SmModel, EmptyTraceCostsLaunchOnly) {
  const dmm::Trace trace;
  const hier::DispatchTotals totals;
  const SmTimingParams p{10.0, 2.0, 0.0, 1.0, 0.5};
  EXPECT_DOUBLE_EQ(estimate_kernel_time_ns(trace, core::Scheme::kRas, p),
                   10.0);
  EXPECT_DOUBLE_EQ(estimate_time_ns(totals, core::Scheme::kRas, p), 10.0);
  EXPECT_DOUBLE_EQ(totals.avg_congestion(), 0.0);
}

TEST(SmModel, LinearInStagesAndDispatches) {
  const SmTimingParams p{10.0, 2.0, 0.0, 1.0, 0.5};
  EXPECT_DOUBLE_EQ(estimate_time_ns(100, 10, core::Scheme::kRaw, p),
                   10.0 + 200.0);
  EXPECT_DOUBLE_EQ(estimate_time_ns(100, 10, core::Scheme::kRas, p),
                   10.0 + 200.0 + 10.0);
  EXPECT_DOUBLE_EQ(estimate_time_ns(0, 0, core::Scheme::kRap, p), 10.0);
}

// The calibrated model must land within 15% of the paper's Table III for
// the RAW column (its calibration anchors) and preserve the headline
// ratios for RAP.
TEST(SmModel, ReproducesTable3Shape) {
  const auto params = SmTimingParams::titan_calibrated();

  const auto time_for = [&](const char* name, core::Scheme scheme) {
    const workloads::Workload entry = workloads::workload_program(name, 32);
    const vm::LoweredProgram program =
        vm::lower_program(vm::assemble(entry.text, 32));
    double sum = 0;
    constexpr int kSeeds = 200;
    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto r = workloads::run_program(program, entry.reference, scheme,
                                            1, static_cast<std::uint64_t>(seed));
      sum += estimate_time_ns(r.stats.total_stages, r.stats.dispatches,
                              scheme, params);
    }
    return sum / kSeeds;
  };

  const double raw_crsw = time_for("transpose-crsw", core::Scheme::kRaw);
  const double raw_drdw = time_for("transpose-drdw", core::Scheme::kRaw);
  const double rap_crsw = time_for("transpose-crsw", core::Scheme::kRap);
  const double ras_crsw = time_for("transpose-crsw", core::Scheme::kRas);
  const double rap_drdw = time_for("transpose-drdw", core::Scheme::kRap);

  EXPECT_NEAR(raw_crsw, 1595.0, 0.15 * 1595.0);  // calibration anchor
  EXPECT_NEAR(raw_drdw, 158.4, 0.15 * 158.4);    // calibration anchor
  // Headline: RAP ~10x faster than RAW on CRSW; ~2x faster than RAS;
  // DRDW penalty ~2.5-3x vs RAW.
  EXPECT_GT(raw_crsw / rap_crsw, 7.0);
  EXPECT_LT(raw_crsw / rap_crsw, 13.0);
  EXPECT_GT(ras_crsw / rap_crsw, 1.5);
  EXPECT_GT(rap_drdw / raw_drdw, 1.8);
  EXPECT_LT(rap_drdw / raw_drdw, 4.0);
}

}  // namespace
}  // namespace rapsim::gpu
