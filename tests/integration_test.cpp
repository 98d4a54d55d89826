// Cross-module integration tests: full experiment pipelines exercised
// end-to-end at reduced trial counts, checking the numbers the paper's
// tables hinge on.

#include <gtest/gtest.h>

#include "access/montecarlo.hpp"
#include "core/factory.hpp"
#include "core/theory.hpp"
#include "dmm/umm.hpp"
#include "gpu/sm_model.hpp"
#include "telemetry/bank_profile.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

namespace rapsim {
namespace {

using access::Pattern2d;
using access::Pattern4d;
using core::Scheme;

// ---- Table II, w = 32 column, at reduced trials. Paper values:
// ----             RAW    RAS    RAP
// ---- Contiguous  1      1      1
// ---- Stride      32     3.53   1
// ---- Diagonal    1      3.53   3.61
// ---- Random      3.44   3.44   3.44
TEST(Table2Integration, W32ColumnMatchesPaper) {
  constexpr std::uint64_t kTrials = 20000;
  constexpr double kTol = 0.12;

  const auto cell = [&](Scheme s, Pattern2d p) {
    return access::estimate_congestion_2d(s, p, 32, kTrials, 20140811).mean;
  };

  EXPECT_EQ(cell(Scheme::kRaw, Pattern2d::kContiguous), 1.0);
  EXPECT_EQ(cell(Scheme::kRas, Pattern2d::kContiguous), 1.0);
  EXPECT_EQ(cell(Scheme::kRap, Pattern2d::kContiguous), 1.0);

  EXPECT_EQ(cell(Scheme::kRaw, Pattern2d::kStride), 32.0);
  EXPECT_NEAR(cell(Scheme::kRas, Pattern2d::kStride), 3.53, kTol);
  EXPECT_EQ(cell(Scheme::kRap, Pattern2d::kStride), 1.0);

  EXPECT_EQ(cell(Scheme::kRaw, Pattern2d::kDiagonal), 1.0);
  EXPECT_NEAR(cell(Scheme::kRas, Pattern2d::kDiagonal), 3.53, kTol);
  EXPECT_NEAR(cell(Scheme::kRap, Pattern2d::kDiagonal), 3.61, kTol);

  EXPECT_NEAR(cell(Scheme::kRaw, Pattern2d::kRandom), 3.44, kTol);
  EXPECT_NEAR(cell(Scheme::kRas, Pattern2d::kRandom), 3.44, kTol);
  EXPECT_NEAR(cell(Scheme::kRap, Pattern2d::kRandom), 3.44, kTol);
}

// All three schemes see the *same* congestion for random access (the
// paper's Section V observation), not just similar-in-expectation.
TEST(Table2Integration, RandomAccessIsSchemeInvariant) {
  const auto raw = access::estimate_congestion_2d(
      Scheme::kRaw, Pattern2d::kRandom, 64, 10000, 5);
  const auto ras = access::estimate_congestion_2d(
      Scheme::kRas, Pattern2d::kRandom, 64, 10000, 5);
  const auto rap = access::estimate_congestion_2d(
      Scheme::kRap, Pattern2d::kRandom, 64, 10000, 5);
  EXPECT_NEAR(raw.mean, ras.mean, 0.1);
  EXPECT_NEAR(ras.mean, rap.mean, 0.1);
}

// ---- Theorem 2 validation: measured expected congestion under the
// ---- strongest adversarial access stays below the proof's envelope.
TEST(Theorem2Integration, MaliciousCongestionUnderEnvelope) {
  for (std::uint32_t w : {16u, 32u, 64u, 128u}) {
    const auto c = access::estimate_congestion_2d(
        Scheme::kRap, Pattern2d::kMalicious, w, 4000, 99);
    const double envelope = core::theorem2_expectation_bound(w);
    EXPECT_LT(c.mean, envelope) << "w = " << w;
    // And the bound is not vacuous: it is within a small factor.
    EXPECT_GT(c.mean, envelope / 10.0) << "w = " << w;
  }
}

// ---- Table III end-to-end: congestion columns + modeled times.
TEST(Table3Integration, CongestionAndTimeColumns) {
  const auto params = gpu::SmTimingParams::titan_calibrated();
  struct Row {
    const char* workload;
    Scheme scheme;
    double paper_read, paper_write, paper_ns;
  };
  const Row rows[] = {
      {"transpose-crsw", Scheme::kRaw, 1, 32, 1595.0},
      {"transpose-srcw", Scheme::kRaw, 32, 1, 1596.0},
      {"transpose-drdw", Scheme::kRaw, 1, 1, 158.4},
      {"transpose-crsw", Scheme::kRas, 1, 3.53, 303.6},
      {"transpose-srcw", Scheme::kRas, 3.53, 1, 297.1},
      {"transpose-drdw", Scheme::kRas, 3.53, 3.53, 427.4},
      {"transpose-crsw", Scheme::kRap, 1, 1, 154.5},
      {"transpose-srcw", Scheme::kRap, 1, 1, 159.1},
      {"transpose-drdw", Scheme::kRap, 3.61, 3.61, 433.3},
  };
  constexpr int kSeeds = 150;
  for (const Row& row : rows) {
    const workloads::Workload entry =
        workloads::workload_program(row.workload, 32);
    const vm::LoweredProgram program =
        vm::lower_program(vm::assemble(entry.text, 32));
    double read = 0, write = 0, ns = 0;
    for (int i = 0; i < kSeeds; ++i) {
      const auto seed = static_cast<std::uint64_t>(i) + 1;
      const auto map = core::make_matrix_map(row.scheme, 32, program.rows,
                                             seed);
      dmm::Dmm machine(dmm::DmmConfig{32, 1}, *map);
      dmm::Trace trace;
      const auto r = workloads::run_program(program, entry.reference, machine,
                                            seed, &trace);
      ASSERT_TRUE(r.correct);
      read += telemetry::phase_stats(trace, 0).avg_congestion;
      write += telemetry::phase_stats(trace, 1).avg_congestion;
      ns += gpu::estimate_time_ns(r.stats.total_stages, r.stats.dispatches,
                                  row.scheme, params);
    }
    read /= kSeeds;
    write /= kSeeds;
    ns /= kSeeds;
    EXPECT_NEAR(read, row.paper_read, 0.2 + 0.05 * row.paper_read)
        << row.workload << " " << core::scheme_name(row.scheme);
    EXPECT_NEAR(write, row.paper_write, 0.2 + 0.05 * row.paper_write)
        << row.workload << " " << core::scheme_name(row.scheme);
    // Times: model vs testbed, require agreement within 35% (the claim is
    // the shape, not the nanosecond).
    EXPECT_NEAR(ns, row.paper_ns, 0.35 * row.paper_ns)
        << row.workload << " " << core::scheme_name(row.scheme);
  }
}

// ---- Table IV spot checks at w = 16 (full sweep lives in the bench).
TEST(Table4Integration, SchemeOrderingUnderMaliciousAccess) {
  constexpr std::uint32_t w = 32;
  constexpr std::uint64_t kTrials = 1500;
  const auto mal = [&](Scheme s) {
    return access::estimate_congestion_4d(s, Pattern4d::kMalicious, w,
                                          kTrials, 77).mean;
  };
  const double raw = mal(Scheme::kRaw);
  const double p1 = mal(Scheme::kRap1P);
  const double r1p = mal(Scheme::kRapR1P);
  const double p3 = mal(Scheme::kRap3P);

  EXPECT_EQ(raw, w);  // full congestion
  EXPECT_EQ(p1, w);   // full congestion
  EXPECT_GE(r1p, 6.0);          // the structured attack bites
  EXPECT_LT(p3, r1p - 1.0);     // 3P resists it: the paper's conclusion
  EXPECT_LT(p3, 5.0);
}

// ---- The DMM is generic over AddressMap: it runs against 4-D tensor
// ---- maps (not just matrices), and the 4-D conflict-freedom guarantees
// ---- show up as machine-level timing.
TEST(MachineGenericity, DmmRunsOver4dMaps) {
  constexpr std::uint32_t w = 8;
  const auto map = core::make_tensor4d_map(Scheme::kRap3P, w, 5);
  dmm::Dmm machine(dmm::DmmConfig{w, 2}, *map);
  machine.fill_identity();

  // One warp sweeps the j (stride2) axis — conflict-free under 3P, so the
  // instruction costs exactly one pipeline slot.
  dmm::Kernel k{w, {}, {}};
  dmm::Row loads(w);
  for (std::uint32_t t = 0; t < w; ++t) {
    loads[t] = dmm::ThreadOp::load(core::index(w, {2, t, 3, 4}));
  }
  k.push(std::move(loads));
  const auto stats = machine.run(k);
  EXPECT_EQ(stats.total_stages, 1u);
  EXPECT_EQ(stats.time, 1u + 2 - 1);

  // And host access round-trips through the 4-D translation.
  EXPECT_EQ(machine.load(core::index(w, {1, 2, 3, 4})),
            core::index(w, {1, 2, 3, 4}));
}

// ---- DMM vs UMM on the same kernel: the DMM can exploit bank-level
// ---- parallelism the UMM cannot.
TEST(MachineContrast, DmmNeverSlowerThanUmm) {
  const std::uint32_t w = 8, l = 4;
  const auto map = core::make_matrix_map(Scheme::kRaw, w, 2 * w, 3);
  for (const char* name : {"transpose-crsw", "transpose-drdw"}) {
    dmm::Dmm on_dmm(dmm::dmm_config(w, l), *map);
    dmm::Dmm on_umm(dmm::umm_config(w, l), *map);
    const vm::LoweredProgram program =
        vm::lower_program(vm::assemble(
            workloads::workload_program(name, w).text, w));
    const auto t_dmm = on_dmm.run(program.kernel).time;
    const auto t_umm = on_umm.run(program.kernel).time;
    EXPECT_LE(t_dmm, t_umm) << name;
  }
}

}  // namespace
}  // namespace rapsim
