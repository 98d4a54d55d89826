// Differential pinning of the static race verifier to the cross-warp
// dynamic sanitizer (DESIGN.md §14): over the whole builtin catalog x
// widths {16, 32, 64},
//
//   * every RaceFreedomCertificate kernel must run race-clean on the
//     full multi-warp DMM lowering AND under trace replay, and
//   * every static race finding must be reproduced dynamically — the
//     full run reports races, and the finding's concrete two-binding
//     witness triggers a sanitizer race of the SAME kind when replayed
//     as a two-warp micro-kernel.
//
// The acceptance scenario rides along: a deliberately barrier-stripped
// tiled transpose yields a race finding whose INSERT-BARRIER fix-it
// re-analyzes to race-free.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analyze/lint.hpp"
#include "analyze/race.hpp"
#include "builtin_kernels.hpp"
#include "core/factory.hpp"
#include "dmm/sanitizer.hpp"
#include "replay/racecheck.hpp"
#include "replay/replay.hpp"

namespace rapsim {
namespace {

const std::vector<std::uint32_t> kWidths = {16, 32, 64};

// tensor4d at w=64 enumerates 64^3 = 262144 bindings; raise the
// instruction cap past the default 2^16 so no catalog kernel truncates
// and the dynamic leg is exhaustive.
constexpr std::uint64_t kCatalogCap = 1u << 19;

TEST(RaceDifferential, FullCatalogIsCertifiedAndRunsRaceClean) {
  for (const std::uint32_t w : kWidths) {
    for (const analyze::KernelDesc& kernel : tools::builtin_kernels(w)) {
      SCOPED_TRACE(kernel.name + " w=" + std::to_string(w));
      const analyze::RaceAnalysis analysis = analyze::analyze_races(kernel);
      // Every builtin is barrier-correct: the verifier must certify it.
      EXPECT_TRUE(analysis.race_free());
      EXPECT_TRUE(analysis.exhaustive);
      EXPECT_TRUE(analysis.findings.empty());

      replay::RaceCheckOptions options;
      options.max_instructions = kCatalogCap;
      const replay::RaceCheckReport dynamic =
          replay::run_race_check(kernel, options);
      EXPECT_FALSE(dynamic.truncated);
      EXPECT_TRUE(dynamic.race_clean())
          << dynamic.races() << " dynamic race(s), first: "
          << (dynamic.findings.empty() ? std::string("<none recorded>")
                                       : dynamic.findings[0].to_string());
    }
  }
}

TEST(RaceDifferential, CertifiedKernelsReplayRaceCleanFromTraces) {
  // Second dynamic leg: capture the lowered kernel into an AccessTrace
  // and replay it with the sanitizer installed via ReplayOptions.
  for (const std::uint32_t w : kWidths) {
    for (const analyze::KernelDesc& kernel : tools::builtin_kernels(w)) {
      SCOPED_TRACE(kernel.name + " w=" + std::to_string(w));
      const replay::LoweredKernel lowered =
          replay::lower_kernel_desc(kernel, kCatalogCap);
      ASSERT_FALSE(lowered.truncated);

      const auto map =
          core::make_matrix_map(core::Scheme::kRaw, w, kernel.rows, 1);
      dmm::Dmm machine(dmm::DmmConfig{w, 1}, *map);
      machine.fill_identity();
      const replay::AccessTrace trace =
          replay::capture_run(machine, lowered.kernel);

      dmm::ShmemSanitizer sanitizer;
      replay::ReplayOptions options;
      options.sanitizer = &sanitizer;
      (void)replay::replay_trace(trace, *map, options);
      EXPECT_EQ(sanitizer.race_total(), 0u) << sanitizer.report();
    }
  }
}

/// The builtin tiled transpose with its __syncthreads() deleted.
analyze::KernelDesc stripped_tiled(std::uint32_t w) {
  analyze::KernelDesc kernel =
      tools::builtin_kernel("tiled-transpose-tiled", w);
  kernel.barriers.clear();
  kernel.name = "tiled-transpose-stripped";
  return kernel;
}

TEST(RaceDifferential, StrippedTransposeRacesStaticallyAndDynamically) {
  for (const std::uint32_t w : kWidths) {
    SCOPED_TRACE("w=" + std::to_string(w));
    const analyze::KernelDesc kernel = stripped_tiled(w);
    const analyze::RaceAnalysis analysis = analyze::analyze_races(kernel);
    EXPECT_FALSE(analysis.race_free());
    ASSERT_FALSE(analysis.findings.empty());

    // The full multi-warp run reproduces the race dynamically.
    const replay::RaceCheckReport dynamic = replay::run_race_check(kernel);
    EXPECT_GT(dynamic.races(), 0u);
    EXPECT_GT(dynamic.raw_races, 0u);  // stage-store vs drain-load

    // Each static witness triggers a sanitizer race of the same kind.
    for (const analyze::RaceFinding& finding : analysis.findings) {
      SCOPED_TRACE(finding.to_string());
      const replay::WitnessReplay witness =
          replay::replay_race_witness(kernel, finding);
      EXPECT_TRUE(witness.triggered);
    }
  }
}

TEST(RaceDifferential, EveryStaticWitnessOfARacyCatalogReplays) {
  // Widen the racy set: strip the barriers out of every builtin that
  // has them and replay every resulting witness.
  for (const std::uint32_t w : kWidths) {
    for (const analyze::KernelDesc& original : tools::builtin_kernels(w)) {
      if (original.barriers.empty()) continue;
      analyze::KernelDesc kernel = original;
      kernel.barriers.clear();
      SCOPED_TRACE(kernel.name + " (stripped) w=" + std::to_string(w));
      const analyze::RaceAnalysis analysis = analyze::analyze_races(kernel);
      for (const analyze::RaceFinding& finding : analysis.findings) {
        SCOPED_TRACE(finding.to_string());
        const replay::WitnessReplay witness =
            replay::replay_race_witness(kernel, finding);
        EXPECT_TRUE(witness.triggered);
      }
      // A stripped kernel that still certifies must also run clean —
      // the differential holds in both directions.
      if (analysis.race_free()) {
        const replay::RaceCheckReport dynamic = replay::run_race_check(kernel);
        EXPECT_TRUE(dynamic.race_clean()) << dynamic.races();
      } else {
        EXPECT_FALSE(analysis.findings.empty());
        const replay::RaceCheckReport dynamic = replay::run_race_check(kernel);
        EXPECT_GT(dynamic.races(), 0u);
      }
    }
  }
}

TEST(RaceDifferential, InsertBarrierFixitProvablyRepairsTheTranspose) {
  const analyze::KernelDesc kernel = stripped_tiled(32);
  const analyze::LintReport report =
      analyze::lint_kernel(kernel, core::Scheme::kRaw);
  ASSERT_TRUE(report.races);
  ASSERT_FALSE(report.races->findings.empty());
  EXPECT_EQ(report.severity(), analyze::Severity::kError);

  // The finding carries an INSERT-BARRIER fix-it...
  ASSERT_EQ(report.race_fixits.size(), report.races->findings.size());
  ASSERT_FALSE(report.race_fixits[0].empty());
  EXPECT_EQ(report.race_fixits[0][0].action, "INSERT-BARRIER");

  // ...and applying it (a barrier before the second site) re-analyzes
  // to certified race-free, dynamically confirmed.
  analyze::KernelDesc repaired = kernel;
  repaired.barriers.push_back(report.races->findings[0].second.site_index);
  const analyze::RaceAnalysis re = analyze::analyze_races(repaired);
  EXPECT_TRUE(re.race_free());
  EXPECT_TRUE(replay::run_race_check(repaired).race_clean());
}

TEST(RaceDifferential, WitnessKindsRoundTripPerKind) {
  // One hand-built kernel per race kind; the micro-replay must classify
  // identically (program order in warp 0 first).
  using analyze::AccessDir;
  const auto build = [](AccessDir first, AccessDir second) {
    analyze::KernelDesc kernel;
    kernel.name = "pairwise";
    kernel.width = 8;
    kernel.rows = 8;
    kernel.vars = {{"u", 4}};
    analyze::AccessSite a;
    a.name = "a";
    a.dir = first;
    a.warp = "u";
    a.flat = {0, 1, {0}};  // all warps cover words [0, 8)
    analyze::AccessSite b;
    b.name = "b";
    b.dir = second;
    b.warp = "u";
    b.flat = {0, 1, {0}};
    kernel.sites = {a, b};
    return kernel;
  };
  const struct {
    AccessDir first, second;
    analyze::RaceKind kind;
  } cases[] = {
      {AccessDir::kStore, AccessDir::kLoad, analyze::RaceKind::kRaw},
      {AccessDir::kStore, AccessDir::kStore, analyze::RaceKind::kWaw},
      {AccessDir::kLoad, AccessDir::kStore, analyze::RaceKind::kWar},
  };
  for (const auto& c : cases) {
    const analyze::KernelDesc kernel = build(c.first, c.second);
    const analyze::RaceAnalysis analysis = analyze::analyze_races(kernel);
    ASSERT_FALSE(analysis.findings.empty());
    bool checked = false;
    for (const analyze::RaceFinding& finding : analysis.findings) {
      if (finding.first.site_index == 0 && finding.second.site_index == 1) {
        EXPECT_EQ(finding.kind, c.kind);
        const replay::WitnessReplay witness =
            replay::replay_race_witness(kernel, finding);
        EXPECT_TRUE(witness.triggered) << finding.to_string();
        checked = true;
      }
    }
    EXPECT_TRUE(checked);
  }
}

}  // namespace
}  // namespace rapsim
