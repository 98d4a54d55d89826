// Tests for the kernel lint layer (analyze/lint.hpp) — including the
// PR's acceptance criterion: the naive row-major stride transpose is
// statically flagged as congestion-w with a worst-warp witness and
// PAD/RAP fix-its, and the SAME kernel lints clean (congestion-1
// certificate) once RAP is applied.

#include "analyze/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "contract.hpp"
#include "vm/assembler.hpp"
#include "vm/extract.hpp"
#include "vm/suite.hpp"

namespace rapsim::analyze {
namespace {

using core::Scheme;

/// The transpose's loop-nest IR, extracted from its program.
KernelDesc transpose_ir(vm::TransposeAlgorithm algorithm, std::uint32_t w) {
  return vm::extract_kernel(vm::assemble(vm::transpose_text(algorithm, w), w))
      .kernel;
}

bool has_fixit(const Diagnostic& diag, const std::string& action) {
  return std::any_of(diag.fixits.begin(), diag.fixits.end(),
                     [&](const FixIt& f) { return f.action == action; });
}

TEST(Lint, NaiveStrideTransposeIsFlaggedWithWitnessAndFixits) {
  const auto kernel = transpose_ir(vm::TransposeAlgorithm::kCrsw, 32);
  const LintReport report = lint_kernel(kernel, Scheme::kRaw);

  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.severity(), Severity::kWarning);
  ASSERT_EQ(report.diagnostics.size(), 2u);

  // The contiguous read is fine; the stride write is the finding.
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kInfo);
  const Diagnostic& write = report.diagnostics[1];
  EXPECT_EQ(write.severity, Severity::kWarning);
  EXPECT_EQ(write.dir, AccessDir::kStore);

  // congestion-w, proven exactly, with the worst-warp witness attached.
  EXPECT_TRUE(write.analysis.cert.exact());
  EXPECT_EQ(write.analysis.cert.bound, 32.0);
  ASSERT_EQ(write.analysis.witness.size(), 1u);
  EXPECT_EQ(write.analysis.witness[0].first, "warp");
  EXPECT_EQ(write.analysis.witness_trace.size(), 32u);
  EXPECT_EQ(report.worst_site, 1u);
  EXPECT_EQ(report.worst.bound, 32.0);

  // Fix-its: both repairs the paper discusses, plus the loop swap.
  EXPECT_TRUE(has_fixit(write, "apply PAD(+1)"));
  EXPECT_TRUE(has_fixit(write, "apply RAP"));
  EXPECT_TRUE(has_fixit(write, "swap loop order"));
}

TEST(Lint, SameKernelLintsCleanUnderRap) {
  const auto kernel = transpose_ir(vm::TransposeAlgorithm::kCrsw, 32);
  const LintReport report = lint_kernel(kernel, Scheme::kRap);

  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.severity(), Severity::kInfo);
  // Not merely an expected-value envelope: a congestion-1 certificate.
  EXPECT_TRUE(report.worst.exact());
  EXPECT_EQ(report.worst.bound, 1.0);
  for (const Diagnostic& diag : report.diagnostics) {
    EXPECT_TRUE(diag.analysis.cert.exact());
    EXPECT_EQ(diag.analysis.cert.bound, 1.0);
    EXPECT_TRUE(diag.fixits.empty());
  }
}

TEST(Lint, OutOfBoundsIsAnError) {
  KernelDesc kernel;
  kernel.name = "oob";
  kernel.width = 8;
  kernel.rows = 2;
  kernel.vars = {{"u", 8}};
  AccessSite site;
  site.name = "runaway";
  site.flat = {0, 1, {8}};  // u=2.. walks past 16 words
  kernel.sites = {site};

  const LintReport report = lint_kernel(kernel, Scheme::kRaw);
  EXPECT_EQ(report.severity(), Severity::kError);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.diagnostics[0].analysis.cert.rule, "out-of-bounds");
  // Scheme fix-its cannot repair an out-of-bounds index.
  EXPECT_TRUE(report.diagnostics[0].fixits.empty());
}

TEST(Lint, JsonCarriesTheContractKeys) {
  const auto kernel = transpose_ir(vm::TransposeAlgorithm::kCrsw, 16);
  contract::expect_lint_report(contract::parse(
      lint_report_json(lint_kernel(kernel, Scheme::kRaw))));
}

TEST(Lint, TextRenderingNamesEverySite) {
  const auto kernel = transpose_ir(vm::TransposeAlgorithm::kSrcw, 16);
  const std::string text = lint_report_text(lint_kernel(kernel, Scheme::kRaw));
  EXPECT_NE(text.find("read.A"), std::string::npos);
  EXPECT_NE(text.find("write.B"), std::string::npos);
  EXPECT_NE(text.find("fix-it"), std::string::npos);
  EXPECT_NE(text.find("[warning]"), std::string::npos);
}

// --- race verdicts in lint reports (DESIGN.md §14) --------------------

/// A w=8 tile stage/drain pair; racy unless `barrier` separates them.
KernelDesc tile_kernel(bool barrier) {
  KernelDesc kernel;
  kernel.name = barrier ? "tile" : "tile-stripped";
  kernel.width = 8;
  kernel.rows = 16;
  kernel.vars = {{"u", 8}};
  AccessSite stage;
  stage.name = "stage";
  stage.dir = AccessDir::kStore;
  stage.warp = "u";
  stage.flat = {0, 1, {8}};  // warp u stores row u
  AccessSite drain;
  drain.name = "drain";
  drain.dir = AccessDir::kLoad;
  drain.warp = "u";
  drain.flat = {0, 8, {1}};  // warp u loads column u
  kernel.sites = {stage, drain};
  if (barrier) kernel.barriers.push_back(1);  // between stage and drain
  return kernel;
}

TEST(LintRaces, CleanKernelCarriesTheCertificate) {
  const LintReport report = lint_kernel(tile_kernel(true), Scheme::kRaw);
  ASSERT_TRUE(report.races);
  EXPECT_TRUE(report.races->race_free());
  EXPECT_TRUE(report.races->findings.empty());
  ASSERT_TRUE(report.races->certificate);

  const contract::JsonValue json = contract::parse(lint_report_json(report));
  contract::expect_lint_report(json);
  EXPECT_EQ(contract::at(contract::at(json, "races"), "race_free").serialize(),
            "true");
  const std::string text = lint_report_text(report);
  EXPECT_NE(text.find("races: none"), std::string::npos);
}

TEST(LintRaces, MissingBarrierIsAnErrorWithAnInsertBarrierFixit) {
  const LintReport report = lint_kernel(tile_kernel(false), Scheme::kRaw);
  EXPECT_EQ(report.severity(), Severity::kError);
  ASSERT_TRUE(report.races);
  EXPECT_FALSE(report.races->race_free());
  ASSERT_FALSE(report.races->findings.empty());
  EXPECT_FALSE(report.races->certificate);

  // Every finding row has an aligned fix-it slot, and the first one is
  // the provably-repairing INSERT-BARRIER.
  ASSERT_EQ(report.race_fixits.size(), report.races->findings.size());
  ASSERT_FALSE(report.race_fixits[0].empty());
  EXPECT_EQ(report.race_fixits[0][0].action, "INSERT-BARRIER");
  EXPECT_NE(report.race_fixits[0][0].detail.find("__syncthreads()"),
            std::string::npos);

  contract::expect_racy_lint_report(contract::parse(lint_report_json(report)));
  const std::string text = lint_report_text(report);
  EXPECT_NE(text.find("[error]"), std::string::npos);
  EXPECT_NE(text.find("fix-it: INSERT-BARRIER"), std::string::npos);

  // Applying the fix-it (a barrier before the second site) re-lints
  // clean — the acceptance loop, at the lint layer.
  KernelDesc repaired = tile_kernel(false);
  repaired.barriers.push_back(
      report.races->findings[0].second.site_index);
  const LintReport again = lint_kernel(repaired, Scheme::kRaw);
  ASSERT_TRUE(again.races);
  EXPECT_TRUE(again.races->race_free());
  EXPECT_NE(again.severity(), Severity::kError);
}

TEST(LintRaces, RacesOptionFalseSkipsThePass) {
  LintOptions options;
  options.races = false;
  const LintReport report =
      lint_kernel(tile_kernel(false), Scheme::kRaw, options);
  EXPECT_FALSE(report.races);
  EXPECT_TRUE(report.race_fixits.empty());
  // Without the race pass the missing barrier goes unnoticed and the
  // congestion verdict alone decides severity.
  EXPECT_NE(report.severity(), Severity::kError);
  EXPECT_EQ(lint_report_json(report).find("\"races\""), std::string::npos);
}

}  // namespace
}  // namespace rapsim::analyze
