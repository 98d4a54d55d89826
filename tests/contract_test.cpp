// The JSON contracts of rapsim's published documents (tests/contract.hpp),
// one suite per document family. Library renderers are built in process;
// documents only an executable renders come from running that binary.
// The suites run as the ctests certificate_schema, metrics_schema,
// lint_schema, replay_schema and hier_schema (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analyze/certificate.hpp"
#include "analyze/kernelir.hpp"
#include "analyze/lint.hpp"
#include "builtin_kernels.hpp"
#include "contract.hpp"

namespace rapsim::contract {
namespace {

/// Run a binary and parse its stdout as one document.
JsonValue run_json(const std::string& command) {
  const CommandResult run = run_command(command);
  EXPECT_EQ(run.status, 0) << command;
  return parse(run.output);
}

// ------------------------------------------------------------ certificate

TEST(CertificateSchema, EveryProofCarriesTheContract) {
  // A column walk, a stride-6 flat walk and an irregular stream (the
  // direct-eval path), each proven under all four schemes.
  const std::uint32_t w = 16;
  std::vector<std::uint64_t> column;
  std::vector<std::uint64_t> flat;
  for (std::uint64_t t = 0; t < w; ++t) {
    column.push_back(t * w);
    flat.push_back(6 * t);
  }
  std::vector<std::uint64_t> irregular = {0, 3, 1, 4, 1, 5};
  std::set<std::string> schemes;
  std::set<std::string> rules;
  for (const auto* trace : {&column, &flat, &irregular}) {
    const std::uint64_t rows = *std::max_element(trace->begin(),
                                                 trace->end()) / w + 1;
    for (const core::Scheme scheme :
         {core::Scheme::kRaw, core::Scheme::kPad, core::Scheme::kRas,
          core::Scheme::kRap}) {
      const JsonValue cert =
          parse(analyze::prove_trace(*trace, w, rows * w, scheme).to_json());
      SCOPED_TRACE(cert.serialize());
      expect_certificate(cert);
      schemes.insert(at(cert, "scheme").as_string());
      rules.insert(at(cert, "rule").as_string());
    }
  }
  EXPECT_EQ(schemes, (std::set<std::string>{"RAW", "PAD", "RAS", "RAP"}));
  EXPECT_TRUE(rules.count("rap-distinct-shifts"));
  EXPECT_TRUE(rules.count("direct-eval"));
}

// ---------------------------------------------------------------- metrics

TEST(MetricsSchema, Table2SweepCarriesTheContract) {
  expect_table2_metrics(run_json(std::string(RAPSIM_TABLE2_BIN) +
                                 " --format=json --trials=200 --widths=16,32"));
}

// ------------------------------------------------------------------- lint

TEST(LintSchema, CatalogEnvelopeAndReports) {
  const JsonValue doc =
      run_json(std::string(RAPSIM_LINT_BIN) +
               " --width=16 --scheme=raw --format=json --fail-on=never");
  EXPECT_EQ(at(doc, "tool").as_string(), "rapsim-lint");
  EXPECT_EQ(at(doc, "version").serialize(), "1");
  EXPECT_TRUE(at(doc, "width").is_integer());
  EXPECT_EQ(at(doc, "scheme").as_string(), "RAW");
  const JsonValue& reports = at(doc, "reports");
  ASSERT_TRUE(reports.is_array());
  ASSERT_FALSE(reports.as_array().empty());

  std::size_t warnings_with_fixits = 0;
  std::set<std::string> kernels;
  for (const JsonValue& report : reports.as_array()) {
    SCOPED_TRACE(at(report, "kernel").serialize());
    expect_lint_report(report);
    kernels.insert(at(report, "kernel").as_string());
    // The whole catalog is barrier-correct: every report certifies it.
    EXPECT_TRUE(at(at(report, "races"), "race_free").is_bool() &&
                at(at(report, "races"), "race_free").as_bool());
    for (const JsonValue& diag : at(report, "diagnostics").as_array()) {
      if (at(diag, "severity").as_string() == "warning" &&
          !at(diag, "fixits").as_array().empty()) {
        ++warnings_with_fixits;
      }
    }
  }
  EXPECT_GE(warnings_with_fixits, 1u) << "the stride transpose warns";
  EXPECT_TRUE(kernels.count("transpose-crsw"));
}

TEST(LintSchema, SynthesisBlockFeedsTheSynthesizeFixit) {
  // The CRSW transpose warns at bound w under RAW; the family search
  // certifies bound 1, so the report gains the synthesis block and a
  // SYNTHESIZE fix-it quoting the spec.
  analyze::LintOptions options;
  options.synthesize = true;
  const JsonValue report = parse(analyze::lint_report_json(analyze::lint_kernel(
      tools::builtin_kernel("transpose-crsw", 16), core::Scheme::kRaw,
      options)));
  expect_lint_report(report);
  const JsonValue& synthesis = at(report, "synthesis");
  ASSERT_TRUE(synthesis.is_object());
  EXPECT_EQ(at(at(synthesis, "certificate"), "bound").serialize(), "1");
  EXPECT_EQ(at(at(synthesis, "witness"), "kind").as_string(),
            "global-optimal");

  std::vector<std::string> details;
  for (const JsonValue& diag : at(report, "diagnostics").as_array()) {
    for (const JsonValue& fixit : at(diag, "fixits").as_array()) {
      if (at(fixit, "action").as_string() == "SYNTHESIZE") {
        details.push_back(at(fixit, "detail").as_string());
      }
    }
  }
  ASSERT_FALSE(details.empty()) << "no SYNTHESIZE fix-it";
  EXPECT_NE(details.front().find(at(at(synthesis, "mapping"), "spec")
                                     .as_string()),
            std::string::npos);
}

TEST(LintSchema, StrippedTileReportsTheRaceWitness) {
  expect_racy_lint_report(parse(analyze::lint_report_json(analyze::lint_kernel(
      analyze::parse_kernel_text(std::string(kStrippedTileKernel), 16),
      core::Scheme::kRaw))));
}

// ----------------------------------------------------------------- replay

TEST(ReplaySchema, CampaignManifestAndSummaryAgree) {
  const std::filesystem::path results =
      std::filesystem::path(testing::TempDir()) / "contract_replay_campaign";
  std::filesystem::remove_all(results);
  const CommandResult run = run_command(
      std::string(RAPSIM_REPLAY_BIN) + " campaign " RAPSIM_EXAMPLES_DIR
      "/contiguous_stride.trace " RAPSIM_EXAMPLES_DIR
      "/same_bank_adversary.trace --schemes=raw,ras,rap --trials=2"
      " --results=" + results.string());
  ASSERT_EQ(run.status, 0) << run.output;
  expect_campaign(parse(read_text((results / "manifest.json").string())),
                  parse(read_text((results / "summary.json").string())));
  std::filesystem::remove_all(results);
}

// ------------------------------------------------------------------- hier

TEST(HierSchema, RunDocumentEchoesItsConfig) {
  const JsonValue run = run_json(
      std::string(RAPSIM_HIER_BIN) +
      " --workload=bitonic --width=16 --sms=2 --scheduler=gto --scheme=rap"
      " --format=json");
  expect_hier_run(run);
  const JsonValue& config = at(run, "config");
  EXPECT_EQ(at(config, "workload").serialize(), "\"bitonic\"");
  EXPECT_EQ(at(config, "width").serialize(), "16");
  EXPECT_EQ(at(config, "sms").serialize(), "2");
  EXPECT_EQ(at(config, "scheduler").serialize(), "\"gto\"");
  EXPECT_EQ(at(at(config, "path"), "enabled").serialize(), "true")
      << "the memory path is on by default";
}

}  // namespace
}  // namespace rapsim::contract
