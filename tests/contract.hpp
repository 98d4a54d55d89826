// JSON contracts of the documents rapsim publishes, each rule stated once.
//
// One helper per document kind takes a parsed document and records a
// gtest failure for every rule it breaks. Rules that depend on the input
// (a workload name echoed in a config) stay with the test that chose the
// input. The suites in contract_test.cpp (ctests certificate_schema,
// metrics_schema, lint_schema, replay_schema, hier_schema) and the
// ServeSchema suite of serve_test.cpp (serve_schema) run them on every
// document kind.

#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace rapsim::contract {

using telemetry::JsonArray;
using telemetry::JsonValue;

/// A tile kernel without its stage/drain barrier: warps race (RAW).
inline constexpr std::string_view kStrippedTileKernel =
    "kernel stripped-tile\nwidth 16\nrows 16\nvar u 16\n"
    "site stage store flat lane=1 u=16 warp=u\n"
    "site drain load  flat lane=16 u=1 warp=u\n";

/// One JSON document; a parse error is a test failure and yields null.
[[nodiscard]] JsonValue parse(const std::string& text);

struct CommandResult {
  int status = -1;     // exit status, or -1 when the shell could not run it
  std::string output;  // stdout (plus stderr if the command redirects it)
};

/// The whole file at `path`; an unreadable file is a test failure.
[[nodiscard]] std::string read_text(const std::string& path);

/// Run `command` through /bin/sh and collect its stdout.
[[nodiscard]] CommandResult run_command(const std::string& command);

/// `object[key]`, or a null value when absent (expect_keys reports that).
[[nodiscard]] const JsonValue& at(const JsonValue& object,
                                  std::string_view key);

/// `object` is an object carrying every key in `keys`.
void expect_keys(const JsonValue& object,
                 std::initializer_list<std::string_view> keys);

/// A CongestionCertificate (analyze/certificate.hpp) as to_json renders it.
void expect_certificate(const JsonValue& certificate);

/// One lint report, with its races and synthesis blocks when present.
void expect_lint_report(const JsonValue& report);

/// The report of a kernel that races (kStrippedTileKernel): error
/// severity, a races block with findings and an INSERT-BARRIER fix-it.
void expect_racy_lint_report(const JsonValue& report);

/// A races block: race-free with a certificate, or findings and none.
void expect_races(const JsonValue& races);

/// A RaceFreedomCertificate (analyze/race.hpp) as to_json renders it.
void expect_race_certificate(const JsonValue& certificate);

/// One race finding with its two-access cross-warp witness.
void expect_race_finding(const JsonValue& finding);

/// A SynthesisResult (analyze/synth.hpp) as to_json renders it.
void expect_synthesis(const JsonValue& synthesis);

/// A MetricsRegistry dump: counters, gauges and distributions.
void expect_registry(const JsonValue& registry);

/// The entries named `name` in one registry section ("counters", ...).
[[nodiscard]] std::vector<const JsonValue*> registry_entries(
    const JsonValue& registry, std::string_view section,
    std::string_view name);

/// manifest.json and summary.json of one rapsim-replay campaign.
void expect_campaign(const JsonValue& manifest, const JsonValue& summary);

/// A rapsim-hier --format=json run document.
void expect_hier_run(const JsonValue& run);

/// The table2_congestion_sim --format=json document.
void expect_table2_metrics(const JsonValue& doc);

/// A BENCH document (perfbench::BenchReport, BENCH_serve.json).
void expect_bench_report(const JsonValue& doc);

/// A serve success response line for `method`; returns the envelope.
JsonValue expect_serve_success(const std::string& line,
                               std::string_view method);

/// A serve error response line; returns the parsed envelope.
JsonValue expect_serve_error(const std::string& line);

}  // namespace rapsim::contract
