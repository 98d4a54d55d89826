#include "contract.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace rapsim::contract {
namespace {

const JsonValue kNull;

const std::string& text(const JsonValue& value) {
  static const std::string kEmpty;
  EXPECT_TRUE(value.is_string()) << value.serialize();
  return value.is_string() ? value.as_string() : kEmpty;
}

bool one_of(const JsonValue& value,
            std::initializer_list<std::string_view> choices) {
  return value.is_string() &&
         std::find(choices.begin(), choices.end(), value.as_string()) !=
             choices.end();
}

std::int64_t integer(const JsonValue& value) {
  EXPECT_TRUE(value.is_integer()) << value.serialize();
  return value.is_integer() ? value.as_integer() : -1;
}

const JsonArray& array(const JsonValue& value) {
  static const JsonArray kEmpty;
  EXPECT_TRUE(value.is_array()) << value.serialize();
  return value.is_array() ? value.as_array() : kEmpty;
}

void expect_non_negative_integers(
    const JsonValue& object, std::initializer_list<std::string_view> keys) {
  expect_keys(object, keys);
  for (const std::string_view key : keys) {
    EXPECT_GE(integer(at(object, key)), 0) << key;
  }
}

/// A fix-it list: every entry names its action and detail.
void expect_fixits(const JsonValue& fixits) {
  for (const JsonValue& fixit : array(fixits)) {
    expect_keys(fixit, {"action", "detail"});
  }
}

/// A Tally summary (replay campaign cells and their merged tally).
void expect_tally(const JsonValue& tally) {
  expect_keys(tally, {"count", "mean", "min", "max", "p50", "p95", "p99"});
}

/// `object` has exactly `names` as members, in that order.
void expect_members(const JsonValue& object,
                    std::initializer_list<std::string_view> names) {
  ASSERT_TRUE(object.is_object()) << object.serialize();
  std::vector<std::string_view> got;
  for (const auto& [name, value] : object.as_object()) got.push_back(name);
  EXPECT_TRUE(std::ranges::equal(got, names)) << object.serialize();
}

}  // namespace

JsonValue parse(const std::string& text) {
  try {
    return telemetry::parse_json(text);
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << "not one JSON document: " << e.what() << "\n" << text;
    return {};
  }
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.output.append(buffer, got);
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) result.status = WEXITSTATUS(status);
  return result;
}

const JsonValue& at(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.find(key);
  return value ? *value : kNull;
}

void expect_keys(const JsonValue& object,
                 std::initializer_list<std::string_view> keys) {
  ASSERT_TRUE(object.is_object()) << "not an object: " << object.serialize();
  for (const std::string_view key : keys) {
    EXPECT_NE(object.find(key), nullptr)
        << "missing \"" << key << "\" in " << object.serialize();
  }
}

void expect_certificate(const JsonValue& certificate) {
  expect_keys(certificate,
              {"scheme", "kind", "bound", "rule", "claim", "pattern"});
  EXPECT_TRUE(one_of(at(certificate, "kind"), {"exact", "expected-upper"}));
  const JsonValue& bound = at(certificate, "bound");
  EXPECT_TRUE(bound.is_number() && bound.as_number() >= 0.0)
      << "bound " << bound.serialize();
  EXPECT_FALSE(text(at(certificate, "rule")).empty());
}

void expect_lint_report(const JsonValue& report) {
  expect_keys(report, {"kernel", "width", "rows", "scheme", "severity",
                       "clean", "worst", "worst_site", "diagnostics"});
  EXPECT_TRUE(one_of(at(report, "severity"), {"info", "warning", "error"}));
  const JsonArray& diagnostics = array(at(report, "diagnostics"));
  EXPECT_FALSE(diagnostics.empty());
  for (const JsonValue& diag : diagnostics) {
    expect_keys(diag, {"severity", "site", "dir", "message", "certificate",
                       "rule", "coverage", "bindings", "classes",
                       "out_of_bounds", "witness", "witness_trace",
                       "fixits"});
    expect_certificate(at(diag, "certificate"));
    EXPECT_TRUE(at(diag, "witness").is_object());
    EXPECT_TRUE(at(diag, "witness_trace").is_array());
    expect_fixits(at(diag, "fixits"));
  }
  if (const JsonValue* races = report.find("races")) expect_races(*races);
  if (const JsonValue* synthesis = report.find("synthesis")) {
    expect_synthesis(*synthesis);
  }
}

void expect_racy_lint_report(const JsonValue& report) {
  expect_lint_report(report);
  EXPECT_EQ(text(at(report, "severity")), "error");
  const JsonValue& races = at(report, "races");
  ASSERT_TRUE(races.is_object()) << "no races block";
  EXPECT_EQ(at(races, "race_free").serialize(), "false");
  std::size_t insert_barrier = 0;
  for (const JsonValue& finding : array(at(races, "findings"))) {
    for (const JsonValue& fixit : array(at(finding, "fixits"))) {
      if (one_of(at(fixit, "action"), {"INSERT-BARRIER"})) ++insert_barrier;
    }
  }
  EXPECT_GE(insert_barrier, 1u) << "no INSERT-BARRIER fix-it";
}

void expect_races(const JsonValue& races) {
  expect_keys(races, {"phases", "pairs_checked", "exhaustive", "race_free",
                      "findings"});
  const JsonValue& race_free = at(races, "race_free");
  ASSERT_TRUE(race_free.is_bool());
  const JsonArray& findings = array(at(races, "findings"));
  if (race_free.as_bool()) {
    EXPECT_TRUE(findings.empty()) << "a race-free verdict lists findings";
    const JsonValue* certificate = races.find("certificate");
    ASSERT_NE(certificate, nullptr) << "race-free without a certificate";
    expect_race_certificate(*certificate);
  } else {
    EXPECT_EQ(races.find("certificate"), nullptr)
        << "a certificate next to races";
    EXPECT_FALSE(findings.empty()) << "not race-free, yet no findings";
    for (const JsonValue& finding : findings) expect_race_finding(finding);
  }
}

void expect_race_certificate(const JsonValue& certificate) {
  expect_keys(certificate, {"kind", "kernel", "width", "rows", "phases",
                            "pairs_checked", "claim", "proofs"});
  EXPECT_EQ(text(at(certificate, "kind")), "race-freedom-certificate");
  for (const JsonValue& proof : array(at(certificate, "proofs"))) {
    expect_keys(proof, {"first_site", "second_site", "rule", "detail"});
    EXPECT_TRUE(one_of(at(proof, "rule"),
                       {"interval-disjoint", "residue-disjoint",
                        "no-zero-sum", "single-warp", "enumerated-disjoint"}))
        << at(proof, "rule").serialize();
  }
}

void expect_race_finding(const JsonValue& finding) {
  expect_keys(finding,
              {"kind", "phase", "detail", "first", "second", "fixits"});
  EXPECT_TRUE(one_of(at(finding, "kind"), {"RAW", "WAW", "WAR"}));
  const JsonValue& first = at(finding, "first");
  const JsonValue& second = at(finding, "second");
  for (const JsonValue* side : {&first, &second}) {
    expect_keys(*side, {"site", "dir", "lane", "warp", "address", "binding"});
    EXPECT_TRUE(at(*side, "binding").is_object());
  }
  EXPECT_EQ(at(first, "address").serialize(),
            at(second, "address").serialize())
      << "the witness sides touch different words";
  EXPECT_NE(at(first, "warp").serialize(), at(second, "warp").serialize())
      << "the witness does not cross warps";
  expect_fixits(at(finding, "fixits"));
}

void expect_synthesis(const JsonValue& synthesis) {
  expect_keys(synthesis,
              {"kernel", "width", "rows", "mapping", "certificate", "witness",
               "coverage", "classes", "candidates", "site_bounds",
               "witness_site", "witness_trace", "baseline"});
  const JsonValue& mapping = at(synthesis, "mapping");
  expect_keys(mapping, {"spec", "transform", "digits", "tables"});
  EXPECT_EQ(text(at(mapping, "spec")).rfind("ps1:", 0), 0u)
      << "the spec lacks its magic";
  const JsonValue& certificate = at(synthesis, "certificate");
  expect_certificate(certificate);
  EXPECT_EQ(text(at(certificate, "scheme")), "SYNTH");
  expect_keys(at(synthesis, "witness"),
              {"kind", "lower_bound", "reason", "detail", "family_size",
               "evaluated", "pruned"});
}

void expect_registry(const JsonValue& registry) {
  expect_keys(registry, {"counters", "gauges", "distributions"});
  for (const char* section : {"counters", "gauges"}) {
    for (const JsonValue& entry : array(at(registry, section))) {
      expect_keys(entry, {"name", "labels", "value"});
      EXPECT_TRUE(at(entry, "labels").is_object());
    }
  }
  for (const JsonValue& entry : array(at(registry, "distributions"))) {
    expect_keys(entry,
                {"name", "labels", "count", "mean", "p50", "p95", "p99"});
    EXPECT_TRUE(at(entry, "labels").is_object());
  }
}

std::vector<const JsonValue*> registry_entries(const JsonValue& registry,
                                               std::string_view section,
                                               std::string_view name) {
  std::vector<const JsonValue*> entries;
  for (const JsonValue& entry : array(at(registry, section))) {
    const JsonValue& entry_name = at(entry, "name");
    if (entry_name.is_string() && entry_name.as_string() == name) {
      entries.push_back(&entry);
    }
  }
  return entries;
}

void expect_campaign(const JsonValue& manifest, const JsonValue& summary) {
  for (const JsonValue* doc : {&manifest, &summary}) {
    expect_keys(*doc, {"schema_version", "experiment", "config", "cells"});
    EXPECT_EQ(at(*doc, "schema_version").serialize(), "1");
    EXPECT_EQ(text(at(*doc, "experiment")), "rapsim_replay_campaign");
    const JsonValue& config = at(*doc, "config");
    expect_keys(config, {"latency", "trials", "seed", "schemes", "traces"});
    const JsonArray& traces = array(at(config, "traces"));
    EXPECT_FALSE(traces.empty());
    for (const JsonValue& trace : traces) {
      expect_keys(trace, {"name", "hash", "width", "threads", "memory_size",
                          "records"});
    }
  }

  std::vector<std::string> manifest_keys;
  for (const JsonValue& cell : array(at(manifest, "cells"))) {
    expect_keys(cell, {"key", "trace", "scheme", "width", "status"});
    EXPECT_TRUE(one_of(at(cell, "status"), {"cached", "pending"}));
    manifest_keys.push_back(text(at(cell, "key")));
  }
  EXPECT_FALSE(manifest_keys.empty());

  std::vector<std::string> summary_keys;
  std::int64_t samples = 0;
  for (const JsonValue& cell : array(at(summary, "cells"))) {
    expect_keys(cell, {"key", "trace", "trace_hash", "scheme", "width",
                       "latency", "trials", "seed", "time", "pipeline_slots",
                       "dispatches", "congestion", "trial_times"});
    expect_keys(at(cell, "time"), {"mean", "min", "max"});
    expect_tally(at(cell, "congestion"));
    EXPECT_EQ(std::ssize(array(at(cell, "trial_times"))),
              integer(at(cell, "trials")))
        << "one trial_times entry per trial";
    samples += integer(at(at(cell, "congestion"), "count"));
    summary_keys.push_back(text(at(cell, "key")));
  }
  EXPECT_FALSE(summary_keys.empty());
  EXPECT_TRUE(std::is_sorted(summary_keys.begin(), summary_keys.end()))
      << "summary cells are not sorted by key";
  EXPECT_EQ(summary_keys, manifest_keys)
      << "manifest and summary list different cell grids";

  const JsonValue& merged = at(summary, "congestion_merged");
  expect_tally(merged);
  EXPECT_EQ(integer(at(merged, "count")), samples)
      << "the merged tally count is not the sum over cells";
}

void expect_hier_run(const JsonValue& run) {
  expect_keys(run, {"schema_version", "config", "total", "sms", "metrics"});
  EXPECT_EQ(at(run, "schema_version").serialize(), "1");

  const JsonValue& config = at(run, "config");
  expect_keys(config,
              {"workload", "width", "sms", "scheduler", "scheme", "path"});
  EXPECT_FALSE(text(at(config, "scheme")).empty());
  expect_non_negative_integers(
      at(config, "path"),
      {"line_words", "l1_lines", "l1_latency", "l2_lines", "l2_latency",
       "l2_service", "dram_latency", "dram_service", "mshrs"});

  const JsonValue& total = at(run, "total");
  expect_non_negative_integers(
      total, {"cycles", "dispatches", "total_stages", "max_congestion",
              "l2_hits", "l2_misses", "l2_queue_cycles"});
  for (const char* key : {"avg_congestion", "est_ns"}) {
    EXPECT_TRUE(at(total, key).is_number()) << "total." << key;
  }
  EXPECT_GT(integer(at(total, "cycles")), 0);

  const JsonArray& sms = array(at(run, "sms"));
  EXPECT_EQ(integer(at(config, "sms")), std::ssize(sms))
      << "one sms[] entry per configured SM";
  std::int64_t dispatches = 0;
  std::int64_t slowest = 0;
  for (std::size_t i = 0; i < sms.size(); ++i) {
    EXPECT_EQ(integer(at(sms[i], "sm")), static_cast<std::int64_t>(i));
    expect_non_negative_integers(
        sms[i], {"cycles", "dispatches", "total_stages", "max_congestion",
                 "l1_hits", "l1_misses", "l2_hits", "dram_fills",
                 "mshr_stall_cycles", "mem_wait_cycles", "idle_slots",
                 "warp_stall_slots"});
    dispatches += integer(at(sms[i], "dispatches"));
    slowest = std::max(slowest, integer(at(sms[i], "cycles")));
  }
  EXPECT_EQ(integer(at(total, "dispatches")), dispatches)
      << "total.dispatches is not the sum over SMs";
  EXPECT_EQ(integer(at(total, "cycles")), slowest)
      << "total.cycles is not the max over SMs";

  const JsonValue& metrics = at(run, "metrics");
  expect_registry(metrics);
  for (const char* name : {"hier.cycles", "hier.dispatches", "hier.l2_hits",
                           "hier.sm_cycles", "hier.l1_misses"}) {
    EXPECT_FALSE(registry_entries(metrics, "counters", name).empty())
        << "missing registry counter " << name;
  }
}

void expect_table2_metrics(const JsonValue& doc) {
  expect_keys(doc, {"schema_version", "experiment", "config", "results"});
  EXPECT_EQ(at(doc, "schema_version").serialize(), "1");
  EXPECT_EQ(text(at(doc, "experiment")), "table2_congestion_sim");
  const JsonValue& config = at(doc, "config");
  EXPECT_FALSE(array(at(config, "widths")).empty());
  EXPECT_TRUE(at(config, "trials").is_integer());
  EXPECT_TRUE(at(config, "seed").is_integer());

  const JsonArray& results = array(at(doc, "results"));
  EXPECT_FALSE(results.empty());
  std::vector<std::string> schemes;
  for (const JsonValue& cell : results) {
    expect_keys(cell,
                {"scheme", "pattern", "width", "congestion", "bank_requests"});
    expect_keys(at(cell, "congestion"),
                {"mean", "ci95", "min", "max", "p50", "p95", "p99"});
    EXPECT_EQ(std::to_string(array(at(cell, "bank_requests")).size()),
              at(cell, "width").serialize())
        << "bank_requests needs one total per bank";
    schemes.push_back(text(at(cell, "scheme")));
  }
  for (const char* scheme : {"RAW", "RAS", "RAP"}) {
    EXPECT_NE(std::find(schemes.begin(), schemes.end(), scheme),
              schemes.end())
        << "no " << scheme << " cell";
  }
}

void expect_bench_report(const JsonValue& doc) {
  expect_keys(doc, {"schema_version", "bench", "unix_time", "machine",
                    "config", "metrics"});
  EXPECT_EQ(integer(at(doc, "schema_version")), 1);
  EXPECT_FALSE(text(at(doc, "bench")).empty());
  EXPECT_TRUE(at(doc, "unix_time").is_integer());
  const JsonValue& machine = at(doc, "machine");
  for (const char* key : {"hostname", "os", "compiler"}) {
    EXPECT_FALSE(text(at(machine, key)).empty()) << "machine." << key;
  }
  EXPECT_TRUE(at(machine, "hardware_threads").is_integer());
  EXPECT_TRUE(at(doc, "config").is_object());
  const JsonArray& metrics = array(at(doc, "metrics"));
  EXPECT_FALSE(metrics.empty());
  for (const JsonValue& metric : metrics) {
    SCOPED_TRACE(metric.serialize());
    EXPECT_FALSE(text(at(metric, "name")).empty());
    expect_non_negative_integers(
        metric, {"samples", "items", "total_ns", "p50_ns", "p95_ns",
                 "p99_ns", "min_ns", "max_ns"});
    for (const char* key :
         {"ops_per_sec", "ns_per_op", "mean_ns", "stddev_ns"}) {
      EXPECT_TRUE(at(metric, key).is_number()) << key;
    }
    EXPECT_GT(integer(at(metric, "samples")), 0);
    const JsonValue& ns_per_op = at(metric, "ns_per_op");
    EXPECT_TRUE(ns_per_op.is_number() && ns_per_op.as_number() > 0.0);
    EXPECT_LE(integer(at(metric, "min_ns")), integer(at(metric, "p50_ns")));
    EXPECT_LE(integer(at(metric, "p50_ns")), integer(at(metric, "max_ns")));
  }
}

JsonValue expect_serve_success(const std::string& line,
                               std::string_view method) {
  JsonValue doc = parse(line);
  expect_members(doc, {"id", "ok", "method", "cached", "coalesced",
                       "elapsed_us", "result"});
  EXPECT_EQ(at(doc, "ok").serialize(), "true");
  EXPECT_EQ(text(at(doc, "method")), method);
  EXPECT_TRUE(at(doc, "cached").is_bool());
  EXPECT_TRUE(at(doc, "coalesced").is_bool());
  EXPECT_GE(integer(at(doc, "elapsed_us")), 0);
  return doc;
}

JsonValue expect_serve_error(const std::string& line) {
  JsonValue doc = parse(line);
  expect_members(doc, {"id", "ok", "method", "error"});
  EXPECT_EQ(at(doc, "ok").serialize(), "false");
  const JsonValue& error = at(doc, "error");
  expect_keys(error, {"code", "name", "message"});
  EXPECT_TRUE(at(error, "code").is_integer());
  EXPECT_FALSE(text(at(error, "name")).empty());
  EXPECT_FALSE(text(at(error, "message")).empty());
  return doc;
}

}  // namespace rapsim::contract
