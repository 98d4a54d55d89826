// perfbench: aggregation math against hand-computed fixtures, the
// BENCH_*.json schema (checked on a parsed document, and on the committed
// BENCH_serve.json), and the bench_compare regression thresholds. The serve trajectory gate (tools/bench_compare + the
// committed BENCH_serve.json) is only trustworthy if these invariants
// hold.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "contract.hpp"
#include "perfbench/compare.hpp"
#include "perfbench/perfbench.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"

namespace {

using namespace rapsim;

// ---------------------------------------------------------------- clock

TEST(PerfbenchClock, ElapsedIsMonotoneAndSaturating) {
  const util::TimePoint a = util::now();
  const util::TimePoint b = util::now();
  EXPECT_GE(util::elapsed_ns(a, b), 0u);
  // Reversed order saturates to 0 instead of wrapping to ~2^64.
  EXPECT_EQ(util::elapsed_ns(b, a), 0u);
  EXPECT_EQ(util::elapsed_ns(a, a), 0u);
}

// -------------------------------------------------- aggregate_latencies

TEST(AggregateLatencies, WallWindowDrivesThroughput) {
  // 4 ops at 100/200/300/400 ns inside a 2000 ns window: throughput is
  // ops/window (2M/s), ns_per_op is the median latency (nearest-rank:
  // 200), NOT window/ops — concurrent clients overlap.
  util::Tally latency;
  for (const std::uint64_t ns : {100, 200, 300, 400}) latency.add(ns);
  const perfbench::Aggregate agg =
      perfbench::aggregate_latencies(latency, 2000);
  EXPECT_EQ(agg.samples, 4u);
  EXPECT_EQ(agg.total_ns, 2000u);
  EXPECT_DOUBLE_EQ(agg.ops_per_sec, 4.0 / (2000.0 / 1e9));
  EXPECT_DOUBLE_EQ(agg.ns_per_op, 200.0);
  EXPECT_EQ(agg.p99_ns, 400u);
  EXPECT_DOUBLE_EQ(agg.mean_ns, 250.0);
}

TEST(AggregateLatencies, EmptyTallyIsZeroed) {
  const perfbench::Aggregate agg =
      perfbench::aggregate_latencies(util::Tally{}, 1000);
  EXPECT_EQ(agg.samples, 0u);
  EXPECT_DOUBLE_EQ(agg.ns_per_op, 0.0);
}

// ------------------------------------------------------ report schema

std::string report_with(double base_ns_per_op, const std::string& name,
                        const std::string& bench = "unit") {
  perfbench::BenchReport report(bench);
  report.set_config("trials", std::uint64_t{7});
  report.set_config("label", "fixture");
  perfbench::Aggregate agg;  // only the fields the tests read
  agg.samples = 3;
  agg.items = 10;
  agg.ns_per_op = base_ns_per_op;
  report.add(name, agg);
  return report.to_json();
}

TEST(BenchReport, JsonCarriesTheStableFieldSet) {
  const std::string json = report_with(25.0, "metric_a");
  for (const char* field :
       {"\"schema_version\":1", "\"bench\":\"unit\"", "\"unix_time\":",
        "\"machine\":", "\"hostname\":", "\"os\":", "\"compiler\":",
        "\"hardware_threads\":", "\"config\":", "\"trials\":7",
        "\"label\":\"fixture\"", "\"metrics\":", "\"name\":\"metric_a\"",
        "\"samples\":3", "\"items\":10", "\"total_ns\":", "\"ops_per_sec\":",
        "\"ns_per_op\":25", "\"p50_ns\":", "\"p95_ns\":", "\"p99_ns\":",
        "\"min_ns\":", "\"max_ns\":", "\"mean_ns\":", "\"stddev_ns\":"}) {
    EXPECT_NE(json.find(field), std::string::npos)
        << "missing " << field << " in " << json;
  }
}

TEST(BenchReport, JsonMeetsTheBenchSchema) {
  // Built the way bench/ext_serve_throughput builds its document.
  perfbench::BenchReport report("ext_serve_throughput");
  report.set_config("requests", std::uint64_t{64});
  report.set_config("width", std::uint64_t{32});
  util::Tally cold;
  for (const std::uint64_t ns : {900, 1200, 15000, 1100}) cold.add(ns);
  util::Tally warm;
  for (const std::uint64_t ns : {300, 250, 410}) warm.add(ns);
  report.add("cold", perfbench::aggregate_latencies(cold, 20000));
  report.add("warm", perfbench::aggregate_latencies(warm, 1000));
  contract::expect_bench_report(contract::parse(report.to_json()));
}

TEST(BenchReport, CommittedServeBaselineMeetsTheBenchSchema) {
  std::ifstream in(RAPSIM_SOURCE_DIR "/BENCH_serve.json");
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  contract::expect_bench_report(contract::parse(text.str()));
}

// ---------------------------------------------------------- compare

TEST(BenchCompare, SelfCompareNeverRegresses) {
  const std::string doc = report_with(100.0, "m");
  const perfbench::CompareResult result =
      perfbench::compare_bench_json(doc, doc);
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_FALSE(result.regression);
  EXPECT_TRUE(result.same_machine);
  EXPECT_DOUBLE_EQ(result.deltas[0].ratio, 1.0);
}

TEST(BenchCompare, ThresholdIsAnInclusiveBoundary) {
  const std::string base = report_with(100.0, "m");
  // 29% slower: under the default 30% threshold.
  EXPECT_FALSE(
      perfbench::compare_bench_json(base, report_with(129.0, "m"))
          .regression);
  // Exactly 30% slower: the boundary regresses (>=, not >).
  EXPECT_TRUE(
      perfbench::compare_bench_json(base, report_with(130.0, "m"))
          .regression);
  // A custom tighter threshold flips the 29% case.
  EXPECT_TRUE(
      perfbench::compare_bench_json(base, report_with(129.0, "m"), 0.10)
          .regression);
  // Faster never regresses, at any threshold.
  EXPECT_FALSE(
      perfbench::compare_bench_json(base, report_with(50.0, "m"), 0.01)
          .regression);
}

TEST(BenchCompare, DisjointMetricsAreReportedNotRegressions) {
  const perfbench::CompareResult result = perfbench::compare_bench_json(
      report_with(100.0, "old_metric"), report_with(900.0, "new_metric"));
  EXPECT_TRUE(result.deltas.empty());
  ASSERT_EQ(result.only_baseline.size(), 1u);
  EXPECT_EQ(result.only_baseline[0], "old_metric");
  ASSERT_EQ(result.only_current.size(), 1u);
  EXPECT_EQ(result.only_current[0], "new_metric");
  EXPECT_FALSE(result.regression);
}

TEST(BenchCompare, RejectsMalformedAndMismatchedDocuments) {
  const std::string good = report_with(10.0, "m");
  EXPECT_THROW((void)perfbench::compare_bench_json("not json", good),
               std::invalid_argument);
  EXPECT_THROW((void)perfbench::compare_bench_json(good, "{}"),
               std::invalid_argument);
  EXPECT_THROW((void)perfbench::compare_bench_json(
                   good, report_with(10.0, "m", "other_bench")),
               std::invalid_argument);
}

}  // namespace
