// Regression comparison of two BENCH_<name>.json documents.
//
// tools/bench_compare (which wraps this) diffs a fresh document, such
// as the serve engine's BENCH_serve.json, against the committed one. A metric regresses when its ns_per_op
// degrades by at least `threshold` (a fraction: 0.30 = 30% slower).
// Comparison is by metric name; metrics present on only one side are
// reported but are NOT regressions (benches grow new metrics across
// PRs). Cross-machine documents still compare — the caller sees
// same_machine=false and judges the numbers accordingly.

#pragma once

#include <string>
#include <vector>

namespace rapsim::perfbench {

inline constexpr double kDefaultRegressionThreshold = 0.30;

struct MetricDelta {
  std::string name;
  double baseline_ns_per_op = 0.0;
  double current_ns_per_op = 0.0;
  double baseline_ops_per_sec = 0.0;
  double current_ops_per_sec = 0.0;
  /// current / baseline ns_per_op; > 1 is slower. 0 when the baseline
  /// metric recorded no time (then nothing can regress).
  double ratio = 0.0;
  bool regressed = false;
};

struct CompareResult {
  std::string bench;             // from the baseline document
  bool same_machine = true;      // hostnames match
  std::vector<MetricDelta> deltas;          // metrics on both sides
  std::vector<std::string> only_baseline;   // names missing from current
  std::vector<std::string> only_current;    // names missing from baseline
  bool regression = false;       // any delta regressed
};

/// Compare two serialized BENCH documents. Throws std::invalid_argument
/// on malformed JSON, a schema_version other than 1, or mismatched
/// bench names.
[[nodiscard]] CompareResult compare_bench_json(
    const std::string& baseline_json, const std::string& current_json,
    double threshold = kDefaultRegressionThreshold);

}  // namespace rapsim::perfbench
