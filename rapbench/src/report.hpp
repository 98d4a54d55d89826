// Summary statistics and the result line the benchmark prints last.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rapbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// A nearest-rank percentile together with how many samples lie above it.
struct TailPercentile {
  int percentile = 0;
  double value = 0.0;
  std::size_t beyond = 0;  // samples ranked above `value`
};

/// The tail rule for latency reports: the `wanted` percentile when at
/// least `min_beyond` samples lie beyond it, otherwise the highest whole
/// percentile below `wanted` that has that many; nullopt when even the
/// 1st percentile does not. Nearest rank: the p-th percentile of n sorted
/// samples is the ceil(p * n / 100)-th.
[[nodiscard]] std::optional<TailPercentile> tail_percentile(
    std::vector<double> samples, int wanted = 90, std::size_t min_beyond = 10);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace rapbench
