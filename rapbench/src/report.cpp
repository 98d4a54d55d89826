#include "report.hpp"

#include <algorithm>

#include "telemetry/json.hpp"

namespace rapbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

std::optional<TailPercentile> tail_percentile(std::vector<double> samples,
                                              int wanted,
                                              std::size_t min_beyond) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (int p = wanted; p >= 1; --p) {
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (rank == 0 || n - rank < min_beyond) continue;
    return TailPercentile{p, samples[rank - 1], n - rank};
  }
  return std::nullopt;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  rapsim::telemetry::JsonWriter json;
  json.begin_object();
  json.kv("correct", correct);
  json.kv("attempted", attempted);
  json.kv("failed", failed);
  json.key("metrics").begin_object();
  for (const Metric& metric : metrics) {
    json.key(metric.name).begin_object();
    json.kv("value", metric.value);
    json.kv("unit", metric.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace rapbench
