// Bank-level aggregation over runs.
//
// BankProfile answers the question the paper's whole argument turns on:
// *which banks* serialize under a given scheme. Each labeled row is one
// run's per-bank unique-request totals (from a RunTelemetry sink or any
// counts vector); render_heatmap() prints the rows as an ASCII intensity
// map, one character per bank, normalized per row — a RAW stride access
// shows one burning-hot column, RAS/RAP show an even wash.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rapsim::telemetry {

/// Labeled per-bank request totals, rendered as an ASCII heatmap.
class BankProfile {
 public:
  explicit BankProfile(std::uint32_t width);

  /// Append a row of per-bank counts (must have exactly `width` entries).
  void add_row(std::string label, std::vector<std::uint64_t> bank_counts);

  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<std::uint64_t>& row(std::size_t i) const {
    return rows_.at(i).counts;
  }
  [[nodiscard]] const std::string& label(std::size_t i) const {
    return rows_.at(i).label;
  }

  /// ASCII intensity map: one character per bank (banks wider than
  /// `max_columns` are folded into equal buckets), normalized per row.
  /// The scale runs " .:-=+*#%@" from zero to the row maximum; the row's
  /// max count and hottest bank are appended.
  [[nodiscard]] std::string render_heatmap(std::size_t max_columns = 64) const;

  /// {"width":w,"rows":[{"label":...,"bank_requests":[...]}]}
  [[nodiscard]] std::string to_json() const;

 private:
  struct Row {
    std::string label;
    std::vector<std::uint64_t> counts;
  };
  std::uint32_t width_;
  std::vector<Row> rows_;
};

}  // namespace rapsim::telemetry
