// Bank-level and phase-level aggregation over runs and traces.
//
// BankProfile answers the question the paper's whole argument turns on:
// *which banks* serialize under a given scheme. Each labeled row is one
// run's per-bank unique-request totals (from a RunTelemetry sink or any
// counts vector); render_heatmap() prints the rows as an ASCII intensity
// map, one character per bank, normalized per row — a RAW stride access
// shows one burning-hot column, RAS/RAP show an even wash.
//
// The phase helpers slice a dmm::Trace by instruction index: every
// dispatch of instruction k belongs to phase k, so a two-instruction
// transpose kernel yields a read phase (k = 0) and a write phase (k = 1),
// and any straight-line kernel splits the same way.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dmm/trace.hpp"

namespace rapsim::telemetry {

/// Congestion statistics of one kernel phase (one instruction index).
struct PhaseStats {
  std::uint32_t instruction = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t slots = 0;        // pipeline slots consumed by the phase
  double avg_congestion = 0.0;
  std::uint32_t max_congestion = 0;
  std::uint64_t first_start = 0;  // earliest dispatch slot
  std::uint64_t last_completion = 0;
};

/// Stats of the dispatches of one instruction. Instructions that never
/// dispatched (barriers, register-only, fully idle) yield an empty entry.
[[nodiscard]] PhaseStats phase_stats(const dmm::Trace& trace,
                                     std::uint32_t instruction);

/// One PhaseStats per instruction index that appears in the trace,
/// ordered by instruction — the kernel's phase timeline.
[[nodiscard]] std::vector<PhaseStats> per_instruction_stats(
    const dmm::Trace& trace);

/// Multi-line rendering of per_instruction_stats: one line per phase with
/// its dispatch window and congestion.
[[nodiscard]] std::string render_phase_timeline(const dmm::Trace& trace);

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
