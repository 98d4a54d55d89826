// Execution trace of a DMM/UMM run.
//
// Records one entry per dispatched warp-instruction: when it entered the
// MMU pipeline, how many stages it occupied (its congestion), and when it
// completed. The Figure 3 bench replays the paper's worked example from
// such a trace.
//
// Renderers: to_string/to_csv (one line per dispatch), the phase helpers
// and a chrome://tracing export. The phase helpers slice a trace by
// instruction index: every dispatch of instruction k belongs to phase k,
// so a two-instruction transpose kernel yields a read phase (k = 0) and a
// write phase (k = 1), and any straight-line kernel splits the same way.
//
// to_chrome_trace converts a trace into the Trace Event Format JSON that
// Perfetto (https://ui.perfetto.dev) and chrome://tracing load directly.
// One timeline track per warp; per dispatch:
//
//   * a complete ("X") event over the warp's pipeline slots
//     [start, start + stages) named "i<instr> c<congestion>", carrying
//     the full DispatchRecord in args;
//   * optionally a "latency" event over (start + stages, completion],
//     so the memory-latency tail is visible and the track visually ends
//     at the paper's completion time (Figure 3: t = 7);
//   * optionally a "congestion" counter ("C") event at the dispatch slot.
//
// Time units are pipeline slots rendered as microseconds (the format has
// no dimensionless unit); only relative positions are meaningful.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rapsim::dmm {

struct DispatchRecord {
  std::uint32_t warp = 0;         // warp id
  std::uint32_t instruction = 0;  // index into Kernel::instructions
  std::uint64_t start = 0;        // first pipeline slot occupied
  std::uint32_t stages = 0;       // slots occupied == congestion
  std::uint64_t completion = 0;   // time unit at which all requests finish
  std::uint32_t active_threads = 0;
  std::uint32_t unique_requests = 0;  // after CRCW merging
};

struct Trace {
  std::vector<DispatchRecord> dispatches;

  void clear() { dispatches.clear(); }

  /// Multi-line human-readable rendering (one dispatch per line).
  [[nodiscard]] std::string to_string() const;

  /// CSV rendering with a header row (warp, instruction, start, stages,
  /// completion, active_threads, unique_requests) — for offline analysis
  /// of a kernel's bank-conflict timeline.
  [[nodiscard]] std::string to_csv() const;

  /// Parse a to_csv() document back into a trace (lossless round-trip).
  /// Requires the exact header row; throws std::invalid_argument with a
  /// line number for a missing/wrong header, a row with the wrong number
  /// of fields, or a non-numeric field.
  [[nodiscard]] static Trace from_csv(const std::string& csv);
};

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
[[nodiscard]] PhaseStats phase_stats(const Trace& trace,
                                     std::uint32_t instruction);

/// One PhaseStats per instruction index that appears in the trace,
/// ordered by instruction — the kernel's phase timeline.
[[nodiscard]] std::vector<PhaseStats> per_instruction_stats(
    const Trace& trace);

/// Multi-line rendering of per_instruction_stats: one line per phase with
/// its dispatch window and congestion.
[[nodiscard]] std::string render_phase_timeline(const Trace& trace);

struct ChromeTraceOptions {
  std::string process_name = "rapsim dmm";
  bool latency_spans = true;        // show the l-slot memory latency tail
  bool congestion_counter = true;   // emit a congestion counter track
};

/// Render `trace` as a Trace Event Format document:
/// {"traceEvents":[...], "displayTimeUnit":"ms"}.
[[nodiscard]] std::string to_chrome_trace(
    const Trace& trace, const ChromeTraceOptions& options = {});

}  // namespace rapsim::dmm
