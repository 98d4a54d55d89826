// Sharded, resumable replay campaigns (trace replay, pillar 3).
//
// A campaign is a grid of cells — (trace x scheme) at the trace's width,
// each cell averaging `trials` independent replays — fanned across
// util::parallel_for_chunks worker shards. Campaigns are built to be
// killed: every finished cell is persisted immediately (atomic tmp +
// rename) under <results_dir>/cells/<key>.cell, keyed by a content hash
// of everything that determines its result (trace bytes, scheme, width,
// latency, trials, base seed). Re-invoking the same grid loads finished
// cells from the cache and computes only the rest, and the final
// summary.json is byte-identical to an uninterrupted run's: all
// aggregates are derived from the cells' exact integers (per-trial
// RunStats and the merged congestion Tally), never from accumulation
// order.
//
// Artifacts, all machine-readable and schema-checked by the replay_schema
// ctest (tests/contract_test.cpp):
//
//   <results_dir>/manifest.json   the grid: config + every cell's key and
//                                 cached/pending status at launch time
//   <results_dir>/cells/<key>.cell  one finished cell (text, versioned)
//   <results_dir>/summary.json    per-cell aggregates + the campaign-wide
//                                 congestion tally (Tally::merge over all
//                                 cells in key order)
//
// Trial seeds are a pure function of (cell key, trial index), so a cell's
// result does not depend on which other cells share the grid or on the
// number of worker threads.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "replay/trace.hpp"
#include "telemetry/span_tracer.hpp"
#include "util/stats.hpp"

namespace rapsim::replay {

struct CampaignConfig {
  std::vector<std::string> trace_paths;
  std::vector<core::Scheme> schemes;
  std::uint32_t latency = 1;
  std::uint32_t trials = 4;
  std::uint64_t seed = 1;
  /// Keep only traces whose header width is listed; empty = keep all.
  std::vector<std::uint32_t> widths;
  std::string results_dir = "results/replay";
  /// Optional span tracer: each freshly computed cell records a
  /// "cell:<key>" root span (cached cells record nothing — they do no
  /// replay work). Never owned; must outlive run_campaign.
  telemetry::SpanTracer* tracer = nullptr;
};

/// One (trace, scheme) grid cell. `width` duplicates the trace header's
/// width so the key — and the manifest — are self-contained.
struct CampaignCell {
  std::string trace_name;       // file stem, for humans
  std::uint64_t trace_hash = 0; // content_hash of the stream
  core::Scheme scheme = core::Scheme::kRaw;
  std::uint32_t width = 0;
  std::uint32_t latency = 1;
  std::uint32_t trials = 0;
  std::uint64_t seed = 0;

  /// 16-hex-digit cache key over every result-determining field (NOT the
  /// trace name: renaming a trace file keeps its cached cells valid).
  [[nodiscard]] std::string key() const;
  /// Seed for the trial'th replay map: mixes the key hash and the trial
  /// index, so cells never share RNG streams.
  [[nodiscard]] std::uint64_t trial_seed(std::uint32_t trial) const;
};

/// Exact per-trial machine results; all summary statistics derive from
/// these integers, which is what makes resumed summaries byte-identical.
struct TrialStats {
  std::uint64_t time = 0;
  std::uint64_t total_stages = 0;
  std::uint64_t dispatches = 0;
  std::uint32_t max_congestion = 0;

  friend bool operator==(const TrialStats&, const TrialStats&) = default;
};

struct CellResult {
  CampaignCell cell;
  std::vector<TrialStats> trials;  // one entry per trial, in trial order
  util::Tally congestion;          // per-dispatch congestion, all trials

  /// Versioned text serialization (the .cell file format).
  [[nodiscard]] std::string to_cell_text() const;
  /// Parse + validate a .cell file body; throws std::invalid_argument
  /// with a line number on malformed input.
  [[nodiscard]] static CellResult from_cell_text(const std::string& text);
};

/// Replay one cell: `trials` fresh maps over the trace, exact stats per
/// trial (one TraceWarpSource, rewound per trial). The trace must match
/// cell.width.
[[nodiscard]] CellResult run_cell(const CampaignCell& cell,
                                  const AccessTrace& trace);

struct CampaignReport {
  std::vector<CellResult> cells;   // sorted by key
  std::size_t cells_cached = 0;    // loaded from <results_dir>/cells/
  std::size_t cells_computed = 0;
  util::Tally merged_congestion;   // Tally::merge over all cells
  std::string manifest_path;
  std::string summary_path;
};

/// Execute (or resume) a campaign: build the grid, load cached cells,
/// fan the rest across parallel_for_chunks, persist each finished cell,
/// and write manifest.json + summary.json. Throws on unreadable traces
/// or an unwritable results directory.
[[nodiscard]] CampaignReport run_campaign(const CampaignConfig& config);

}  // namespace rapsim::replay
