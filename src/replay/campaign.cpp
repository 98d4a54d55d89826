#include "replay/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "core/factory.hpp"
#include "replay/replay.hpp"
#include "telemetry/json.hpp"
#include "telemetry/run_telemetry.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace rapsim::replay {

namespace fs = std::filesystem;

namespace {

constexpr const char* kCellMagic = "rapsim-cell";
constexpr std::uint32_t kCellVersion = 1;

using util::fnv1a;
using util::hex64;

[[noreturn]] void fail_cell(std::size_t line, const std::string& what) {
  throw std::invalid_argument("cell: line " + std::to_string(line) + ": " +
                              what);
}

void write_file_atomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("campaign: cannot write " + tmp);
    out << contents;
    if (!out) throw std::runtime_error("campaign: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("campaign: cannot rename " + tmp + " to " + path);
  }
}

}  // namespace

std::string CampaignCell::key() const {
  // Canonical field string; the trace name is deliberately absent.
  std::ostringstream canon;
  canon << hex64(trace_hash) << '|' << core::scheme_name(scheme) << '|'
        << width << '|' << latency << '|' << trials << '|' << seed;
  return hex64(fnv1a(canon.str()));
}

std::uint64_t CampaignCell::trial_seed(std::uint32_t trial) const {
  const std::uint64_t key_hash = fnv1a(key());
  util::SplitMix64 mix(key_hash ^
                       (0x9e3779b97f4a7c15ull * (std::uint64_t{trial} + 1)));
  return mix();
}

CellResult run_cell(const CampaignCell& cell, const AccessTrace& trace) {
  if (trace.header.width != cell.width) {
    throw std::invalid_argument("run_cell: trace width " +
                                std::to_string(trace.header.width) +
                                " does not match cell width " +
                                std::to_string(cell.width));
  }
  TraceWarpSource source(trace);
  const std::uint64_t rows =
      (trace.header.memory_size + cell.width - 1) / cell.width;

  CellResult result;
  result.cell = cell;
  result.trials.reserve(cell.trials);
  for (std::uint32_t trial = 0; trial < cell.trials; ++trial) {
    const auto map = core::make_matrix_map(cell.scheme, cell.width, rows,
                                           cell.trial_seed(trial));
    telemetry::RunTelemetry telemetry;
    dmm::Dmm machine(dmm::DmmConfig{cell.width, cell.latency}, *map);
    machine.set_telemetry(&telemetry);
    source.rewind(machine);
    const dmm::RunStats stats = machine.run(source);
    result.trials.push_back({stats.time, stats.total_stages, stats.dispatches,
                             stats.max_congestion});
    result.congestion.merge(telemetry.congestion);
  }
  return result;
}

std::string CellResult::to_cell_text() const {
  std::ostringstream out;
  out << kCellMagic << " v" << kCellVersion << '\n'
      << "key " << cell.key() << '\n'
      << "trace " << cell.trace_name << '\n'
      << "trace-hash " << hex64(cell.trace_hash) << '\n'
      << "scheme " << core::scheme_name(cell.scheme) << '\n'
      << "width " << cell.width << '\n'
      << "latency " << cell.latency << '\n'
      << "seed " << cell.seed << '\n'
      << "trials " << cell.trials << '\n';
  for (const TrialStats& t : trials) {
    out << "trial " << t.time << ' ' << t.total_stages << ' ' << t.dispatches
        << ' ' << t.max_congestion << '\n';
  }
  for (const auto& [value, count] : congestion.histogram()) {
    out << "hist " << value << ' ' << count << '\n';
  }
  out << "end\n";
  return out.str();
}

CellResult CellResult::from_cell_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  CellResult result;
  std::string recorded_key;
  bool saw_magic = false, saw_end = false;
  std::size_t trial_lines = 0;

  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word)) continue;
    if (saw_end) fail_cell(line_no, "content after 'end'");

    if (!saw_magic) {
      std::string version;
      if (word != kCellMagic || !(fields >> version) ||
          version != "v" + std::to_string(kCellVersion)) {
        fail_cell(line_no, std::string("expected '") + kCellMagic + " v" +
                               std::to_string(kCellVersion) + "' first");
      }
      saw_magic = true;
      continue;
    }

    const auto want_u64 = [&](std::uint64_t& slot) {
      if (!(fields >> slot)) {
        fail_cell(line_no, "expected a number after '" + word + "'");
      }
    };
    if (word == "key") {
      if (!(fields >> recorded_key)) fail_cell(line_no, "missing key value");
    } else if (word == "trace") {
      if (!(fields >> result.cell.trace_name)) {
        fail_cell(line_no, "missing trace name");
      }
    } else if (word == "trace-hash") {
      std::string hex;
      if (!(fields >> hex)) fail_cell(line_no, "missing trace hash");
      try {
        std::size_t used = 0;
        result.cell.trace_hash = std::stoull(hex, &used, 16);
        if (used != hex.size()) throw std::invalid_argument(hex);
      } catch (const std::exception&) {
        fail_cell(line_no, "malformed trace hash '" + hex + "'");
      }
    } else if (word == "scheme") {
      std::string name;
      if (!(fields >> name)) fail_cell(line_no, "missing scheme name");
      const auto scheme = core::parse_scheme_name(name);
      if (!scheme) fail_cell(line_no, "unknown scheme '" + name + "'");
      result.cell.scheme = *scheme;
    } else if (word == "width") {
      std::uint64_t v = 0;
      want_u64(v);
      result.cell.width = static_cast<std::uint32_t>(v);
    } else if (word == "latency") {
      std::uint64_t v = 0;
      want_u64(v);
      result.cell.latency = static_cast<std::uint32_t>(v);
    } else if (word == "seed") {
      want_u64(result.cell.seed);
    } else if (word == "trials") {
      std::uint64_t v = 0;
      want_u64(v);
      result.cell.trials = static_cast<std::uint32_t>(v);
    } else if (word == "trial") {
      TrialStats t;
      std::uint64_t max_cong = 0;
      if (!(fields >> t.time >> t.total_stages >> t.dispatches >> max_cong)) {
        fail_cell(line_no,
                  "expected 'trial <time> <stages> <dispatches> <max>'");
      }
      t.max_congestion = static_cast<std::uint32_t>(max_cong);
      result.trials.push_back(t);
      ++trial_lines;
    } else if (word == "hist") {
      std::uint64_t value = 0, count = 0;
      if (!(fields >> value >> count) || count == 0) {
        fail_cell(line_no, "expected 'hist <value> <positive count>'");
      }
      if (result.congestion.occurrences(value) != 0) {
        fail_cell(line_no, "duplicate histogram value " +
                               std::to_string(value));
      }
      result.congestion.add_count(value, count);
    } else if (word == "end") {
      saw_end = true;
    } else {
      fail_cell(line_no, "unknown field '" + word + "'");
    }
    std::string extra;
    if (word != "end" && fields >> extra) {
      fail_cell(line_no, "trailing tokens after '" + word + "'");
    }
  }
  if (!saw_magic) fail_cell(1, "missing cell magic");
  if (!saw_end) fail_cell(line_no + 1, "missing 'end' line");
  if (trial_lines != result.cell.trials) {
    fail_cell(line_no, "expected " + std::to_string(result.cell.trials) +
                           " trial lines, got " + std::to_string(trial_lines));
  }
  std::uint64_t dispatches = 0;
  for (const TrialStats& t : result.trials) dispatches += t.dispatches;
  if (result.congestion.count() != dispatches) {
    fail_cell(line_no, "histogram count " +
                           std::to_string(result.congestion.count()) +
                           " does not match total dispatches " +
                           std::to_string(dispatches));
  }
  if (recorded_key != result.cell.key()) {
    fail_cell(line_no, "recorded key " + recorded_key +
                           " does not match recomputed key " +
                           result.cell.key());
  }
  return result;
}

namespace {

struct GridTrace {
  std::string path;
  std::string name;
  AccessTrace trace;
  std::uint64_t hash = 0;
};

void emit_config(telemetry::JsonWriter& json, const CampaignConfig& config,
                 const std::vector<GridTrace>& traces) {
  json.key("config").begin_object();
  json.kv("latency", static_cast<std::uint64_t>(config.latency));
  json.kv("trials", static_cast<std::uint64_t>(config.trials));
  json.kv("seed", config.seed);
  json.key("schemes").begin_array();
  for (const core::Scheme scheme : config.schemes) {
    json.value(core::scheme_name(scheme));
  }
  json.end_array();
  json.key("traces").begin_array();
  for (const GridTrace& t : traces) {
    json.begin_object();
    json.kv("name", std::string_view(t.name));
    json.kv("hash", std::string_view(hex64(t.hash)));
    json.kv("width", static_cast<std::uint64_t>(t.trace.header.width));
    json.kv("threads", static_cast<std::uint64_t>(t.trace.header.num_threads));
    json.kv("memory_size", t.trace.header.memory_size);
    json.kv("records", static_cast<std::uint64_t>(t.trace.records.size()));
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void emit_tally(telemetry::JsonWriter& json, const util::Tally& tally) {
  json.begin_object();
  json.kv("count", static_cast<std::uint64_t>(tally.count()));
  json.kv("mean", tally.mean());
  json.kv("min", tally.count() ? tally.min() : 0);
  json.kv("max", tally.count() ? tally.max() : 0);
  json.kv("p50", tally.percentile(50.0));
  json.kv("p95", tally.percentile(95.0));
  json.kv("p99", tally.percentile(99.0));
  json.end_object();
}

void emit_cell(telemetry::JsonWriter& json, const CellResult& cell) {
  json.begin_object();
  json.kv("key", std::string_view(cell.cell.key()));
  json.kv("trace", std::string_view(cell.cell.trace_name));
  json.kv("trace_hash", std::string_view(hex64(cell.cell.trace_hash)));
  json.kv("scheme", core::scheme_name(cell.cell.scheme));
  json.kv("width", static_cast<std::uint64_t>(cell.cell.width));
  json.kv("latency", static_cast<std::uint64_t>(cell.cell.latency));
  json.kv("trials", static_cast<std::uint64_t>(cell.cell.trials));
  json.kv("seed", cell.cell.seed);

  std::uint64_t time_min = 0, time_max = 0, time_sum = 0;
  std::uint64_t stages = 0, dispatches = 0;
  for (std::size_t i = 0; i < cell.trials.size(); ++i) {
    const TrialStats& t = cell.trials[i];
    time_min = i == 0 ? t.time : std::min(time_min, t.time);
    time_max = std::max(time_max, t.time);
    time_sum += t.time;
    stages += t.total_stages;
    dispatches += t.dispatches;
  }
  json.key("time").begin_object();
  json.kv("mean", cell.trials.empty()
                      ? 0.0
                      : static_cast<double>(time_sum) /
                            static_cast<double>(cell.trials.size()));
  json.kv("min", time_min);
  json.kv("max", time_max);
  json.end_object();
  json.kv("pipeline_slots", stages);
  json.kv("dispatches", dispatches);
  json.key("congestion");
  emit_tally(json, cell.congestion);
  json.key("trial_times").begin_array();
  for (const TrialStats& t : cell.trials) json.value(t.time);
  json.end_array();
  json.end_object();
}

}  // namespace

CampaignReport run_campaign(const CampaignConfig& config) {
  if (config.trace_paths.empty()) {
    throw std::invalid_argument("run_campaign: no traces given");
  }
  if (config.schemes.empty()) {
    throw std::invalid_argument("run_campaign: no schemes given");
  }
  if (config.trials == 0) {
    throw std::invalid_argument("run_campaign: trials must be > 0");
  }

  // Load every trace once; apply the width filter.
  std::vector<GridTrace> traces;
  for (const std::string& path : config.trace_paths) {
    GridTrace t;
    t.path = path;
    t.name = fs::path(path).stem().string();
    t.trace = load_trace(path);
    t.trace.validate();
    t.hash = content_hash(t.trace);
    if (!config.widths.empty() &&
        std::find(config.widths.begin(), config.widths.end(),
                  t.trace.header.width) == config.widths.end()) {
      continue;
    }
    traces.push_back(std::move(t));
  }
  if (traces.empty()) {
    throw std::invalid_argument(
        "run_campaign: no traces left after the width filter");
  }

  // The grid, sorted by key so every artifact has one canonical order.
  struct GridCell {
    CampaignCell cell;
    std::string key;
    const GridTrace* trace = nullptr;
  };
  std::vector<GridCell> grid;
  for (const GridTrace& t : traces) {
    for (const core::Scheme scheme : config.schemes) {
      GridCell g;
      g.cell = CampaignCell{t.name,          t.hash,
                            scheme,          t.trace.header.width,
                            config.latency,  config.trials,
                            config.seed};
      g.key = g.cell.key();
      g.trace = &t;
      grid.push_back(std::move(g));
    }
  }
  std::sort(grid.begin(), grid.end(),
            [](const GridCell& a, const GridCell& b) { return a.key < b.key; });

  const fs::path results_dir(config.results_dir);
  const fs::path cells_dir = results_dir / "cells";
  fs::create_directories(cells_dir);

  // Resume: adopt any cached cell whose file parses and whose recomputed
  // key matches its name; anything torn or stale is recomputed.
  CampaignReport report;
  report.cells.resize(grid.size());
  std::vector<bool> cached(grid.size(), false);
  std::vector<std::size_t> work;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const fs::path cell_path = cells_dir / (grid[i].key + ".cell");
    bool ok = false;
    if (fs::exists(cell_path)) {
      std::ifstream in(cell_path, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      try {
        CellResult cell = CellResult::from_cell_text(buf.str());
        ok = cell.cell.key() == grid[i].key;
        if (ok) report.cells[i] = std::move(cell);
      } catch (const std::invalid_argument&) {
        ok = false;
      }
    }
    cached[i] = ok;
    if (!ok) work.push_back(i);
  }
  report.cells_cached = grid.size() - work.size();
  report.cells_computed = work.size();

  // Manifest first: the grid and its launch-time status, so an observer
  // (or a post-mortem) can see what a killed campaign still owed.
  {
    telemetry::JsonWriter json;
    json.begin_object();
    json.kv("schema_version", 1);
    json.kv("experiment", "rapsim_replay_campaign");
    json.kv("results_dir", std::string_view(config.results_dir));
    emit_config(json, config, traces);
    json.key("cells").begin_array();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      json.begin_object();
      json.kv("key", std::string_view(grid[i].key));
      json.kv("trace", std::string_view(grid[i].cell.trace_name));
      json.kv("scheme", core::scheme_name(grid[i].cell.scheme));
      json.kv("width", static_cast<std::uint64_t>(grid[i].cell.width));
      json.kv("status", cached[i] ? "cached" : "pending");
      json.end_object();
    }
    json.end_array();
    json.end_object();
    report.manifest_path = (results_dir / "manifest.json").string();
    write_file_atomic(report.manifest_path, json.str() + "\n");
  }

  // Fan the remaining cells across worker shards. Chunk granularity is
  // one cell (parallel_for_chunks hands chunks out dynamically), each
  // persisted the moment it finishes so a kill loses at most in-flight
  // cells. Errors propagate after the pool joins.
  if (!work.empty()) {
    util::parallel_for_chunks(
        work.size(), work.size(),
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          (void)chunk;
          for (std::size_t j = begin; j < end; ++j) {
            const GridCell& g = grid[work[j]];
            const std::uint64_t cell_span =
                config.tracer ? config.tracer->begin("cell:" + g.key)
                              : telemetry::kNoSpan;
            CellResult cell = run_cell(g.cell, g.trace->trace);
            if (config.tracer) config.tracer->end(cell_span);
            write_file_atomic((cells_dir / (g.key + ".cell")).string(),
                              cell.to_cell_text());
            report.cells[work[j]] = std::move(cell);
          }
        });
  }

  // Campaign-wide congestion: Tally::merge over the cells in key order.
  // Histogram addition commutes, so cached and fresh cells merge to the
  // same tally an uninterrupted run produces.
  for (const CellResult& cell : report.cells) {
    report.merged_congestion.merge(cell.congestion);
  }

  {
    telemetry::JsonWriter json;
    json.begin_object();
    json.kv("schema_version", 1);
    json.kv("experiment", "rapsim_replay_campaign");
    emit_config(json, config, traces);
    json.key("cells").begin_array();
    for (const CellResult& cell : report.cells) emit_cell(json, cell);
    json.end_array();
    json.key("congestion_merged");
    emit_tally(json, report.merged_congestion);
    json.end_object();
    report.summary_path = (results_dir / "summary.json").string();
    write_file_atomic(report.summary_path, json.str() + "\n");
  }
  return report;
}

}  // namespace rapsim::replay
