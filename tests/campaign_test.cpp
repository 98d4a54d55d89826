// Campaign engine tests: cell determinism, the .cell text codec,
// resumability (killed campaigns complete from cached cells) and
// byte-identical summaries across interrupted and clean runs.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "replay/campaign.hpp"
#include "replay/trace.hpp"

namespace {

namespace fs = std::filesystem;
using namespace rapsim;
using replay::AccessTrace;
using replay::CampaignCell;
using replay::CampaignConfig;
using replay::CampaignReport;
using replay::CellResult;
using replay::RecordKind;
using replay::TraceRecord;

/// Small deterministic trace: one contiguous read, a barrier, then a
/// stride-w (single-column) write — conflict-free and fully-serialized
/// phases in one stream.
AccessTrace make_trace(std::uint32_t width, std::uint64_t column) {
  AccessTrace trace;
  trace.header.width = width;
  trace.header.num_threads = width;
  trace.header.memory_size = std::uint64_t{width} * width;

  TraceRecord read;
  read.kind = RecordKind::kRead;
  read.instr = 0;
  read.lane_mask = width == 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << width) - 1;
  for (std::uint32_t lane = 0; lane < width; ++lane) {
    read.addrs.push_back(lane);
  }
  trace.records.push_back(read);

  TraceRecord barrier;
  barrier.kind = RecordKind::kBarrier;
  barrier.instr = 1;
  trace.records.push_back(barrier);

  TraceRecord write;
  write.kind = RecordKind::kWrite;
  write.instr = 2;
  write.lane_mask = read.lane_mask;
  for (std::uint32_t lane = 0; lane < width; ++lane) {
    write.addrs.push_back(std::uint64_t{lane} * width + column);
  }
  trace.records.push_back(write);
  return trace;
}

CampaignCell make_cell(const AccessTrace& trace, core::Scheme scheme) {
  CampaignCell cell;
  cell.trace_name = "unit";
  cell.trace_hash = replay::content_hash(trace);
  cell.scheme = scheme;
  cell.width = trace.header.width;
  cell.latency = 1;
  cell.trials = 3;
  cell.seed = 9;
  return cell;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("rapsim_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(CampaignCellTest, KeyCoversResultDeterminingFieldsOnly) {
  const AccessTrace trace = make_trace(16, 0);
  const CampaignCell cell = make_cell(trace, core::Scheme::kRap);
  EXPECT_EQ(cell.key().size(), 16u);

  CampaignCell renamed = cell;
  renamed.trace_name = "something-else";
  EXPECT_EQ(cell.key(), renamed.key());  // renames keep the cache valid

  CampaignCell reseeded = cell;
  reseeded.seed = cell.seed + 1;
  EXPECT_NE(cell.key(), reseeded.key());
  CampaignCell rescheme = cell;
  rescheme.scheme = core::Scheme::kRas;
  EXPECT_NE(cell.key(), rescheme.key());
}

TEST(CampaignCellTest, TrialSeedsAreDistinctPerTrialAndPerCell) {
  const AccessTrace trace = make_trace(16, 0);
  const CampaignCell a = make_cell(trace, core::Scheme::kRas);
  CampaignCell b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(a.trial_seed(0), a.trial_seed(1));
  EXPECT_NE(a.trial_seed(0), b.trial_seed(0));
}

TEST(CampaignCellTest, RunCellIsDeterministic) {
  const AccessTrace trace = make_trace(16, 0);
  const CampaignCell cell = make_cell(trace, core::Scheme::kRap);
  const CellResult first = replay::run_cell(cell, trace);
  const CellResult second = replay::run_cell(cell, trace);
  ASSERT_EQ(first.trials.size(), cell.trials);
  EXPECT_EQ(first.trials, second.trials);
  EXPECT_EQ(first.congestion.histogram(), second.congestion.histogram());
}

TEST(CampaignCellTest, RawCellShowsTheColumnConflict) {
  const AccessTrace trace = make_trace(16, 0);
  const CellResult result =
      replay::run_cell(make_cell(trace, core::Scheme::kRaw), trace);
  for (const replay::TrialStats& trial : result.trials) {
    EXPECT_EQ(trial.max_congestion, 16u);  // the column write serializes
  }
}

TEST(CampaignCellTest, CellTextRoundTrips) {
  const AccessTrace trace = make_trace(16, 3);
  const CampaignCell cell = make_cell(trace, core::Scheme::kRas);
  const CellResult result = replay::run_cell(cell, trace);
  const CellResult back = CellResult::from_cell_text(result.to_cell_text());
  EXPECT_EQ(back.cell.key(), cell.key());
  EXPECT_EQ(back.cell.trace_name, cell.trace_name);
  EXPECT_EQ(back.trials, result.trials);
  EXPECT_EQ(back.congestion.histogram(), result.congestion.histogram());
  EXPECT_EQ(back.to_cell_text(), result.to_cell_text());
}

TEST(CampaignCellTest, CellTextRejectsMalformedInput) {
  const AccessTrace trace = make_trace(16, 3);
  const CellResult result =
      replay::run_cell(make_cell(trace, core::Scheme::kRas), trace);
  const std::string text = result.to_cell_text();

  EXPECT_THROW((void)CellResult::from_cell_text(""), std::invalid_argument);
  EXPECT_THROW((void)CellResult::from_cell_text("garbage\nend\n"),
               std::invalid_argument);
  // Truncation loses the end line.
  EXPECT_THROW(
      (void)CellResult::from_cell_text(text.substr(0, text.size() / 2)),
      std::invalid_argument);
  // Dropping one trial breaks the trial count.
  std::string missing_trial = text;
  const auto at = missing_trial.find("trial ");
  missing_trial.erase(at, missing_trial.find('\n', at) - at + 1);
  EXPECT_THROW((void)CellResult::from_cell_text(missing_trial),
               std::invalid_argument);
  // A doctored histogram no longer matches the dispatch totals.
  std::string doctored = text;
  const auto hist = doctored.find("hist ");
  doctored.erase(hist, doctored.find('\n', hist) - hist + 1);
  EXPECT_THROW((void)CellResult::from_cell_text(doctored),
               std::invalid_argument);
  // A doctored field invalidates the recorded key.
  std::string wrong_seed = text;
  wrong_seed.replace(wrong_seed.find("seed 9"), 6, "seed 8");
  EXPECT_THROW((void)CellResult::from_cell_text(wrong_seed),
               std::invalid_argument);
}

TEST(CampaignTest, ResumeCompletesFromCacheByteIdentically) {
  const fs::path dir = fresh_dir("campaign_resume");
  const fs::path trace_a = dir / "alpha.trace";
  const fs::path trace_b = dir / "beta.trace";
  replay::save_trace(make_trace(16, 0), trace_a.string(),
                     replay::TraceEncoding::kText);
  replay::save_trace(make_trace(16, 5), trace_b.string(),
                     replay::TraceEncoding::kBinary);

  CampaignConfig config;
  config.trace_paths = {trace_a.string(), trace_b.string()};
  config.schemes = {core::Scheme::kRaw, core::Scheme::kRas,
                    core::Scheme::kRap};
  config.trials = 3;
  config.seed = 5;
  config.results_dir = (dir / "results").string();

  // Clean run: 6 cells, nothing cached.
  const CampaignReport clean = replay::run_campaign(config);
  EXPECT_EQ(clean.cells.size(), 6u);
  EXPECT_EQ(clean.cells_cached, 0u);
  EXPECT_EQ(clean.cells_computed, 6u);
  const std::string summary = read_file(clean.summary_path);
  ASSERT_FALSE(summary.empty());

  // Unchanged re-run: everything cached, summary byte-identical.
  const CampaignReport warm = replay::run_campaign(config);
  EXPECT_EQ(warm.cells_cached, 6u);
  EXPECT_EQ(warm.cells_computed, 0u);
  EXPECT_EQ(read_file(warm.summary_path), summary);

  // Simulate a kill: delete one finished cell, tear another mid-write.
  std::size_t mutilated = 0;
  for (const auto& entry : fs::directory_iterator(dir / "results" / "cells")) {
    if (mutilated == 0) {
      fs::remove(entry.path());
    } else if (mutilated == 1) {
      const std::string text = read_file(entry.path());
      std::ofstream torn(entry.path(), std::ios::binary | std::ios::trunc);
      torn << text.substr(0, text.size() / 3);
    }
    if (++mutilated == 2) break;
  }
  ASSERT_EQ(mutilated, 2u);

  const CampaignReport resumed = replay::run_campaign(config);
  EXPECT_EQ(resumed.cells_cached, 4u);
  EXPECT_EQ(resumed.cells_computed, 2u);
  EXPECT_EQ(read_file(resumed.summary_path), summary);

  fs::remove_all(dir);
}

TEST(CampaignTest, WidthFilterAndEmptyGridsAreRejected) {
  const fs::path dir = fresh_dir("campaign_filter");
  const fs::path trace_16 = dir / "w16.trace";
  replay::save_trace(make_trace(16, 0), trace_16.string(),
                     replay::TraceEncoding::kText);

  CampaignConfig config;
  config.trace_paths = {trace_16.string()};
  config.schemes = {core::Scheme::kRaw};
  config.results_dir = (dir / "results").string();

  config.widths = {32};  // filters the only trace out
  EXPECT_THROW((void)replay::run_campaign(config), std::invalid_argument);

  config.widths = {16};
  const CampaignReport report = replay::run_campaign(config);
  EXPECT_EQ(report.cells.size(), 1u);

  config.trace_paths.clear();
  EXPECT_THROW((void)replay::run_campaign(config), std::invalid_argument);

  fs::remove_all(dir);
}

}  // namespace
