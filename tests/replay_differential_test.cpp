// Replay fidelity: capturing any built-in workload and replaying the
// trace under the same (scheme, width, seed) must reproduce the native
// run's RunStats exactly — time, slots, dispatches, max and average
// congestion — for every workload x scheme x width in {16, 32, 64}.
// The trace also has to survive both encodings unchanged on the way.
// The replay's per-bank telemetry is checked against a tally recomputed
// from the capture alone. And replay_trace, which runs the decoded trace
// directly, must report exactly what a run of lower_to_kernel(trace)
// reports: RunStats, telemetry, dispatch trace and sanitizer findings.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "dmm/sanitizer.hpp"
#include "replay/replay.hpp"
#include "replay/trace.hpp"
#include "telemetry/run_telemetry.hpp"
#include "workload_kernels.hpp"
#include "workloads/histogram.hpp"

namespace {

using namespace rapsim;

constexpr std::uint32_t kLatency = 2;
constexpr std::uint64_t kSeed = 42;

void expect_same_stats(const dmm::RunStats& native, const dmm::RunStats& got,
                       const std::string& label) {
  EXPECT_EQ(native.time, got.time) << label;
  EXPECT_EQ(native.total_stages, got.total_stages) << label;
  EXPECT_EQ(native.dispatches, got.dispatches) << label;
  EXPECT_EQ(native.max_congestion, got.max_congestion) << label;
  EXPECT_EQ(native.avg_congestion, got.avg_congestion) << label;
}

TEST(ReplayDifferential, ReplayReproducesNativeStatsExactly) {
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    for (const tools::WorkloadKernel& entry : tools::workload_kernels(width)) {
      for (const core::Scheme scheme :
           {core::Scheme::kRaw, core::Scheme::kRas, core::Scheme::kRap,
            core::Scheme::kPad}) {
        const std::string label = entry.name + " / " +
                                  core::scheme_name(scheme) + " / w=" +
                                  std::to_string(width);

        // Native run.
        const auto native_map =
            core::make_matrix_map(scheme, width, entry.rows, kSeed);
        dmm::Dmm native(dmm::DmmConfig{width, kLatency}, *native_map);
        const dmm::RunStats native_stats = native.run(entry.kernel);

        // Captured run on a fresh identical machine: recording must not
        // perturb the run it observes.
        const auto capture_map =
            core::make_matrix_map(scheme, width, entry.rows, kSeed);
        dmm::Dmm recorder(dmm::DmmConfig{width, kLatency}, *capture_map);
        dmm::RunStats captured_stats;
        const replay::AccessTrace trace =
            replay::capture_run(recorder, entry.kernel, &captured_stats);
        expect_same_stats(native_stats, captured_stats, label + " (capture)");
        ASSERT_NO_THROW(trace.validate()) << label;

        // The trace survives both encodings byte-for-byte.
        const replay::AccessTrace from_text =
            replay::parse_trace(replay::to_text(trace));
        const replay::AccessTrace from_binary =
            replay::parse_trace(replay::to_binary(trace));
        ASSERT_EQ(trace, from_text) << label;
        ASSERT_EQ(trace, from_binary) << label;

        // Replay of the round-tripped trace under the same (scheme,
        // width, seed) reproduces the native stats exactly.
        const auto replay_map =
            core::make_matrix_map(scheme, width, entry.rows, kSeed);
        replay::ReplayOptions options;
        options.latency = kLatency;
        const replay::ReplayResult result =
            replay::replay_trace(from_text, *replay_map, options);
        expect_same_stats(native_stats, result.stats, label + " (replay)");
        EXPECT_EQ(result.dispatches.dispatches.size(),
                  native_stats.dispatches)
            << label;
      }
    }
  }
}

TEST(ReplayDifferential, CaptureRecordsEveryDispatchedInstruction) {
  // Bitonic's compare-exchange steps are register-only instructions
  // that occupy dispatch slots; dropping them from the trace would shift
  // the round-robin schedule. The record count must match the dispatch
  // count, barriers aside.
  const std::uint32_t width = 16;
  const tools::WorkloadKernel entry =
      tools::workload_kernel("bitonic", width);
  const auto map =
      core::make_matrix_map(core::Scheme::kRaw, width, entry.rows, 1);
  dmm::Dmm machine(dmm::DmmConfig{width, 1}, *map);
  dmm::RunStats stats;
  const replay::AccessTrace trace =
      replay::capture_run(machine, entry.kernel, &stats);

  std::size_t memory_records = 0, register_records = 0;
  bool saw_barrier = false;
  for (const replay::TraceRecord& record : trace.records) {
    if (record.kind == replay::RecordKind::kBarrier) {
      saw_barrier = true;
    } else if (record.kind == replay::RecordKind::kRegister) {
      ++register_records;
    } else {
      ++memory_records;
    }
  }
  // Register-only warp-instructions never enter the MMU pipeline, so
  // RunStats::dispatches counts exactly the memory records.
  EXPECT_EQ(memory_records, stats.dispatches);
  EXPECT_GT(register_records, 0u);
  EXPECT_TRUE(saw_barrier);
}

TEST(ReplayDifferential, CertifyTraceMatchesObservedWorstCongestion) {
  // For the deterministic schemes the analyzer's worst-warp certificate
  // is exact, so it must equal the replayed max congestion.
  const std::uint32_t width = 32;
  const tools::WorkloadKernel entry =
      tools::workload_kernel("transpose-srcw", width);
  for (const core::Scheme scheme : {core::Scheme::kRaw, core::Scheme::kPad}) {
    const auto map = core::make_matrix_map(scheme, width, entry.rows, 1);
    dmm::Dmm machine(dmm::DmmConfig{width, 1}, *map);
    const replay::AccessTrace trace = replay::capture_run(machine, entry.kernel);
    const analyze::CongestionCertificate certificate =
        replay::certify_trace(trace, scheme);
    ASSERT_TRUE(certificate.exact()) << core::scheme_name(scheme);

    const auto replay_map = core::make_matrix_map(scheme, width, entry.rows, 1);
    const replay::ReplayResult result =
        replay::replay_trace(trace, *replay_map);
    EXPECT_EQ(static_cast<double>(result.stats.max_congestion),
              certificate.bound)
        << core::scheme_name(scheme);
  }
}

/// Per-bank telemetry recomputed from a trace without the machine:
/// translate each memory record's addresses, merge duplicates unless the
/// record is atomic (atomics serialize), count per bank, and keep each
/// bank's total and its largest single-record count.
struct BankRecount {
  std::vector<std::uint64_t> requests;
  std::vector<std::uint64_t> peak;
};

BankRecount recount_banks(const replay::AccessTrace& trace,
                        const core::AddressMap& map) {
  const std::uint32_t w = trace.header.width;
  BankRecount tally{std::vector<std::uint64_t>(w),
                  std::vector<std::uint64_t>(w)};
  for (const replay::TraceRecord& record : trace.records) {
    if (record.addrs.empty()) continue;  // barrier or register record
    std::vector<std::uint64_t> phys;
    for (const std::uint64_t addr : record.addrs) {
      phys.push_back(map.translate(addr));
    }
    if (record.kind != replay::RecordKind::kAtomic) {
      std::sort(phys.begin(), phys.end());
      phys.erase(std::unique(phys.begin(), phys.end()), phys.end());
    }
    std::vector<std::uint64_t> per_bank(w);
    for (const std::uint64_t p : phys) ++per_bank[p % w];
    for (std::uint32_t b = 0; b < w; ++b) {
      tally.requests[b] += per_bank[b];
      tally.peak[b] = std::max(tally.peak[b], per_bank[b]);
    }
  }
  return tally;
}

/// Replay `trace` under `map` on a DMM and on a UMM and compare the bank
/// telemetry with recount_banks(): requests on both machines, peaks on
/// the DMM, all-zero peaks on the UMM (it has no per-bank lines).
void expect_bank_telemetry(const replay::AccessTrace& trace,
                           const core::AddressMap& map,
                           const std::string& label) {
  const BankRecount expected = recount_banks(trace, map);
  replay::ReplayOptions options;
  options.latency = kLatency;
  const replay::ReplayResult dmm_run =
      replay::replay_trace(trace, map, options);
  EXPECT_EQ(dmm_run.telemetry.bank_requests, expected.requests) << label;
  EXPECT_EQ(dmm_run.telemetry.bank_peak, expected.peak) << label;
  options.kind = dmm::MachineKind::kUmm;
  const replay::ReplayResult umm_run =
      replay::replay_trace(trace, map, options);
  EXPECT_EQ(umm_run.telemetry.bank_requests, expected.requests)
      << label << " (UMM)";
  EXPECT_EQ(umm_run.telemetry.bank_peak,
            std::vector<std::uint64_t>(trace.header.width, 0))
      << label << " (UMM)";
}

constexpr core::Scheme kTelemetrySchemes[] = {
    core::Scheme::kRaw, core::Scheme::kRas, core::Scheme::kRap,
    core::Scheme::kPad};

TEST(ReplayDifferential, BankTelemetryMatchesARecountFromTheCapture) {
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    for (const tools::WorkloadKernel& entry : tools::workload_kernels(width)) {
      const auto capture_map =
          core::make_matrix_map(core::Scheme::kRaw, width, entry.rows, 0);
      dmm::Dmm recorder(dmm::DmmConfig{width, kLatency}, *capture_map);
      const replay::AccessTrace trace =
          replay::capture_run(recorder, entry.kernel);
      for (const core::Scheme scheme : kTelemetrySchemes) {
        const auto map = core::make_matrix_map(scheme, width, entry.rows, kSeed);
        expect_bank_telemetry(trace, *map,
                              entry.name + " / " + core::scheme_name(scheme) +
                                  " / w=" + std::to_string(width));
      }
    }
  }
}

TEST(ReplayDifferential, AtomicBankTelemetryMatchesARecount) {
  // The privatized histogram's increments are atomics: same-address
  // requests serialize instead of merging, so every lane counts.
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    workloads::HistogramConfig config;
    config.width = width;
    config.bins = 2 * width;
    const analyze::KernelDesc kernel =
        workloads::describe_histogram_kernel(config);
    replay::AccessTrace trace = replay::trace_from_kernel(kernel);
    ASSERT_TRUE(std::any_of(trace.records.begin(), trace.records.end(),
                            [](const replay::TraceRecord& record) {
                              return record.kind ==
                                     replay::RecordKind::kAtomic;
                            }));
    // Plus one increment of a single counter by every lane.
    replay::TraceRecord hot;
    hot.kind = replay::RecordKind::kAtomic;
    hot.instr = static_cast<std::uint32_t>(trace.records.size());
    hot.lane_mask = width == 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << width) - 1;
    hot.addrs.assign(width, 3);
    trace.records.push_back(std::move(hot));
    for (const core::Scheme scheme : kTelemetrySchemes) {
      const auto map = core::make_matrix_map(scheme, width, kernel.rows, kSeed);
      expect_bank_telemetry(trace, *map,
                            std::string("histogram / ") +
                                core::scheme_name(scheme) +
                                " / w=" + std::to_string(width));
    }
  }
}

/// Replay `trace` under `map` with replay_trace and, as the oracle, run
/// lower_to_kernel(trace) on a Dmm (a sanitized oracle run writes every
/// word with fill_identity first), and expect the same RunStats,
/// telemetry, dispatch trace and sanitizer findings. Returns the
/// sanitized run's finding total.
std::uint64_t expect_replay_matches_lowered_run(
    const replay::AccessTrace& trace, const core::AddressMap& map,
    dmm::MachineKind kind, bool sanitize, const std::string& label) {
  dmm::ShmemSanitizer got_sanitizer;
  replay::ReplayOptions options;
  options.latency = kLatency;
  options.kind = kind;
  if (sanitize) options.sanitizer = &got_sanitizer;
  const replay::ReplayResult got = replay::replay_trace(trace, map, options);

  dmm::Dmm machine(dmm::DmmConfig{trace.header.width, kLatency, kind}, map);
  telemetry::RunTelemetry telemetry;
  machine.set_telemetry(&telemetry);
  dmm::ShmemSanitizer want_sanitizer;
  if (sanitize) {
    machine.set_sanitizer(&want_sanitizer);
    machine.fill_identity();
  }
  dmm::Trace dispatches;
  const dmm::RunStats stats =
      machine.run(replay::lower_to_kernel(trace), &dispatches);

  expect_same_stats(stats, got.stats, label);
  EXPECT_EQ(dispatches.to_csv(), got.dispatches.to_csv()) << label;
  EXPECT_EQ(telemetry.bank_requests, got.telemetry.bank_requests) << label;
  EXPECT_EQ(telemetry.bank_peak, got.telemetry.bank_peak) << label;
  EXPECT_EQ(telemetry.congestion.histogram(),
            got.telemetry.congestion.histogram())
      << label;
  EXPECT_EQ(telemetry.dispatches, got.telemetry.dispatches) << label;
  EXPECT_EQ(telemetry.total_slots, got.telemetry.total_slots) << label;
  EXPECT_EQ(telemetry.warp_stall_slots, got.telemetry.warp_stall_slots)
      << label;
  EXPECT_EQ(telemetry.pipeline_idle_slots,
            got.telemetry.pipeline_idle_slots)
      << label;
  EXPECT_EQ(want_sanitizer.total(), got_sanitizer.total()) << label;
  EXPECT_EQ(want_sanitizer.report(), got_sanitizer.report()) << label;
  return got_sanitizer.total();
}

constexpr dmm::MachineKind kMachineKinds[] = {dmm::MachineKind::kDmm,
                                              dmm::MachineKind::kUmm};

/// Every scheme x machine kind, plain and sanitized, under matrix maps of
/// `trace`'s width. Returns the largest sanitized finding total.
std::uint64_t expect_replay_matches_lowered_runs(
    const replay::AccessTrace& trace, const std::string& name) {
  const std::uint32_t width = trace.header.width;
  const std::uint64_t rows = (trace.header.memory_size + width - 1) / width;
  std::uint64_t findings = 0;
  for (const core::Scheme scheme : kTelemetrySchemes) {
    const auto map = core::make_matrix_map(scheme, width, rows, kSeed);
    for (const dmm::MachineKind kind : kMachineKinds) {
      for (const bool sanitize : {false, true}) {
        const std::string label =
            name + " / " + core::scheme_name(scheme) + " / w=" +
            std::to_string(width) +
            (kind == dmm::MachineKind::kUmm ? " / UMM" : " / DMM") +
            (sanitize ? " / sanitized" : "");
        findings = std::max(findings, expect_replay_matches_lowered_run(
                                          trace, *map, kind, sanitize, label));
      }
    }
  }
  return findings;
}

TEST(ReplayDifferential, CatalogReplayMatchesALoweredKernelRun) {
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    for (const tools::WorkloadKernel& entry : tools::workload_kernels(width)) {
      const auto capture_map =
          core::make_matrix_map(core::Scheme::kRaw, width, entry.rows, 0);
      dmm::Dmm recorder(dmm::DmmConfig{width, kLatency}, *capture_map);
      const replay::AccessTrace trace =
          replay::capture_run(recorder, entry.kernel);
      (void)expect_replay_matches_lowered_runs(trace, entry.name);
    }
  }
}

TEST(ReplayDifferential, ExampleTracesReplayLikeALoweredKernelRun) {
  std::size_t traces = 0;
  for (const auto& file :
       std::filesystem::directory_iterator(RAPSIM_EXAMPLES_DIR)) {
    if (file.path().extension() != ".trace") continue;
    ++traces;
    (void)expect_replay_matches_lowered_runs(
        replay::load_trace(file.path().string()),
        file.path().filename().string());
  }
  EXPECT_GE(traces, 2u);
}

TEST(ReplayDifferential, HandWrittenTracesReplayLikeALoweredKernelRun) {
  // Warp 1's records out of instruction order, a partial last warp (10
  // threads over warps of 4), instruction gaps, register-only records,
  // atomics on one word from two warps, a merged write of two lanes to
  // one word, a barrier, and cross-warp races on both sides of it, so
  // the sanitized runs have findings to compare.
  const std::string races =
      "rapsim-trace v1\nwidth 4\nthreads 10\nsize 64\n"
      "write 6 1 f 8 9 10 11\n"
      "read 2 1 5 4 20\n"
      "reg 4 1 6\n"
      "read 0 0 f 0 4 8 12\n"
      "write 2 0 3 8 9\n"
      "read 0 2 3 1 5\n"
      "atomic 4 0 f 7 7 7 7\n"
      "atomic 4 2 3 7 7\n"
      "barrier 9\n"
      "read 12 2 2 8\n"
      "reg 11 0 9\n"
      "write 12 0 1 8\n"
      "read 15 1 f 3 3 3 3\n"
      "write 14 2 3 40 40\n"
      "end\n";
  EXPECT_GT(expect_replay_matches_lowered_runs(replay::parse_trace(races),
                                               "races"),
            0u);
  // A warp with nothing but barriers, a barrier first and last, and a
  // partial last warp of atomics.
  const std::string barriers =
      "rapsim-trace v1\nwidth 8\nthreads 20\nsize 128\n"
      "barrier 0\n"
      "atomic 3 2 f 1 1 2 2\n"
      "write 1 0 ff 0 8 16 24 32 40 48 56\n"
      "barrier 4\n"
      "read 5 0 81 0 64\n"
      "reg 6 2 a\n"
      "barrier 7\n"
      "end\n";
  (void)expect_replay_matches_lowered_runs(replay::parse_trace(barriers),
                                           "barriers");
}

}  // namespace
