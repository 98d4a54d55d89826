// Extension experiment: scheme sweeps over captured traces instead of
// re-built kernels.
//
// Captures every built-in workload ONCE (traces record logical
// addresses, so one capture serves every scheme), then replays each
// trace under RAW / RAS / RAP / PAD, averaging the randomized schemes
// over --trials independent maps. Columns report replayed DMM time and
// max congestion, plus the static analyzer's certificate bound for the
// trace — the same replay-vs-certificate cross-check the campaign
// runner performs, here over the whole catalog.
//
// The shape to look for matches ext_workloads: capture-then-replay is
// exact, so the stride-broken workloads (transpose-srcw,
// reduction-interleaved, matmul-transposedb) collapse under RAW and
// recover under RAP, and the certificate column agrees with the
// replayed congestion wherever the bound is exact.
//
//   $ ext_trace_replay [--width=32] [--latency=1] [--trials=10]
//                      [--seed=1] [--format=ascii|markdown|csv]
//
// The report is deterministic and pinned by results/ext_trace_replay.txt;
// replay speed is rapbench's catalog-replay workload.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "replay/replay.hpp"
#include "replay/trace.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload_kernels.hpp"

namespace {

using namespace rapsim;

bool randomized(core::Scheme scheme) {
  return scheme == core::Scheme::kRas || scheme == core::Scheme::kRap;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const auto latency =
      static_cast<std::uint32_t>(args.get_uint("latency", 1));
  const std::uint64_t trials = args.get_uint("trials", 10);
  const std::uint64_t seed = args.get_uint("seed", 1);

  const std::vector<core::Scheme> schemes = {
      core::Scheme::kRaw, core::Scheme::kRas, core::Scheme::kRap,
      core::Scheme::kPad};

  util::TextTable table;
  table.row()
      .add("workload")
      .add("records")
      .add("scheme")
      .add("time")
      .add("max congestion")
      .add("certificate");

  for (const tools::WorkloadKernel& entry : tools::workload_kernels(width)) {
    // One capture per workload; the trace replays under every scheme.
    const auto capture_map =
        core::make_matrix_map(core::Scheme::kRaw, width, entry.rows, seed);
    dmm::Dmm recorder(dmm::DmmConfig{width, latency}, *capture_map);
    const replay::AccessTrace trace =
        replay::capture_run(recorder, entry.kernel);

    for (const core::Scheme scheme : schemes) {
      const std::uint64_t draws = randomized(scheme) ? trials : 1;
      util::OnlineStats time, congestion;
      for (std::uint64_t draw = 0; draw < draws; ++draw) {
        const auto map =
            core::make_matrix_map(scheme, width, entry.rows, seed + draw);
        replay::ReplayOptions options;
        options.latency = latency;
        const replay::ReplayResult result =
            replay::replay_trace(trace, *map, options);
        time.add(static_cast<double>(result.stats.time));
        congestion.add(static_cast<double>(result.stats.max_congestion));
      }
      const analyze::CongestionCertificate certificate =
          replay::certify_trace(trace, scheme);
      char bound[64];
      std::snprintf(bound, sizeof bound, "%s%.2f (%s)",
                    certificate.exact() ? "= " : "E<= ", certificate.bound,
                    certificate.rule.c_str());
      table.row()
          .add(entry.name)
          .add(static_cast<std::uint64_t>(trace.records.size()))
          .add(core::scheme_name(scheme))
          .add(time.mean(), 1)
          .add(congestion.mean(), 2)
          .add(bound);
    }
  }

  std::printf("trace replay scheme sweep: width=%u latency=%u trials=%llu\n",
              width, latency, static_cast<unsigned long long>(trials));
  table.print(std::cout, args.get_table_style());
  return 0;
}
