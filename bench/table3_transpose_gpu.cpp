// Reproduction of Table III: congestion on the DMM and computing time for
// the CRSW, SRCW and DRDW transpose algorithms under the RAW, RAS and RAP
// implementations (32 x 32 matrix).
//
// Paper values (GeForce GTX TITAN):
//
//                 RAW           RAS             RAP
//                 r/w    ns     r/w      ns     r/w      ns
//   CRSW          1/32   1595   1/3.53   303.6  1/1      154.5
//   SRCW          32/1   1596   3.53/1   297.1  1/1      159.1
//   DRDW          1/1    158.4  3.53/3.53 427.4 3.61/3.61 433.3
//
// Our "time" column is the calibrated SM timing model applied to the DMM
// trace (no GPU in this environment — see DESIGN.md section 2); the two
// RAW anchors are calibrated, everything else is predicted.
//
//   $ table3_transpose_gpu [--width=32] [--latency=1] [--seeds=500]

#include <cstdio>
#include <iostream>
#include <utility>

#include "core/factory.hpp"
#include "gpu/sm_model.hpp"
#include "telemetry/bank_profile.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const auto latency =
      static_cast<std::uint32_t>(args.get_uint("latency", 1));
  const std::uint64_t seeds = args.get_uint("seeds", 500);
  const auto params = gpu::SmTimingParams::titan_calibrated();

  const double paper_ns[3][3] = {
      {1595.0, 303.6, 154.5},  // CRSW: RAW RAS RAP
      {1596.0, 297.1, 159.1},  // SRCW
      {158.4, 427.4, 433.3},   // DRDW
  };

  std::printf(
      "== Table III: transpose congestion on the DMM + modeled GPU time "
      "(w = %u, %llu seeds) ==\n\n",
      width, static_cast<unsigned long long>(seeds));

  util::TextTable table;
  table.row()
      .add("algorithm")
      .add("scheme")
      .add("read cong")
      .add("write cong")
      .add("model ns")
      .add("paper ns")
      .add("model/paper");

  const std::pair<const char*, const char*> algs[] = {
      {"CRSW", "transpose-crsw"},
      {"SRCW", "transpose-srcw"},
      {"DRDW", "transpose-drdw"}};
  for (std::size_t a = 0; a < 3; ++a) {
    const workloads::Workload entry =
        workloads::workload_program(algs[a].second, width);
    const vm::LoweredProgram program =
        vm::lower_program(vm::assemble(entry.text, width));
    const auto& schemes = core::table2_schemes();
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      double read = 0, write = 0, ns = 0;
      bool correct = true;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const auto map =
            core::make_matrix_map(schemes[s], width, program.rows, seed);
        dmm::Dmm machine(dmm::DmmConfig{width, latency}, *map);
        dmm::Trace trace;
        const auto r = workloads::run_program(program, entry.reference,
                                              machine, seed, &trace);
        correct &= r.correct;
        read += telemetry::phase_stats(trace, 0).avg_congestion;
        write += telemetry::phase_stats(trace, 1).avg_congestion;
        ns += gpu::estimate_time_ns(r.stats.total_stages, r.stats.dispatches,
                                    schemes[s], params);
      }
      const auto n = static_cast<double>(seeds);
      if (!correct) std::printf("!! INCORRECT TRANSPOSE DETECTED !!\n");
      table.row()
          .add(algs[a].first)
          .add(core::scheme_name(schemes[s]))
          .add(read / n, 2)
          .add(write / n, 2)
          .add(ns / n, 1)
          .add(paper_ns[a][s], 1)
          .add(ns / n / paper_ns[a][s], 2);
    }
  }
  table.print(std::cout, args.get_table_style());

  std::printf(
      "\nHeadline checks: RAP ~10x faster than RAW on CRSW/SRCW, ~2x faster\n"
      "than RAS, and ~2.5-3x slower than RAW on the (hand-optimized) DRDW.\n"
      "Times for w != 32 reuse the w = 32 calibration and are indicative\n"
      "only.\n");
  return 0;
}
