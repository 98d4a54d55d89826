// Reproduction of Figure 3: the DMM pipeline worked example.
//
// w = 4 banks, latency l = 5. Warp W(0) accesses {7, 5, 15, 0}: addresses
// 7 and 15 collide in bank 3, so the warp occupies two pipeline stages.
// W(1) accesses {10, 11, 12, 9}: conflict-free, one stage. The three
// stages plus the 5-stage pipeline finish at time 3 + 5 - 1 = 7.
//
//   $ fig3_dmm_pipeline [--chrome-trace=PATH]
//
// --chrome-trace writes the dispatch timeline in Trace Event Format;
// open the file in https://ui.perfetto.dev (or chrome://tracing) to see
// the two warp tracks, the three pipeline slots, and completion at t = 7.

#include <cstdio>
#include <fstream>

#include "core/mapping.hpp"
#include "dmm/machine.hpp"
#include "dmm/trace.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv);
  constexpr std::uint32_t kWidth = 4, kLatency = 5;

  const core::AddressMap map(core::Scheme::kRaw, kWidth, 16 / kWidth);
  dmm::Dmm machine(dmm::DmmConfig{kWidth, kLatency}, map);

  dmm::Kernel kernel;
  kernel.num_threads = 8;
  dmm::Row instr(8);
  const std::uint64_t w0[4] = {7, 5, 15, 0};
  const std::uint64_t w1[4] = {10, 11, 12, 9};
  for (std::uint32_t t = 0; t < 4; ++t) {
    instr[t] = dmm::ThreadOp::load(w0[t]);
    instr[4 + t] = dmm::ThreadOp::load(w1[t]);
  }
  kernel.push(std::move(instr));

  dmm::Trace trace;
  const auto stats = machine.run(kernel, &trace);

  std::printf("== Figure 3: DMM pipeline example (w = 4, l = 5) ==\n\n");
  std::printf("W(0) -> {7, 5, 15, 0}   banks {3, 1, 3, 0}: bank 3 conflict\n");
  std::printf("W(1) -> {10, 11, 12, 9} banks {2, 3, 0, 1}: conflict-free\n\n");
  std::printf("%s\n", trace.to_string().c_str());
  std::printf("total pipeline stages: %llu (paper: 3)\n",
              static_cast<unsigned long long>(stats.total_stages));
  std::printf("completion time:       %llu (paper: 3 + 5 - 1 = 7)\n",
              static_cast<unsigned long long>(stats.time));

  if (const auto path = args.get("chrome-trace")) {
    std::ofstream out(*path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path->c_str());
      return 1;
    }
    out << dmm::to_chrome_trace(trace) << '\n';
    std::printf("chrome trace written to %s (open in ui.perfetto.dev)\n",
                path->c_str());
  }

  const bool ok = stats.total_stages == 3 && stats.time == 7;
  std::printf("%s\n", ok ? "reproduces the paper" : "MISMATCH");
  return ok ? 0 : 1;
}
