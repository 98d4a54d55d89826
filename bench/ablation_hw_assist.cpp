// Ablation: hardware-assisted RAP (Section VI's closing suggestion).
//
// The paper proposes embedding the (j + p_i) mod w address conversion in
// hardware so RAP's per-access overhead vanishes. In the SM timing model
// that is exactly t_addr(RAP) = 0; this bench prints Table III's RAP
// column with the software overhead (packed-register extraction) and with
// the hypothetical hardware support, plus the break-even point: how large
// t_addr could grow before RAP loses its CRSW advantage over RAS and RAW.
//
//   $ ablation_hw_assist [--width=32] [--seeds=300]

#include <cstdio>
#include <iostream>
#include <utility>

#include "core/factory.hpp"
#include "gpu/sm_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const std::uint64_t seeds = args.get_uint("seeds", 300);

  auto software = gpu::SmTimingParams::titan_calibrated();
  auto hardware = software;
  hardware.addr_rap_ns = 0.0;

  std::printf(
      "== Ablation: software vs hardware-assisted RAP address conversion "
      "(w = %u) ==\n\n",
      width);

  util::TextTable table;
  table.row()
      .add("algorithm")
      .add("RAP sw ns")
      .add("RAP hw ns")
      .add("hw saving")
      .add("RAW ns")
      .add("RAS ns");

  // A catalog transpose, lowered once: its run stats under any scheme
  // and seed.
  const auto transpose = [&](const char* name) {
    const workloads::Workload entry = workloads::workload_program(name, width);
    return [reference = entry.reference,
            program = vm::lower_program(vm::assemble(entry.text, width))](
               core::Scheme scheme, std::uint64_t seed) {
      return workloads::run_program(program, reference, scheme, 1, seed).stats;
    };
  };

  const std::pair<const char*, const char*> algorithms[] = {
      {"CRSW", "transpose-crsw"},
      {"SRCW", "transpose-srcw"},
      {"DRDW", "transpose-drdw"}};
  for (const auto& [algorithm, name] : algorithms) {
    const auto run = transpose(name);
    double stages_rap = 0, dispatches_rap = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const auto r = run(core::Scheme::kRap, seed);
      stages_rap += static_cast<double>(r.total_stages);
      dispatches_rap += static_cast<double>(r.dispatches);
    }
    stages_rap /= static_cast<double>(seeds);
    dispatches_rap /= static_cast<double>(seeds);

    const auto raw = run(core::Scheme::kRaw, 1);
    double stages_ras = 0, dispatches_ras = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const auto r = run(core::Scheme::kRas, seed);
      stages_ras += static_cast<double>(r.total_stages);
      dispatches_ras += static_cast<double>(r.dispatches);
    }
    stages_ras /= static_cast<double>(seeds);
    dispatches_ras /= static_cast<double>(seeds);

    const double sw = software.launch_ns + stages_rap * software.stage_ns +
                      dispatches_rap * software.addr_rap_ns;
    const double hw = hardware.launch_ns + stages_rap * hardware.stage_ns;
    const double raw_ns = gpu::estimate_time_ns(
        raw.total_stages, raw.dispatches, core::Scheme::kRaw, software);
    const double ras_ns = software.launch_ns + stages_ras * software.stage_ns +
                          dispatches_ras * software.addr_ras_ns;
    table.row()
        .add(algorithm)
        .add(sw, 1)
        .add(hw, 1)
        .add(sw - hw, 1)
        .add(raw_ns, 1)
        .add(ras_ns, 1);
  }
  table.print(std::cout, args.get_table_style());

  // Break-even: on CRSW, RAP beats RAW while
  // t_addr < (stages_raw - stages_rap) * t_stage / dispatches.
  const auto crsw = transpose("transpose-crsw");
  const auto raw = crsw(core::Scheme::kRaw, 1);
  const auto rap = crsw(core::Scheme::kRap, 1);
  const double headroom =
      static_cast<double>(raw.total_stages - rap.total_stages) *
      software.stage_ns / static_cast<double>(rap.dispatches);
  std::printf(
      "\nRAP's software overhead (%.2f ns/warp-instruction) is tiny against\n"
      "its CRSW headroom (%.1f ns/warp-instruction before RAW wins back):\n"
      "hardware support, as Section VI suggests, is a nicety rather than a\n"
      "necessity at w = %u.\n",
      software.addr_rap_ns, headroom, width);
  return 0;
}
