// Extension experiment: hierarchy-simulator scaling — simulated cycle
// counts as SM count and warp-scheduling policy vary.
//
// Runs the bitonic workload (the catalog's most barrier-heavy kernel,
// so scheduling decisions actually matter) at width 32 under RAP across
// sms x scheduler in {1, 2, 4} x {roundrobin, gto, dwr}. The
// global-memory path runs at the defaults except for a 4-line L1 and 2
// MSHRs per SM: bitonic's working set fits the default 64-line L1 after
// one cold pass, which would let every scheduler converge on the same
// steady state — the cut-down front end keeps misses (and therefore
// dispatch-order-dependent completion times) flowing for the whole run.
//
// The cycle counts are the model's scientific outputs: at >= 2 SMs the
// shared-port contention makes them scheduler-dependent (pinned by
// tests/hier_differential_test.cpp). The report is deterministic and
// pinned by results/ext_hier_scaling.txt; rapbench's hier-hotpath
// workload times the same nine runs (hier.run_ns_per_dispatch).
//
//   $ ext_hier_scaling [--format=ascii|markdown|csv]

#include <cstdint>
#include <iostream>

#include "core/factory.hpp"
#include "hier/hier.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/suite.hpp"

namespace {

using namespace rapsim;

constexpr std::uint32_t kWidth = 32;
const std::uint32_t kSmCounts[] = {1, 2, 4};
const char* const kSchedulers[] = {"roundrobin", "gto", "dwr"};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);

  // The bitonic workload, lowered from its VM program like the catalog
  // does (tools/workload_kernels.cpp); n = 8w keys.
  vm::LoweredProgram lowered = vm::lower_program(
      vm::assemble(vm::suite_program("vm-bitonic", kWidth).text, kWidth));
  const dmm::Kernel& kernel = lowered.kernel;

  const auto map =
      core::make_matrix_map(core::Scheme::kRap, kWidth, lowered.rows, 1);

  util::TextTable table;
  table.row()
      .add("sms")
      .add("scheduler")
      .add("cycles")
      .add("dispatches")
      .add("l2 hits")
      .add("l2 misses");
  for (const std::uint32_t sms : kSmCounts) {
    for (const char* const scheduler : kSchedulers) {
      hier::HierConfig config;
      config.sms = sms;
      config.width = kWidth;
      config.scheduler = scheduler;
      config.path = hier::PathParams::defaults();
      config.path.l1.lines = 4;  // keep the path hot (see header comment)
      config.path.mshrs = 2;
      hier::HierSim sim(config, *map);
      const hier::HierResult result = sim.run(kernel, core::Scheme::kRap);
      table.row()
          .add(std::uint64_t{sms})
          .add(scheduler)
          .add(result.cycles)
          .add(result.dispatches)
          .add(result.l2_hits)
          .add(result.l2_misses);
    }
  }
  table.print(std::cout, args.get_table_style());
  return 0;
}
