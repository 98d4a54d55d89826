// Reduction clinic: diagnosing and fixing a slow reduction kernel.
//
// A walk-through in the shape of a performance-debugging session: run the
// interleaved-addressing reduction (the one most people write first),
// watch its per-step congestion explode under RAW, then show the three
// fixes — rewrite the algorithm (sequential addressing), pad the array,
// or switch the layout to RAP — and what each costs.
//
//   $ reduction_clinic [--n=1024] [--width=32] [--seed=1]

#include <cstdio>

#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "dmm/trace.hpp"
#include "util/cli.hpp"
#include "vm/assembler.hpp"
#include "vm/suite.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

namespace {

using namespace rapsim;

void show_step_congestion(const char* label,
                          const vm::LoweredProgram& program,
                          const workloads::Reference& reference,
                          core::Scheme scheme, std::uint64_t seed) {
  const std::uint32_t width = program.width;
  const auto map = core::make_matrix_map(scheme, width, program.rows, seed);
  dmm::Dmm machine(dmm::DmmConfig{width, 1}, *map);
  dmm::Trace trace;
  const auto stats =
      workloads::run_program(program, reference, machine, seed, &trace).stats;

  std::printf("%s: total time %llu, per-step worst congestion:", label,
              static_cast<unsigned long long>(stats.time));
  // Three memory instructions per step (load/add/store) + barrier; report
  // the max congestion seen per step.
  std::uint32_t step = 0;
  std::uint32_t step_max = 0;
  std::uint32_t last_instr = 0;
  for (const auto& d : trace.dispatches) {
    if (d.instruction / 4 != last_instr / 4 && d.instruction > last_instr) {
      std::printf(" %u", step_max);
      step_max = 0;
      ++step;
    }
    last_instr = std::max(last_instr, d.instruction);
    step_max = std::max(step_max, d.stages);
  }
  std::printf(" %u\n", step_max);
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::uint64_t n = args.get_uint("n", 1024);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const std::uint64_t seed = args.get_uint("seed", 1);

  std::printf("== reduction clinic: summing %llu values in shared memory "
              "(w = %u) ==\n\n",
              static_cast<unsigned long long>(n), width);

  // Both variants lowered once at n; one reference checks either.
  const auto lowered = [&](vm::ReductionVariant variant) {
    return vm::lower_program(
        vm::assemble(vm::reduction_text(variant, n, width), width));
  };
  const vm::LoweredProgram interleaved =
      lowered(vm::ReductionVariant::kInterleaved);
  const vm::LoweredProgram sequential =
      lowered(vm::ReductionVariant::kSequential);
  const workloads::Reference reference =
      workloads::workload_program("reduction-interleaved", width).reference;

  std::printf("the symptom —\n");
  show_step_congestion("  interleaved + RAW", interleaved, reference,
                       core::Scheme::kRaw, seed);

  std::printf("\nthe three fixes —\n");
  show_step_congestion("  1. rewrite: sequential + RAW", sequential,
                       reference, core::Scheme::kRaw, seed);
  show_step_congestion("  2. pad the array: interleaved + PAD", interleaved,
                       reference, core::Scheme::kPad, seed);
  show_step_congestion("  3. randomize the layout: interleaved + RAP",
                       interleaved, reference, core::Scheme::kRap, seed);

  std::printf(
      "\ncosts: (1) needs the algorithmic insight; (2) is free here but\n"
      "fragile — only fixes strides aligned with the skew, and a real\n"
      "padded layout burns shared memory; (3) costs ~%u random words and a\n"
      "few ALU ops per access, fixes every pattern, and needs no insight\n"
      "at all — the paper's argument, played out on a second workload.\n",
      width);

  // Sanity: all four produce the right sum.
  for (const auto& [program, scheme] :
       {std::pair{&interleaved, core::Scheme::kRaw},
        std::pair{&sequential, core::Scheme::kRaw},
        std::pair{&interleaved, core::Scheme::kPad},
        std::pair{&interleaved, core::Scheme::kRap}}) {
    if (!workloads::run_program(*program, reference, scheme, 1, seed)
             .correct) {
      std::printf("!! WRONG SUM under %s\n", core::scheme_name(scheme));
      return 1;
    }
  }
  std::printf("\nall four variants verified: sum = n(n+1)/2 = %llu\n",
              static_cast<unsigned long long>(n * (n + 1) / 2));
  return 0;
}
