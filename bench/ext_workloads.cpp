// Extension experiment: beyond transpose — reduction, bitonic sort and
// w x w matmul on the DMM under every 2-D scheme (plus the PAD baseline).
//
// Prints per-workload DMM time and worst warp congestion. The shape to
// look for:
//   * interleaved reduction and transposed-B matmul are stride-broken
//     under RAW and rescued by RAP;
//   * sequential reduction, row-major matmul and bitonic sort are already
//     well-behaved and RAP does not break them;
//   * PAD fixes the aligned strides for free but is fragile (see
//     ablation_padding_vs_rap for its adversarial collapse).
//
//   $ ext_workloads [--width=32] [--n=2048] [--seeds=10]

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <utility>

#include "core/factory.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "vm/assembler.hpp"
#include "vm/suite.hpp"
#include "workloads/catalog.hpp"
#include "workloads/histogram.hpp"
#include "workloads/run.hpp"

namespace {

using namespace rapsim;

struct Cell {
  double time = 0;
  double max_congestion = 0;
  bool correct = true;
};

template <typename RunFn>
Cell average(core::Scheme scheme, std::uint64_t seeds, RunFn run) {
  const std::uint64_t n =
      (scheme == core::Scheme::kRaw || scheme == core::Scheme::kPad) ? 1
                                                                     : seeds;
  Cell cell;
  for (std::uint64_t seed = 1; seed <= n; ++seed) {
    const auto [stats, ok] = run(scheme, seed);
    cell.time += static_cast<double>(stats.time);
    cell.max_congestion += stats.max_congestion;
    cell.correct &= ok;
  }
  cell.time /= static_cast<double>(n);
  cell.max_congestion /= static_cast<double>(n);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const std::uint64_t n = args.get_uint("n", 2048);
  const std::uint64_t seeds = args.get_uint("seeds", 10);

  std::printf(
      "== Extension: reduction / bitonic / matmul under each scheme "
      "(w = %u, n = %llu) ==\n\n",
      width, static_cast<unsigned long long>(n));

  const core::Scheme schemes[] = {core::Scheme::kRaw, core::Scheme::kPad,
                                  core::Scheme::kRas, core::Scheme::kRap};

  using RunFn = std::function<std::pair<dmm::RunStats, bool>(
      core::Scheme, std::uint64_t)>;
  // A program row is lowered once (reduction and bitonic at --n) and
  // checked against its catalog entry's reference.
  const auto program_row = [&](const char* catalog_name,
                               const std::string& text) -> RunFn {
    return [program = vm::lower_program(vm::assemble(text, width)),
            reference =
                workloads::workload_program(catalog_name, width).reference](
               core::Scheme s, std::uint64_t seed) {
      const auto r = workloads::run_program(program, reference, s, 1, seed);
      return std::make_pair(r.stats, r.correct);
    };
  };
  using vm::MatmulLayout;
  using vm::ReductionVariant;

  const struct {
    const char* label;
    RunFn run;
  } rows[] = {
      {"reduce interleaved",
       program_row("reduction-interleaved",
                   vm::reduction_text(ReductionVariant::kInterleaved, n,
                                      width))},
      {"reduce sequential",
       program_row("reduction-sequential",
                   vm::reduction_text(ReductionVariant::kSequential, n,
                                      width))},
      {"bitonic sort", program_row("bitonic", vm::bitonic_text(n, width))},
      {"matmul row-major B",
       program_row("matmul-rowmajorb",
                   vm::matmul_text(MatmulLayout::kRowMajorB, width))},
      {"matmul transposed B",
       program_row("matmul-transposedb",
                   vm::matmul_text(MatmulLayout::kTransposedB, width))},
      {"histogram uniform",
       [&](core::Scheme s, std::uint64_t seed) {
         const workloads::HistogramConfig config{width, 2 * width, 32};
         const auto input = workloads::make_input(config, 0.0, 42);
         const auto r = workloads::run_histogram(config, s, input, seed);
         return std::make_pair(r.stats, r.correct);
       }},
      {"histogram skewed",
       [&](core::Scheme s, std::uint64_t seed) {
         const workloads::HistogramConfig config{width, 2 * width, 32};
         const auto input = workloads::make_input(config, 0.95, 42);
         const auto r = workloads::run_histogram(config, s, input, seed);
         return std::make_pair(r.stats, r.correct);
       }},
  };

  util::TextTable table;
  table.row().add("workload");
  for (const auto s : schemes) {
    table.add(std::string(core::scheme_name(s)) + " time");
    table.add(std::string(core::scheme_name(s)) + " maxC");
  }
  table.add("all correct");

  for (const auto& row : rows) {
    table.row().add(row.label);
    bool all_correct = true;
    for (const auto s : schemes) {
      const Cell cell = average(s, seeds, row.run);
      all_correct &= cell.correct;
      table.add(cell.time, 0).add(cell.max_congestion, 1);
    }
    table.add(all_correct ? "yes" : "NO");
  }
  table.print(std::cout, args.get_table_style());

  std::printf(
      "\nInterleaved reduction, transposed-B matmul and the skewed\n"
      "privatized histogram are the layout-broken kernels: RAW pays up to\n"
      "w-way conflicts (for the histogram through non-mergeable atomics),\n"
      "RAP collapses them with no code change. The well-behaved rows show\n"
      "RAP's overhead side: never worse than a small constant.\n");
  return 0;
}
