#include "workloads/bitonic.hpp"

#include <algorithm>

#include "core/factory.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/suite.hpp"

namespace rapsim::workloads {

dmm::Kernel build_bitonic_kernel(std::uint64_t n, std::uint32_t width) {
  return vm::lower_program(vm::assemble(vm::bitonic_text(n, width), width))
      .kernel;
}

BitonicReport run_bitonic_sort(core::Scheme scheme, std::uint64_t n,
                               std::uint32_t width, std::uint32_t latency,
                               std::uint64_t seed) {
  const std::uint64_t rows = n / width;
  const auto map = core::make_matrix_map(scheme, width, rows, seed);
  dmm::Dmm machine(dmm::DmmConfig{width, latency}, *map);

  util::Pcg32 rng(seed, /*stream=*/0x62746eull);
  std::vector<std::uint64_t> input(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    input[i] = rng();
    machine.store(i, input[i]);
  }

  BitonicReport report;
  report.stats = machine.run(build_bitonic_kernel(n, width));

  std::vector<std::uint64_t> output(n);
  for (std::uint64_t i = 0; i < n; ++i) output[i] = machine.load(i);
  report.sorted = std::is_sorted(output.begin(), output.end());
  std::sort(input.begin(), input.end());
  std::vector<std::uint64_t> sorted_output = output;
  std::sort(sorted_output.begin(), sorted_output.end());
  report.is_permutation = sorted_output == input;
  return report;
}

}  // namespace rapsim::workloads
