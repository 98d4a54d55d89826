#include "workloads/run.hpp"

#include <stdexcept>
#include <vector>

#include "core/factory.hpp"

namespace rapsim::workloads {

RunReport run_program(const vm::LoweredProgram& program,
                      const Reference& reference, core::Scheme scheme,
                      std::uint32_t latency, std::uint64_t seed) {
  const auto map =
      core::make_matrix_map(scheme, program.width, program.rows, seed);
  dmm::Dmm machine(dmm::DmmConfig{program.width, latency}, *map);
  return run_program(program, reference, machine, seed);
}

RunReport run_program(const vm::LoweredProgram& program,
                      const Reference& reference, dmm::Dmm& machine,
                      std::uint64_t seed, dmm::Trace* trace) {
  if (machine.config().width != program.width) {
    throw std::invalid_argument(
        "run_program: machine width differs from the program's");
  }
  const std::uint64_t words = program.rows * program.width;
  std::vector<std::uint64_t> image = reference.fill(program.width, words, seed);
  for (std::uint64_t i = 0; i < words; ++i) machine.store(i, image[i]);

  RunReport report;
  report.stats = machine.run(program.kernel, trace);
  for (std::uint64_t i = 0; i < words; ++i) image[i] = machine.load(i);
  report.correct = reference.check(program.width, seed, image);
  return report;
}

}  // namespace rapsim::workloads
