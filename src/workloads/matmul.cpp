#include "workloads/matmul.hpp"

#include <vector>

#include "core/factory.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"

namespace rapsim::workloads {

const char* matmul_layout_name(MatmulLayout layout) noexcept {
  switch (layout) {
    case MatmulLayout::kRowMajorB: return "row-major B";
    case MatmulLayout::kTransposedB: return "transposed B";
  }
  return "?";
}

dmm::Kernel build_matmul_kernel(MatmulLayout layout,
                                const MatmulArrays& arrays) {
  const std::uint32_t w = arrays.width;
  return vm::lower_program(vm::assemble(vm::matmul_text(layout, w), w))
      .kernel;
}

MatmulReport run_matmul(MatmulLayout layout, core::Scheme scheme,
                        std::uint32_t width, std::uint32_t latency,
                        std::uint64_t seed) {
  const MatmulArrays arrays{width};
  const auto map = core::make_matrix_map(scheme, width, arrays.rows(), seed);
  dmm::Dmm machine(dmm::DmmConfig{width, latency}, *map);

  // Small values so the uint64 accumulation cannot overflow: entries in
  // [0, 256), products < 2^16, sums < 2^16 * w.
  util::Pcg32 rng(seed, /*stream=*/0x6d6dull);
  std::vector<std::uint64_t> a(width * width), b(width * width);
  for (std::uint32_t i = 0; i < width; ++i) {
    for (std::uint32_t j = 0; j < width; ++j) {
      a[i * width + j] = rng.bounded(256);
      b[i * width + j] = rng.bounded(256);
      machine.store(arrays.a(i, j), a[i * width + j]);
      const bool transposed = layout == MatmulLayout::kTransposedB;
      machine.store(transposed ? arrays.b(j, i) : arrays.b(i, j),
                    b[i * width + j]);
    }
  }

  MatmulReport report;
  report.stats = machine.run(build_matmul_kernel(layout, arrays));

  report.correct = true;
  for (std::uint32_t i = 0; i < width && report.correct; ++i) {
    for (std::uint32_t j = 0; j < width; ++j) {
      std::uint64_t expected = 0;
      for (std::uint32_t k = 0; k < width; ++k) {
        expected += a[i * width + k] * b[k * width + j];
      }
      if (machine.load(arrays.c(i, j)) != expected) {
        report.correct = false;
        break;
      }
    }
  }
  return report;
}

}  // namespace rapsim::workloads
