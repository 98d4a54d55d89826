#include "transpose/algorithms.hpp"

#include "vm/assembler.hpp"
#include "vm/exec.hpp"

namespace rapsim::transpose {

const char* algorithm_name(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kCrsw: return "CRSW";
    case Algorithm::kSrcw: return "SRCW";
    case Algorithm::kDrdw: return "DRDW";
  }
  return "?";
}

dmm::Kernel build_kernel(Algorithm algorithm, const MatrixPair& layout) {
  const std::uint32_t w = layout.width;
  return vm::lower_program(vm::assemble(vm::transpose_text(algorithm, w), w))
      .kernel;
}

}  // namespace rapsim::transpose
