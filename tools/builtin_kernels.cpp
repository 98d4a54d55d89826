#include "builtin_kernels.hpp"

#include <sstream>
#include <stdexcept>

#include "hmm/tiled_transpose.hpp"
#include "vm/assembler.hpp"
#include "vm/extract.hpp"
#include "workload_kernels.hpp"
#include "workloads/histogram.hpp"

namespace rapsim::tools {

namespace {

/// Table IV access layouts on a w x w x w x w tensor flattened row-major:
/// addr = i*w^3 + j*w^2 + k*w + l. The warp varies one coordinate (the
/// lane) while the loop variables close over the other three.
analyze::KernelDesc tensor4d_kernel(std::uint32_t width, int axis) {
  const std::int64_t w = width;
  const std::int64_t strides[] = {w * w * w, w * w, w, 1};

  analyze::KernelDesc kernel;
  kernel.name = axis == 3 ? "tensor4d-contiguous"
                          : "tensor4d-stride" + std::to_string(3 - axis);
  kernel.width = width;
  kernel.rows = static_cast<std::uint64_t>(w) * w * w;  // size = w^4

  analyze::AccessSite site;
  site.name = "read A along axis " + std::to_string(axis);
  site.dir = analyze::AccessDir::kLoad;
  site.flat.lane_coeff = strides[axis];
  for (int c = 0; c < 4; ++c) {
    if (c == axis) continue;
    site.flat.coeffs.push_back(strides[c]);
    kernel.vars.push_back({std::string("x") + std::to_string(c), width});
  }
  kernel.sites = {std::move(site)};
  return kernel;
}

}  // namespace

std::vector<analyze::KernelDesc> builtin_kernels(std::uint32_t width) {
  const std::vector<vm::SuiteProgram> programs = workload_programs(width);
  std::vector<analyze::KernelDesc> kernels;
  const auto extract = [&](const std::string& name) {
    for (const vm::SuiteProgram& entry : programs) {
      if (entry.name != name) continue;
      kernels.push_back(
          vm::extract_kernel(vm::assemble(entry.text, width)).kernel);
      kernels.back().name = name;
      return;
    }
    throw std::logic_error("builtin_kernels: no workload program " + name);
  };
  extract("transpose-crsw");
  extract("transpose-srcw");
  extract("transpose-drdw");
  kernels.push_back(hmm::describe_tiled_transpose_shared(
      hmm::TransposeStrategy::kTiled, width));
  kernels.push_back(hmm::describe_tiled_transpose_shared(
      hmm::TransposeStrategy::kTiledDiagonal, width));
  extract("matmul-rowmajorb");
  extract("matmul-transposedb");
  extract("reduction-interleaved");
  extract("reduction-sequential");
  extract("bitonic");
  kernels.push_back(workloads::describe_histogram_kernel(
      workloads::HistogramConfig{width, 2 * width, 32}));
  for (int axis = 0; axis < 4; ++axis) {
    kernels.push_back(tensor4d_kernel(width, axis));
  }
  // The raw-hostile sorting workloads the synthesizer certifies; the
  // suite needs width >= 8 (shearsort's 8-row grid).
  if (width >= 8) {
    extract("vm-mergesort-round");
    extract("vm-shearsort");
  }
  return kernels;
}

analyze::KernelDesc builtin_kernel(const std::string& name,
                                   std::uint32_t width) {
  auto kernels = builtin_kernels(width);
  for (auto& kernel : kernels) {
    if (kernel.name == name) return std::move(kernel);
  }
  std::ostringstream what;
  what << "unknown built-in kernel '" << name << "'; valid names:";
  for (const auto& kernel : kernels) what << " " << kernel.name;
  throw std::invalid_argument(what.str());
}

}  // namespace rapsim::tools
