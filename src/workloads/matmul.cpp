#include "workloads/matmul.hpp"

#include <vector>

#include "core/factory.hpp"
#include "util/rng.hpp"

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
  dmm::Kernel kernel;
  kernel.num_threads = w * w;

  // r0 = accumulator, r1 = current A element. Zero the accumulator by
  // multiplying into a fresh register file (registers start at 0).
  for (std::uint32_t k = 0; k < w; ++k) {
    dmm::Row load_a(kernel.num_threads), fma_b(kernel.num_threads);
    for (std::uint32_t i = 0; i < w; ++i) {
      for (std::uint32_t j = 0; j < w; ++j) {
        const std::uint32_t t = i * w + j;
        load_a[t] = dmm::ThreadOp::load(arrays.a(i, k), 1);
        const std::uint64_t b_addr = layout == MatmulLayout::kRowMajorB
                                         ? arrays.b(k, j)
                                         : arrays.b(j, k);
        fma_b[t] = dmm::ThreadOp::load_mul_add(b_addr, 0, 1);
      }
    }
    kernel.push(std::move(load_a));
    kernel.push(std::move(fma_b));
  }

  dmm::Row store_c(kernel.num_threads);
  for (std::uint32_t i = 0; i < w; ++i) {
    for (std::uint32_t j = 0; j < w; ++j) {
      store_c[i * w + j] = dmm::ThreadOp::store(arrays.c(i, j), 0);
    }
  }
  kernel.push(std::move(store_c));
  return kernel;
}

analyze::KernelDesc describe_matmul_kernel(MatmulLayout layout,
                                           const MatmulArrays& arrays) {
  using analyze::AccessDir;
  using analyze::AccessSite;
  const std::int64_t w = arrays.width;

  analyze::KernelDesc kernel;
  kernel.name = layout == MatmulLayout::kRowMajorB ? "matmul-rowmajorB"
                                                   : "matmul-transposedB";
  kernel.width = arrays.width;
  kernel.rows = arrays.rows();
  kernel.vars = {{"u", arrays.width}, {"k", arrays.width}};

  // A[i][k] = u*w + k: one address per warp (CRCW-merged broadcast).
  AccessSite load_a;
  load_a.name = "load A[i][k]";
  load_a.dir = AccessDir::kLoad;
  load_a.warp = "u";
  load_a.flat = {0, 0, {w, 1}};

  // Row-major B[k][j] = w^2 + k*w + lane (a row: conflict-free);
  // transposed Bt[j][k] = w^2 + lane*w + k (a column: the stride trap).
  AccessSite load_b;
  load_b.name = layout == MatmulLayout::kRowMajorB ? "load B[k][j]"
                                                   : "load Bt[j][k]";
  load_b.dir = AccessDir::kLoad;
  load_b.warp = "u";
  load_b.flat = layout == MatmulLayout::kRowMajorB
                    ? analyze::AffineExpr{w * w, 1, {0, w}}
                    : analyze::AffineExpr{w * w, w, {0, 1}};

  // C[i][j] = 2w^2 + u*w + lane (a row).
  AccessSite store_c;
  store_c.name = "store C[i][j]";
  store_c.dir = AccessDir::kStore;
  store_c.warp = "u";
  store_c.flat = {2 * w * w, 1, {w, 0}};

  kernel.sites = {std::move(load_a), std::move(load_b), std::move(store_c)};
  return kernel;
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
