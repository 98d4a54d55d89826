#include "transpose/algorithms.hpp"

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
  dmm::Kernel kernel;
  kernel.num_threads = w * w;

  dmm::Row reads(kernel.num_threads);
  dmm::Row writes(kernel.num_threads);

  for (std::uint32_t i = 0; i < w; ++i) {
    for (std::uint32_t j = 0; j < w; ++j) {
      const std::uint32_t t = i * w + j;
      switch (algorithm) {
        case Algorithm::kCrsw:
          reads[t] = dmm::ThreadOp::load(layout.a_index(i, j));
          writes[t] = dmm::ThreadOp::store(layout.b_index(j, i));
          break;
        case Algorithm::kSrcw:
          reads[t] = dmm::ThreadOp::load(layout.a_index(j, i));
          writes[t] = dmm::ThreadOp::store(layout.b_index(i, j));
          break;
        case Algorithm::kDrdw: {
          const std::uint32_t c = (i + j) % w;
          reads[t] = dmm::ThreadOp::load(layout.a_index(j, c));
          writes[t] = dmm::ThreadOp::store(layout.b_index(c, j));
          break;
        }
      }
    }
  }

  kernel.push(std::move(reads));
  kernel.push(std::move(writes));
  return kernel;
}

analyze::KernelDesc describe_kernel(Algorithm algorithm,
                                    const MatrixPair& layout) {
  using analyze::AccessDir;
  using analyze::AccessSite;
  using analyze::IndexForm;
  const std::int64_t w = layout.width;

  analyze::KernelDesc kernel;
  kernel.name = std::string("transpose-") + algorithm_name(algorithm);
  kernel.width = layout.width;
  kernel.rows = layout.rows();
  kernel.vars = {{"u", layout.width}};  // warp index = thread row i

  AccessSite read;
  read.name = "read A";
  read.dir = AccessDir::kLoad;
  read.warp = "u";
  AccessSite write;
  write.name = "write B";
  write.dir = AccessDir::kStore;
  write.warp = "u";

  switch (algorithm) {
    case Algorithm::kCrsw:
      // A[i][j] = u*w + lane; B[j][i] = (w + lane)*w + u.
      read.flat = {0, 1, {w}};
      write.flat = {w * w, w, {1}};
      break;
    case Algorithm::kSrcw:
      // A[j][i] = lane*w + u; B[i][j] = (w + u)*w + lane.
      read.flat = {0, w, {1}};
      write.flat = {w * w, 1, {w}};
      break;
    case Algorithm::kDrdw:
      // A[j][(i+j)%w]: row = lane, col wraps; B[(i+j)%w][j]: row wraps
      // mod w and lands in the B half (row_base = w).
      read.form = IndexForm::kRowCol;
      read.row = {0, 1, {0}};
      read.col = {0, 1, {1}};
      write.form = IndexForm::kRowCol;
      write.row = {0, 1, {1}};
      write.row_mod = layout.width;
      write.row_base = w;
      write.col = {0, 1, {0}};
      break;
  }
  kernel.sites = {std::move(read), std::move(write)};
  return kernel;
}

}  // namespace rapsim::transpose
