#include "core/mapping2d.hpp"

#include <stdexcept>

namespace rapsim::core {

RasMap::RasMap(std::uint32_t width, std::uint64_t rows, util::Pcg32& rng)
    : MatrixMap(width, rows), offsets_(rows) {
  redraw(rng);
}

void RasMap::redraw(util::Pcg32& rng) {
  for (auto& offset : offsets_) offset = rng.bounded(width());
}

RasMap::RasMap(std::uint32_t width, std::vector<std::uint32_t> offsets)
    : MatrixMap(width, offsets.size()), offsets_(std::move(offsets)) {
  for (const auto off : offsets_) {
    if (off >= width) {
      throw std::invalid_argument("RasMap: offset out of range [0, width)");
    }
  }
}

RapMap::RapMap(std::uint32_t width, std::uint64_t rows, Permutation perm)
    : MatrixMap(width, rows), perm_(std::move(perm)) {
  if (perm_.size() != width) {
    throw std::invalid_argument("RapMap: permutation size must equal width");
  }
}

}  // namespace rapsim::core
