#include "access/pattern2d.hpp"

#include <stdexcept>

#include "access/adversary.hpp"

namespace rapsim::access {

const char* pattern2d_name(Pattern2d pattern) noexcept {
  switch (pattern) {
    case Pattern2d::kContiguous: return "Contiguous";
    case Pattern2d::kStride: return "Stride";
    case Pattern2d::kDiagonal: return "Diagonal";
    case Pattern2d::kRandom: return "Random";
    case Pattern2d::kMalicious: return "Malicious";
  }
  return "?";
}

std::vector<std::uint64_t> warp_addresses_2d(Pattern2d pattern,
                                             const core::AddressMap& map,
                                             std::uint32_t warp_index,
                                             util::Pcg32& rng) {
  std::vector<std::uint64_t> addrs;
  warp_addresses_2d(pattern, map, warp_index, rng, addrs);
  return addrs;
}

void warp_addresses_2d(Pattern2d pattern, const core::AddressMap& map,
                       std::uint32_t warp_index, util::Pcg32& rng,
                       std::vector<std::uint64_t>& addrs) {
  const std::uint32_t w = map.width();
  if (map.rows() < w) {
    throw std::invalid_argument(
        "warp_addresses_2d: matrix must have at least width rows");
  }
  addrs.clear();
  addrs.reserve(w);
  switch (pattern) {
    case Pattern2d::kContiguous:
      for (std::uint32_t t = 0; t < w; ++t) {
        addrs.push_back(map.index(warp_index % map.rows(), t));
      }
      break;
    case Pattern2d::kStride:
      for (std::uint32_t t = 0; t < w; ++t) {
        addrs.push_back(map.index(t, warp_index % w));
      }
      break;
    case Pattern2d::kDiagonal:
      for (std::uint32_t t = 0; t < w; ++t) {
        addrs.push_back(map.index(t, (t + warp_index) % w));
      }
      break;
    case Pattern2d::kRandom:
      for (std::uint32_t t = 0; t < w; ++t) {
        const std::uint64_t i = rng.bounded(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(map.rows(), 0xffffffffull)));
        const std::uint64_t j = rng.bounded(w);
        addrs.push_back(map.index(i, j));
      }
      break;
    case Pattern2d::kMalicious:
      malicious_addresses_2d(map, rng, addrs);
      break;
  }
}

std::vector<std::uint64_t> strided_flat_addresses(const core::AddressMap& map,
                                                  std::uint64_t stride,
                                                  std::uint64_t base) {
  std::vector<std::uint64_t> addrs;
  addrs.reserve(map.width());
  for (std::uint32_t t = 0; t < map.width(); ++t) {
    addrs.push_back((base + t * stride) % map.size());
  }
  return addrs;
}

const std::vector<Pattern2d>& table2_patterns() {
  static const std::vector<Pattern2d> kPatterns = {
      Pattern2d::kContiguous, Pattern2d::kStride, Pattern2d::kDiagonal,
      Pattern2d::kRandom};
  return kPatterns;
}

}  // namespace rapsim::access
