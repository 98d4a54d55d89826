#include "access/pattern4d.hpp"

#include <stdexcept>
#include <string>

#include "access/adversary.hpp"

namespace rapsim::access {

const char* pattern4d_name(Pattern4d pattern) noexcept {
  switch (pattern) {
    case Pattern4d::kContiguous: return "Contiguous";
    case Pattern4d::kStride1: return "Stride1";
    case Pattern4d::kStride2: return "Stride2";
    case Pattern4d::kStride3: return "Stride3";
    case Pattern4d::kRandom: return "Random";
    case Pattern4d::kMalicious: return "Malicious";
  }
  return "?";
}

std::vector<std::uint64_t> warp_addresses_4d(Pattern4d pattern,
                                             const core::AddressMap& map,
                                             util::Pcg32& rng) {
  std::vector<std::uint64_t> addrs;
  warp_addresses_4d(pattern, map, rng, addrs);
  return addrs;
}

void require_tensor4d(const core::AddressMap& map, const char* caller) {
  const std::uint64_t w = map.width();
  if (map.size() != w * w * w * w) {
    throw std::invalid_argument(std::string(caller) +
                                ": map size is not width^4");
  }
}

void warp_addresses_4d(Pattern4d pattern, const core::AddressMap& map,
                       util::Pcg32& rng, std::vector<std::uint64_t>& addrs) {
  require_tensor4d(map, "warp_addresses_4d");
  const std::uint32_t w = map.width();
  addrs.clear();
  addrs.reserve(w);

  core::Index4d cell{rng.bounded(w), rng.bounded(w), rng.bounded(w),
                     rng.bounded(w)};
  switch (pattern) {
    case Pattern4d::kContiguous:
      for (std::uint32_t t = 0; t < w; ++t) {
        cell.l = t;
        addrs.push_back(core::index(w, cell));
      }
      break;
    case Pattern4d::kStride1:
      for (std::uint32_t t = 0; t < w; ++t) {
        cell.k = t;
        addrs.push_back(core::index(w, cell));
      }
      break;
    case Pattern4d::kStride2:
      for (std::uint32_t t = 0; t < w; ++t) {
        cell.j = t;
        addrs.push_back(core::index(w, cell));
      }
      break;
    case Pattern4d::kStride3:
      for (std::uint32_t t = 0; t < w; ++t) {
        cell.i = t;
        addrs.push_back(core::index(w, cell));
      }
      break;
    case Pattern4d::kRandom:
      for (std::uint32_t t = 0; t < w; ++t) {
        addrs.push_back(core::index(w, {rng.bounded(w), rng.bounded(w),
                                        rng.bounded(w), rng.bounded(w)}));
      }
      break;
    case Pattern4d::kMalicious:
      malicious_addresses_4d(map, rng, addrs);
      break;
  }
}

const std::vector<Pattern4d>& table4_patterns() {
  static const std::vector<Pattern4d> kPatterns = {
      Pattern4d::kContiguous, Pattern4d::kStride1, Pattern4d::kStride2,
      Pattern4d::kStride3,    Pattern4d::kRandom,  Pattern4d::kMalicious};
  return kPatterns;
}

}  // namespace rapsim::access
