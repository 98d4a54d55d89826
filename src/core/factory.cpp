#include "core/factory.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace rapsim::core {

namespace {

/// The generators 2-D and 4-D maps seeded with `seed` draw their random
/// words from: the one rule each make_* and redraw_* pair shares.
util::Pcg32 matrix_map_rng(std::uint64_t seed) {
  return util::Pcg32(seed, /*stream=*/0x2d6d6170ull);
}

util::Pcg32 tensor4d_map_rng(std::uint64_t seed) {
  return util::Pcg32(seed, /*stream=*/0x34646d6170ull);
}

}  // namespace

std::unique_ptr<MatrixMap> make_matrix_map(Scheme scheme, std::uint32_t width,
                                           std::uint64_t rows,
                                           std::uint64_t seed) {
  if (scheme != Scheme::kRaw && scheme != Scheme::kRas &&
      scheme != Scheme::kRap && scheme != Scheme::kPad) {
    throw std::invalid_argument("make_matrix_map: scheme is not a 2-D scheme");
  }
  util::Pcg32 rng = matrix_map_rng(seed);
  return std::make_unique<MatrixMap>(scheme, width, rows, rng);
}

void redraw_matrix_map(MatrixMap& map, std::uint64_t seed) {
  util::Pcg32 rng = matrix_map_rng(seed);
  map.redraw(rng);
}

std::unique_ptr<AddressMap> make_tensor4d_map(Scheme scheme,
                                              std::uint32_t width,
                                              std::uint64_t seed) {
  if (std::ranges::find(table4_schemes(), scheme) == table4_schemes().end()) {
    throw std::invalid_argument(
        "make_tensor4d_map: scheme is not a 4-D scheme");
  }
  util::Pcg32 rng = tensor4d_map_rng(seed);
  const std::uint64_t rows = static_cast<std::uint64_t>(width) * width * width;
  return std::make_unique<AddressMap>(scheme, width, rows, rng);
}

void redraw_tensor4d_map(AddressMap& map, std::uint64_t seed) {
  util::Pcg32 rng = tensor4d_map_rng(seed);
  map.redraw(rng);
}

const std::vector<Scheme>& table2_schemes() {
  static const std::vector<Scheme> kSchemes = {Scheme::kRaw, Scheme::kRas,
                                               Scheme::kRap};
  return kSchemes;
}

const std::vector<Scheme>& table4_schemes() {
  static const std::vector<Scheme> kSchemes = {
      Scheme::kRaw,    Scheme::kRas,    Scheme::kRap1P,   Scheme::kRapR1P,
      Scheme::kRap3P,  Scheme::kRapW2P, Scheme::kRap1PW2R};
  return kSchemes;
}

}  // namespace rapsim::core
