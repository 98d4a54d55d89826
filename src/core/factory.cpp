#include "core/factory.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace rapsim::core {

namespace {

/// The generator a 2-D map seeded with `seed` draws its random words
/// from: the one rule make_matrix_map and redraw_matrix_map share.
util::Pcg32 matrix_map_rng(std::uint64_t seed) {
  return util::Pcg32(seed, /*stream=*/0x2d6d6170ull);
}

}  // namespace

void redraw_matrix_map(MatrixMap& map, std::uint64_t seed) {
  util::Pcg32 rng = matrix_map_rng(seed);
  map.redraw(rng);
}

std::unique_ptr<MatrixMap> make_matrix_map(Scheme scheme, std::uint32_t width,
                                           std::uint64_t rows,
                                           std::uint64_t seed) {
  util::Pcg32 rng = matrix_map_rng(seed);
  switch (scheme) {
    case Scheme::kRaw:
      return std::make_unique<RawMap>(width, rows);
    case Scheme::kRas:
      return std::make_unique<RasMap>(width, rows, rng);
    case Scheme::kRap:
      return std::make_unique<RapMap>(width, rows, rng);
    case Scheme::kPad:
      return std::make_unique<PadMap>(width, rows);
    default:
      throw std::invalid_argument(
          "make_matrix_map: scheme is not a 2-D scheme");
  }
}

std::unique_ptr<Tensor4dMap> make_tensor4d_map(Scheme scheme,
                                               std::uint32_t width,
                                               std::uint64_t seed) {
  util::Pcg32 rng(seed, /*stream=*/0x34646d6170ull);
  switch (scheme) {
    case Scheme::kRaw:
      return std::make_unique<Raw4dMap>(width);
    case Scheme::kRas:
      return std::make_unique<Ras4dMap>(width, rng);
    case Scheme::kRap1P:
      return std::make_unique<OnePermMap>(width, rng);
    case Scheme::kRapR1P:
      return std::make_unique<RepeatedOnePermMap>(width, rng);
    case Scheme::kRap3P:
      return std::make_unique<ThreePermMap>(width, rng);
    case Scheme::kRapW2P:
      return std::make_unique<WSquaredPermMap>(width, rng);
    case Scheme::kRap1PW2R:
      return std::make_unique<OnePermW2RandMap>(width, rng);
    case Scheme::kRap:
    case Scheme::kPad:
    case Scheme::kSynth:
      break;
  }
  throw std::invalid_argument(
      "make_tensor4d_map: scheme is not a 4-D scheme");
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
