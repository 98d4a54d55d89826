#include "core/mapping.hpp"

namespace rapsim::core {

const char* scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kRaw: return "RAW";
    case Scheme::kRas: return "RAS";
    case Scheme::kRap: return "RAP";
    case Scheme::kRap1P: return "1P";
    case Scheme::kRapR1P: return "R1P";
    case Scheme::kRap3P: return "3P";
    case Scheme::kRapW2P: return "w2P";
    case Scheme::kRap1PW2R: return "1P+w2R";
    case Scheme::kPad: return "PAD";
    case Scheme::kSynth: return "SYNTH";
  }
  return "?";
}

void AddressMap::translate_warp(std::span<const std::uint64_t> logical,
                                std::span<std::uint64_t> physical) const {
  for (std::size_t k = 0; k < logical.size(); ++k) {
    physical[k] = translate(logical[k]);
  }
}

}  // namespace rapsim::core
