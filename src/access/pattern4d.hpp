// Memory-access operations on a 4-D array of size w^4 (Section VII).
//
// One warp of w threads accesses:
//
//   contiguous — A[i][j][k][0..w-1]   (vary l)
//   stride1    — A[i][j][0..w-1][l]   (vary k)
//   stride2    — A[i][0..w-1][k][l]   (vary j)
//   stride3    — A[0..w-1][j][k][l]   (vary i)
//   random     — w uniformly random cells
//   malicious  — scheme-aware adversary (adversary.hpp)
//
// The fixed coordinates are drawn from `rng` so Monte-Carlo averaging
// covers the whole array, matching Table IV's setup.

#pragma once

#include <cstdint>
#include <vector>

#include "core/mapping.hpp"
#include "util/rng.hpp"

namespace rapsim::access {

enum class Pattern4d {
  kContiguous,
  kStride1,
  kStride2,
  kStride3,
  kRandom,
  kMalicious
};

[[nodiscard]] const char* pattern4d_name(Pattern4d pattern) noexcept;

/// Logical addresses accessed by one warp of map.width() threads. Throws
/// std::invalid_argument unless map.size() is w^4.
[[nodiscard]] std::vector<std::uint64_t> warp_addresses_4d(
    Pattern4d pattern, const core::AddressMap& map, util::Pcg32& rng);

/// The same addresses, written over `addrs` (whose capacity is reused).
void warp_addresses_4d(Pattern4d pattern, const core::AddressMap& map,
                       util::Pcg32& rng, std::vector<std::uint64_t>& addrs);

/// Throws std::invalid_argument, naming `caller`, unless `map` is a 4-D
/// map (size w^4).
void require_tensor4d(const core::AddressMap& map, const char* caller);

/// All Pattern4d values in the order of the paper's Table IV rows.
[[nodiscard]] const std::vector<Pattern4d>& table4_patterns();

}  // namespace rapsim::access
