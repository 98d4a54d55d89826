// Fundamental memory-access operations on a w x w matrix (Section III).
//
// Each operation assigns one matrix element to each of the w threads of a
// warp; the paper's full operations use w warps (p = w^2 threads) but all
// congestion statistics are per-warp, so the generators here produce the
// logical addresses touched by one warp:
//
//   contiguous  — warp `i` reads row i:          thread t -> (i, t)
//   stride      — warp `j` reads column j:       thread t -> (t, j)
//   diagonal    — warp `d` reads a diagonal:     thread t -> (t, (t+d) mod w)
//   random      — every thread picks a uniformly random cell
//   malicious   — scheme-aware adversarial placement (adversary.hpp)
//
// `warp_index` selects the row / column / diagonal; for square matrices it
// ranges over [0, w).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "util/rng.hpp"

namespace rapsim::access {

enum class Pattern2d { kContiguous, kStride, kDiagonal, kRandom, kMalicious };

[[nodiscard]] const char* pattern2d_name(Pattern2d pattern) noexcept;

/// Logical addresses accessed by one warp of map.width() threads under
/// `pattern`. `rng` is consumed only by kRandom (and by the randomized
/// part of kMalicious); deterministic patterns ignore it.
[[nodiscard]] std::vector<std::uint64_t> warp_addresses_2d(
    Pattern2d pattern, const core::AddressMap& map, std::uint32_t warp_index,
    util::Pcg32& rng);

/// The same addresses, written over `addrs` (whose capacity is reused).
void warp_addresses_2d(Pattern2d pattern, const core::AddressMap& map,
                       std::uint32_t warp_index, util::Pcg32& rng,
                       std::vector<std::uint64_t>& addrs);

/// All Pattern2d values in the order of the paper's Table II rows
/// (contiguous, stride, diagonal, random).
[[nodiscard]] const std::vector<Pattern2d>& table2_patterns();

/// Flat power-of-stride access: thread t touches logical address
/// (base + t * stride) mod map.size() — the FFT-butterfly / multi-word
/// struct pattern that causes 2^s-way bank conflicts under RAW when
/// stride is a multiple of 2^s. Used by the power-stride ablation bench.
[[nodiscard]] std::vector<std::uint64_t> strided_flat_addresses(
    const core::AddressMap& map, std::uint64_t stride, std::uint64_t base);

}  // namespace rapsim::access
