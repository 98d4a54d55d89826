// Malicious (adversarial) access generators.
//
// The adversary knows the mapping *scheme* but not the random draw, and
// places one warp's worth of requests to maximize the expected congestion
// (Table I's "Any" row and Table IV's "Malicious" row):
//
//   RAW  2-D — all w cells in one column: deterministically one bank,
//              congestion w.
//   RAS  2-D — one cell per row (cells in the same row can never collide;
//              cross-row banks are iid uniform): balls-in-bins.
//   RAP  2-D — one cell per row, rows distinct mod w: cross-row collision
//              probability rises from 1/w to 1/(w-1) (the paper's Section V
//              remark), the best an oblivious adversary can do.
//
//   RAW  4-D — all cells share the innermost coordinate l: congestion w.
//   1P   4-D — all cells share k and l (shift p[k] is common): congestion w.
//   R1P  4-D — the paper's index-permutation attack: for distinct values
//              {a,b,c}, all 6 cells (i,j,k) in the permutation group of
//              (a,b,c) share f = p[a]+p[b]+p[c], so with a common l each
//              group of 6 lands in ONE bank regardless of the draw; w/6
//              groups give expected congestion 6 * E[max load of w/6 balls
//              in w bins].
//   3P / w2P / 1P+w2R / RAS 4-D — no structured attack beats one cell per
//              (i,j,k) row; banks are (pairwise) near-uniform, so the
//              adversary degenerates to balls-in-bins.
//
// search_adversary() is an independent randomized hill-climber used by the
// ablation bench as a lower-bound probe that the structured attacks above
// are not leaving much on the table.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/mapping.hpp"
#include "util/rng.hpp"

namespace rapsim::access {

/// One warp of adversarial logical addresses against a 2-D mapping scheme.
[[nodiscard]] std::vector<std::uint64_t> malicious_addresses_2d(
    const core::AddressMap& map, util::Pcg32& rng);
/// The same addresses, written over `addrs` (whose capacity is reused).
void malicious_addresses_2d(const core::AddressMap& map, util::Pcg32& rng,
                            std::vector<std::uint64_t>& addrs);

/// One warp of adversarial logical addresses against a 4-D mapping scheme.
/// Throws std::invalid_argument unless map.size() is w^4.
[[nodiscard]] std::vector<std::uint64_t> malicious_addresses_4d(
    const core::AddressMap& map, util::Pcg32& rng);
/// The same addresses, written over `addrs` (whose capacity is reused).
void malicious_addresses_4d(const core::AddressMap& map, util::Pcg32& rng,
                            std::vector<std::uint64_t>& addrs);

/// Randomized hill-climbing adversary: starts from a random placement of
/// `width` distinct cells and greedily mutates single cells, scoring a
/// candidate by its mean congestion over `sample_draws` freshly drawn
/// mappings produced by `make_map`. Returns the best placement found and
/// its score. Deliberately scheme-agnostic — used to sanity-check the
/// structured adversaries.
struct AdversarySearchResult {
  std::vector<std::uint64_t> addresses;
  double mean_congestion = 0.0;
};

[[nodiscard]] AdversarySearchResult search_adversary(
    const std::function<std::unique_ptr<core::AddressMap>(std::uint64_t seed)>&
        make_map,
    std::uint32_t width, std::uint64_t domain_size, std::uint32_t iterations,
    std::uint32_t sample_draws, std::uint64_t seed);

}  // namespace rapsim::access
