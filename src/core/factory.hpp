// Seeded factories for address mappings.
//
// Monte-Carlo experiments draw thousands of fresh mappings; these helpers
// centralize "scheme + width + seed -> mapping" so every bench and test
// constructs them identically (and reproducibly).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mapping.hpp"

namespace rapsim::core {

/// 2-D matrix mapping of `rows` x width for scheme kRaw / kRas / kRap /
/// kPad.
[[nodiscard]] std::unique_ptr<MatrixMap> make_matrix_map(Scheme scheme,
                                                         std::uint32_t width,
                                                         std::uint64_t rows,
                                                         std::uint64_t seed);

/// Redraw `map` in place into exactly the map
/// make_matrix_map(map.scheme(), map.width(), map.rows(), seed) returns,
/// without allocating (Monte-Carlo trials reuse one map per worker).
void redraw_matrix_map(MatrixMap& map, std::uint64_t seed);

/// 4-D w^4 tensor mapping (the matrix of w^3 rows) for the Table IV
/// schemes: kRaw, kRas and the five RAP extensions.
[[nodiscard]] std::unique_ptr<AddressMap> make_tensor4d_map(
    Scheme scheme, std::uint32_t width, std::uint64_t seed);

/// Redraw `map` in place into exactly the map
/// make_tensor4d_map(map.scheme(), map.width(), seed) returns, without
/// allocating.
void redraw_tensor4d_map(AddressMap& map, std::uint64_t seed);

/// The 2-D schemes in the order of the paper's Tables I-III.
[[nodiscard]] const std::vector<Scheme>& table2_schemes();

/// The 4-D schemes in the order of the paper's Table IV columns.
[[nodiscard]] const std::vector<Scheme>& table4_schemes();

}  // namespace rapsim::core
