// Reproduction of Figure 6: the random address permute-shift example for
// w = 4 with permutation p = (2, 0, 3, 1). Prints the logical matrix, the
// physical (rotated) layout, and the resulting bank of each element, then
// verifies the two properties the figure illustrates: every row AND every
// column touches all four banks.

#include <cstdio>
#include <set>

#include "core/mapping.hpp"
#include "core/permutation.hpp"

int main() {
  using namespace rapsim;
  constexpr std::uint32_t kWidth = 4;
  const core::Permutation p({2, 0, 3, 1});
  const core::AddressMap map(core::Scheme::kRap, kWidth, kWidth, p.image());

  std::printf("== Figure 6: RAP example, w = 4, p = %s ==\n\n",
              p.to_string().c_str());

  std::printf("physical layout (value stored at each bank column):\n");
  std::printf("        B[0] B[1] B[2] B[3]\n");
  // Invert: for each physical slot, find the logical value stored there.
  for (std::uint32_t i = 0; i < kWidth; ++i) {
    std::printf("row %u:", i);
    std::uint64_t row_vals[kWidth];
    for (std::uint32_t j = 0; j < kWidth; ++j) {
      const std::uint64_t phys = map.translate(map.index(i, j));
      row_vals[phys % kWidth] = map.index(i, j);
    }
    for (std::uint32_t b = 0; b < kWidth; ++b) {
      std::printf("  %3llu", static_cast<unsigned long long>(row_vals[b]));
    }
    std::printf("   (rotated by p_%u = %u)\n", i, p[i]);
  }

  bool ok = true;
  for (std::uint32_t i = 0; i < kWidth; ++i) {
    std::set<std::uint32_t> row_banks;
    for (std::uint32_t j = 0; j < kWidth; ++j) {
      row_banks.insert(map.bank_of(map.index(i, j)));
    }
    ok &= row_banks.size() == kWidth;
  }
  std::printf("\nevery row touches all banks (contiguous congestion 1): %s\n",
              ok ? "yes" : "NO");

  bool cols_ok = true;
  for (std::uint32_t j = 0; j < kWidth; ++j) {
    std::set<std::uint32_t> col_banks;
    for (std::uint32_t i = 0; i < kWidth; ++i) {
      col_banks.insert(map.bank_of(map.index(i, j)));
    }
    cols_ok &= col_banks.size() == kWidth;
  }
  std::printf("every column touches all banks (stride congestion 1): %s\n",
              cols_ok ? "yes" : "NO");

  return (ok && cols_ok) ? 0 : 1;
}
