#include "workloads/catalog.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"
#include "vm/suite.hpp"

namespace rapsim::workloads {

namespace {

using Image = std::vector<std::uint64_t>;
using View = std::span<const std::uint64_t>;

Image sorted(View values) {
  Image copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return copy;
}

// ---- transpose-*: A = 0..w^2-1 row-major, B = w^2; B must end as A^T.

Image transpose_fill(std::uint32_t width, std::uint64_t words,
                     std::uint64_t /*seed*/) {
  const std::uint64_t cells = std::uint64_t{width} * width;
  Image image(words, cells);
  for (std::uint64_t k = 0; k < cells && k < words; ++k) image[k] = k;
  return image;
}

bool transpose_check(std::uint32_t width, std::uint64_t /*seed*/,
                     View image) {
  const std::uint64_t w = width;
  if (image.size() < 2 * w * w) return false;
  for (std::uint64_t i = 0; i < w; ++i) {
    for (std::uint64_t j = 0; j < w; ++j) {
      if (image[w * w + i * w + j] != j * w + i) return false;
    }
  }
  return true;
}

// ---- reduction-*: x[i] = i + 1, so the sum n(n+1)/2 detects any dropped
// ---- or double-counted element.

Image reduction_fill(std::uint32_t /*width*/, std::uint64_t words,
                     std::uint64_t /*seed*/) {
  Image image(words);
  for (std::uint64_t i = 0; i < words; ++i) image[i] = i + 1;
  return image;
}

bool reduction_check(std::uint32_t /*width*/, std::uint64_t /*seed*/,
                     View image) {
  const std::uint64_t n = image.size();
  return n > 0 && image[0] == n * (n + 1) / 2;
}

// ---- matmul-*: A at [0, w^2), B (or B^T) at [w^2, 2w^2), C at
// ---- [2w^2, 3w^2). Entries below 256 keep every sum far from overflow.

template <bool kTransposedB>
std::uint64_t b_index(std::uint64_t w, std::uint64_t k, std::uint64_t j) {
  return w * w + (kTransposedB ? j * w + k : k * w + j);
}

template <bool kTransposedB>
Image matmul_fill(std::uint32_t width, std::uint64_t words,
                  std::uint64_t seed) {
  const std::uint64_t w = width;
  Image image(std::max(words, 3 * w * w));
  util::Pcg32 rng(seed, /*stream=*/0x6d6dull);
  for (std::uint64_t i = 0; i < w; ++i) {
    for (std::uint64_t j = 0; j < w; ++j) {
      image[i * w + j] = rng.bounded(256);
      image[b_index<kTransposedB>(w, i, j)] = rng.bounded(256);
    }
  }
  image.resize(words);
  return image;
}

template <bool kTransposedB>
bool matmul_check(std::uint32_t width, std::uint64_t seed, View image) {
  const std::uint64_t w = width;
  if (image.size() < 3 * w * w) return false;
  const Image input = matmul_fill<kTransposedB>(width, image.size(), seed);
  for (std::uint64_t i = 0; i < w; ++i) {
    for (std::uint64_t j = 0; j < w; ++j) {
      std::uint64_t expected = 0;
      for (std::uint64_t k = 0; k < w; ++k) {
        expected += input[i * w + k] * input[b_index<kTransposedB>(w, k, j)];
      }
      if (image[2 * w * w + i * w + j] != expected) return false;
    }
  }
  return true;
}

// ---- bitonic: seeded keys; the output must be sorted and a permutation
// ---- of the input.

Image bitonic_fill(std::uint32_t /*width*/, std::uint64_t words,
                   std::uint64_t seed) {
  Image image(words);
  util::Pcg32 rng(seed, /*stream=*/0x62746eull);
  for (std::uint64_t& value : image) value = rng();
  return image;
}

bool bitonic_check(std::uint32_t width, std::uint64_t seed, View image) {
  return std::is_sorted(image.begin(), image.end()) &&
         sorted(bitonic_fill(width, image.size(), seed)) ==
             Image(image.begin(), image.end());
}

// ---- The VM suite: every word seeded below 10^6.

Image suite_fill(std::uint32_t /*width*/, std::uint64_t words,
                 std::uint64_t seed) {
  Image image(words);
  util::Pcg32 rng(seed, /*stream=*/7);
  for (std::uint64_t& value : image) value = rng() % 1000000;
  return image;
}

/// Shearsort's 8 x w grid stores element x of grid row i at x*w + i;
/// reading i-outer / x-inner walks the snake.
Image shearsort_snake(std::uint64_t w, View image) {
  Image snake;
  for (std::uint64_t i = 0; i < 8; ++i) {
    for (std::uint64_t x = 0; x < w; ++x) snake.push_back(image[x * w + i]);
  }
  return snake;
}

bool shearsort_check(std::uint32_t width, std::uint64_t seed, View image) {
  const std::uint64_t w = width;
  if (w < 8 || image.size() < w * w) return false;
  const Image snake = shearsort_snake(w, image);
  return std::is_sorted(snake.begin(), snake.end()) &&
         sorted(shearsort_snake(w, suite_fill(width, image.size(), seed))) ==
             snake;
}

/// Each w x w tile u of [0, n) must land transposed in [n, 2n).
bool mergesort_round_check(std::uint32_t width, std::uint64_t seed,
                           View image) {
  const std::uint64_t w = width;
  const std::uint64_t n = image.size() / 2;
  if (n == 0 || n % (w * w) != 0) return false;
  const Image input = suite_fill(width, image.size(), seed);
  for (std::uint64_t u = 0; u < n / (w * w); ++u) {
    for (std::uint64_t d = 0; d < w; ++d) {
      for (std::uint64_t l = 0; l < w; ++l) {
        if (image[n + u * w * w + d * w + l] != input[u * w * w + l * w + d]) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Whether [n, 2n) holds input[i] at n + pi(i) for every i < n.
template <typename Pi>
bool routed(std::uint32_t width, std::uint64_t seed, View image, Pi pi) {
  const std::uint64_t n = image.size() / 2;
  if (n == 0) return false;
  const Image input = suite_fill(width, image.size(), seed);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (image[n + pi(i, n)] != input[i]) return false;
  }
  return true;
}

bool permute_identity_check(std::uint32_t width, std::uint64_t seed,
                            View image) {
  return routed(width, seed, image,
                [](std::uint64_t i, std::uint64_t) { return i; });
}

bool permute_bitrev_check(std::uint32_t width, std::uint64_t seed,
                          View image) {
  return routed(width, seed, image, [](std::uint64_t i, std::uint64_t n) {
    std::uint64_t reversed = 0;
    for (std::uint64_t bit = 1; bit < n; bit <<= 1) {
      reversed = (reversed << 1) | (i & 1);
      i >>= 1;
    }
    return reversed;
  });
}

/// The derangement's multiplier and offset are folded into the program
/// text, so the check holds it to the weaker bijection property: [n, 2n)
/// is a permutation of the input [0, n).
bool permute_derange_check(std::uint32_t width, std::uint64_t seed,
                           View image) {
  const std::uint64_t n = image.size() / 2;
  if (n == 0) return false;
  const Image input = suite_fill(width, image.size(), seed);
  return sorted(View(input).first(n)) == sorted(image.subspan(n, n));
}

}  // namespace

std::vector<Workload> workload_programs(std::uint32_t width) {
  using vm::MatmulLayout;
  using vm::PermuteKind;
  using vm::ReductionVariant;
  using vm::TransposeAlgorithm;
  const Reference transpose{transpose_fill, transpose_check};
  const Reference reduction{reduction_fill, reduction_check};
  const std::uint64_t n = 8ull * width;  // reduction / bitonic problem size
  std::vector<Workload> programs = {
      {"transpose-crsw", vm::transpose_text(TransposeAlgorithm::kCrsw, width),
       transpose},
      {"transpose-srcw", vm::transpose_text(TransposeAlgorithm::kSrcw, width),
       transpose},
      {"transpose-drdw", vm::transpose_text(TransposeAlgorithm::kDrdw, width),
       transpose},
      {"reduction-interleaved",
       vm::reduction_text(ReductionVariant::kInterleaved, n, width),
       reduction},
      {"reduction-sequential",
       vm::reduction_text(ReductionVariant::kSequential, n, width), reduction},
      {"matmul-rowmajorb", vm::matmul_text(MatmulLayout::kRowMajorB, width),
       {matmul_fill<false>, matmul_check<false>}},
      {"matmul-transposedb",
       vm::matmul_text(MatmulLayout::kTransposedB, width),
       {matmul_fill<true>, matmul_check<true>}},
      // The same text as the suite's vm-bitonic.
      {"bitonic", vm::bitonic_text(n, width), {bitonic_fill, bitonic_check}},
  };
  if (width < 8) return programs;  // the suite needs shearsort's 8-row grid
  const auto suite = [&](std::string name, std::string text,
                         bool (*check)(std::uint32_t, std::uint64_t, View)) {
    programs.push_back({std::move(name), std::move(text), {suite_fill, check}});
  };
  suite("vm-shearsort", vm::shearsort_text(width), shearsort_check);
  suite("vm-mergesort-round", vm::mergesort_round_text(width),
        mergesort_round_check);
  suite("vm-permute-identity", vm::permute_text(PermuteKind::kIdentity, width),
        permute_identity_check);
  suite("vm-permute-bitrev",
        vm::permute_text(PermuteKind::kBitReversal, width),
        permute_bitrev_check);
  suite("vm-permute-derange",
        vm::permute_text(PermuteKind::kDerangement, width),
        permute_derange_check);
  return programs;
}

Workload workload_program(const std::string& name, std::uint32_t width) {
  // The suite (w >= 8) calls bitonic vm-bitonic; both names resolve.
  const bool suite = width >= 8;
  const std::string wanted = suite && name == "vm-bitonic" ? "bitonic" : name;
  std::string known;
  for (Workload& entry : workload_programs(width)) {
    if (entry.name == wanted) {
      entry.name = name;
      return std::move(entry);
    }
    known += (known.empty() ? "" : ", ") + entry.name;
    if (suite && entry.name == "bitonic") known += ", vm-bitonic";
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " +
                              known + ")");
}

}  // namespace rapsim::workloads
