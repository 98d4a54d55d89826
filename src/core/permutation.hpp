// Random permutations — the randomness source of the RAP technique.
//
// The paper draws a permutation p of {0..w-1} uniformly from all w!
// permutations; element (i, j) of a w x w matrix is then stored at column
// (j + p_i) mod w. This file provides the Permutation value type with
// uniform sampling (Fisher-Yates), inversion, composition, and validation.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rapsim::core {

/// Overwrite `image` with a uniformly random permutation of
/// {0..image.size()-1}: Fisher-Yates over the identity with an unbiased
/// bounded sampler, so all n! outcomes are equally likely.
void draw_permutation(std::span<std::uint32_t> image, util::Pcg32& rng);

/// A permutation of {0, 1, ..., n-1}, stored as the image vector:
/// value `perm[i]` is where i maps to. Only redraw() changes it.
class Permutation {
 public:
  /// The identity permutation of size n.
  static Permutation identity(std::size_t n);

  /// Uniformly random permutation of size n (draw_permutation).
  static Permutation random(std::size_t n, util::Pcg32& rng);

  /// Replace this permutation, in place, with random(size(), rng): the
  /// same draws from `rng` and the same result.
  void redraw(util::Pcg32& rng);

  /// Build from an explicit image vector; throws std::invalid_argument if
  /// the vector is not a permutation of {0..n-1}.
  explicit Permutation(std::vector<std::uint32_t> image);
  Permutation(std::initializer_list<std::uint32_t> image);

  [[nodiscard]] std::size_t size() const noexcept { return image_.size(); }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const noexcept {
    return image_[i];
  }
  [[nodiscard]] std::span<const std::uint32_t> image() const noexcept {
    return image_;
  }

  /// The inverse permutation q with q[p[i]] == i.
  [[nodiscard]] Permutation inverse() const;

  /// Composition (*this ∘ other): result[i] = (*this)[other[i]].
  [[nodiscard]] Permutation compose(const Permutation& other) const;

  /// True if `image` is a valid permutation of {0..image.size()-1}.
  [[nodiscard]] static bool is_valid_image(
      std::span<const std::uint32_t> image);

  [[nodiscard]] bool operator==(const Permutation& other) const = default;

  /// "(2 0 3 1)"-style rendering for traces and figure demos.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::uint32_t> image_;
};

}  // namespace rapsim::core
