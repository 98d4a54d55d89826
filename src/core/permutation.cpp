#include "core/permutation.hpp"

#include <numeric>
#include <sstream>
#include <stdexcept>

namespace rapsim::core {

Permutation Permutation::identity(std::size_t n) {
  std::vector<std::uint32_t> image(n);
  std::iota(image.begin(), image.end(), 0u);
  return Permutation(std::move(image));
}

Permutation Permutation::random(std::size_t n, util::Pcg32& rng) {
  Permutation perm = identity(n);
  perm.redraw(rng);
  return perm;
}

void draw_permutation(std::span<std::uint32_t> image, util::Pcg32& rng) {
  std::iota(image.begin(), image.end(), 0u);
  // Fisher-Yates: each prefix [0..i] holds a uniform permutation of the
  // elements it has consumed. bounded() is rejection-sampled, so the swap
  // index is exactly uniform and the final draw is uniform over all n!.
  for (std::size_t i = image.size(); i > 1; --i) {
    const std::uint32_t j = rng.bounded(static_cast<std::uint32_t>(i));
    std::swap(image[i - 1], image[j]);
  }
}

void Permutation::redraw(util::Pcg32& rng) { draw_permutation(image_, rng); }

Permutation::Permutation(std::vector<std::uint32_t> image)
    : image_(std::move(image)) {
  if (!is_valid_image(image_)) {
    throw std::invalid_argument(
        "Permutation: image vector is not a permutation of {0..n-1}");
  }
}

Permutation::Permutation(std::initializer_list<std::uint32_t> image)
    : Permutation(std::vector<std::uint32_t>(image)) {}

Permutation Permutation::inverse() const {
  std::vector<std::uint32_t> inv(image_.size());
  for (std::size_t i = 0; i < image_.size(); ++i) {
    inv[image_[i]] = static_cast<std::uint32_t>(i);
  }
  return Permutation(std::move(inv));
}

Permutation Permutation::compose(const Permutation& other) const {
  if (size() != other.size()) {
    throw std::invalid_argument("Permutation::compose: size mismatch");
  }
  std::vector<std::uint32_t> out(size());
  for (std::size_t i = 0; i < size(); ++i) out[i] = image_[other[i]];
  return Permutation(std::move(out));
}

bool Permutation::is_valid_image(std::span<const std::uint32_t> image) {
  std::vector<bool> seen(image.size(), false);
  for (const std::uint32_t v : image) {
    if (v >= image.size() || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

std::string Permutation::to_string() const {
  std::ostringstream out;
  out << '(';
  for (std::size_t i = 0; i < image_.size(); ++i) {
    if (i) out << ' ';
    out << image_[i];
  }
  out << ')';
  return out.str();
}

}  // namespace rapsim::core
