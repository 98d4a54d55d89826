// 2-D (matrix) address mappings: RAW, RAS, RAP.
//
// A matrix of `rows` rows and w columns is stored row-major: element (i, j)
// has logical address i*w + j, so in the RAW implementation it sits in bank
// (i*w + j) mod w = j mod w. The randomized schemes rotate each row:
//
//   RAW:  (i, j) -> i*w + j                      (0 random words)
//   RAS:  (i, j) -> i*w + (j + r_i) mod w        (rows independent words)
//   RAP:  (i, j) -> i*w + (j + p_{i mod w}) mod w   (w words, one permutation)
//
// RAS draws each r_i independently and uniformly from [0, w); stride
// (column) access then behaves like balls-in-bins. RAP instead uses a
// single uniformly random permutation p — the rotations of any w
// consecutive rows are *distinct*, which is exactly why stride access has
// congestion 1 (Theorem 2's deterministic part). For matrices taller than
// w rows, RAP reuses p cyclically (row i shifts by p[i mod w]); every
// aligned group of w consecutive rows keeps the distinct-shift property.

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/mapping.hpp"
#include "core/permutation.hpp"
#include "util/rng.hpp"

namespace rapsim::core {

/// Row-major matrix geometry shared by the 2-D mappings.
class MatrixMap : public AddressMap {
 public:
  MatrixMap(std::uint32_t width, std::uint64_t rows)
      : AddressMap(width, rows * width),
        rows_(rows),
        pow2_(std::has_single_bit(width)),
        log2_width_(static_cast<unsigned>(std::countr_zero(width))) {}

  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }

  /// Logical address of element (i, j).
  [[nodiscard]] std::uint64_t index(std::uint64_t i,
                                    std::uint64_t j) const noexcept {
    return i * width() + j;
  }

  /// Column rotation applied to row i (0 for RAW).
  [[nodiscard]] virtual std::uint32_t shift_of_row(
      std::uint64_t i) const noexcept = 0;

  /// Draw the scheme's random words afresh from `rng`, in place, consuming
  /// exactly the draws the seeded constructor makes. RAW and PAD have none.
  virtual void redraw(util::Pcg32& /*rng*/) {}

  // Physical address: the row is preserved; only the column rotates. This
  // single definition makes every subclass a bijection by construction.
  [[nodiscard]] std::uint64_t translate(std::uint64_t logical) const final {
    return rotate(*this, logical);
  }

 protected:
  /// i mod w, by mask for power-of-two widths.
  [[nodiscard]] std::uint64_t mod_width(std::uint64_t i) const noexcept {
    return pow2_ ? i & (width() - 1) : i % width();
  }

  /// The row rule of translate, for `Map` = the concrete map so that
  /// shift_of_row is resolved statically. Power-of-two widths use shift
  /// and mask instead of division.
  template <typename Map>
  [[nodiscard]] static std::uint64_t rotate(const Map& map,
                                            std::uint64_t logical) noexcept {
    const MatrixMap& m = map;
    if (m.pow2_) {
      const std::uint64_t i = logical >> m.log2_width_;
      return (i << m.log2_width_) |
             ((logical + map.shift_of_row(i)) & (m.width() - 1));
    }
    const std::uint64_t i = logical / m.width();
    const std::uint64_t j = logical - i * m.width();
    return i * m.width() + (j + map.shift_of_row(i)) % m.width();
  }

  template <typename Map>
  static void rotate_warp(const Map& map,
                          std::span<const std::uint64_t> logical,
                          std::span<std::uint64_t> physical) noexcept {
    for (std::size_t k = 0; k < logical.size(); ++k) {
      physical[k] = rotate(map, logical[k]);
    }
  }

 private:
  std::uint64_t rows_;
  bool pow2_;
  unsigned log2_width_;  // meaningful only when pow2_
};

/// RAW: direct addressing (the conventional CUDA layout).
class RawMap final : public MatrixMap {
 public:
  RawMap(std::uint32_t width, std::uint64_t rows) : MatrixMap(width, rows) {}

  [[nodiscard]] std::uint32_t shift_of_row(std::uint64_t) const noexcept override {
    return 0;
  }
  void translate_warp(std::span<const std::uint64_t> logical,
                      std::span<std::uint64_t> physical) const override {
    rotate_warp(*this, logical, physical);
  }
  [[nodiscard]] Scheme scheme() const noexcept override { return Scheme::kRaw; }
  [[nodiscard]] std::string name() const override { return "RAW"; }
  [[nodiscard]] std::uint64_t random_words() const noexcept override {
    return 0;
  }
};

/// RAS: random address shift — one independent uniform offset per row
/// (Nakano/Matsumae/Ito, CANDAR 2013). Contiguous access stays
/// conflict-free; stride access collides like balls-in-bins.
class RasMap final : public MatrixMap {
 public:
  RasMap(std::uint32_t width, std::uint64_t rows, util::Pcg32& rng);

  /// Construct from explicit offsets (tests / worked examples).
  RasMap(std::uint32_t width, std::vector<std::uint32_t> offsets);

  [[nodiscard]] std::uint32_t shift_of_row(std::uint64_t i) const noexcept override {
    return offsets_[i];
  }
  /// Row i's offset is the i-th draw of rng.bounded(width).
  void redraw(util::Pcg32& rng) override;
  void translate_warp(std::span<const std::uint64_t> logical,
                      std::span<std::uint64_t> physical) const override {
    rotate_warp(*this, logical, physical);
  }
  [[nodiscard]] Scheme scheme() const noexcept override { return Scheme::kRas; }
  [[nodiscard]] std::string name() const override { return "RAS"; }
  [[nodiscard]] std::uint64_t random_words() const noexcept override {
    return offsets_.size();
  }

 private:
  std::vector<std::uint32_t> offsets_;
};

/// PAD: the deterministic "+1 padding" folklore baseline (declaring
/// `__shared__ double a[w][w+1]`), modeled bank-exactly as the skewed
/// layout bank(i, j) = (i + j) mod w — i.e. a row rotation by i mod w.
/// Contiguous and stride are conflict-free like RAP, with zero random
/// words, but the skew is PUBLIC and FIXED: an adversary (or an unlucky
/// access pattern, e.g. anti-diagonals) can put a whole warp in one bank,
/// and the real layout also burns `rows` words of shared memory. The
/// ablation bench quantifies this trade against RAP.
class PadMap final : public MatrixMap {
 public:
  PadMap(std::uint32_t width, std::uint64_t rows) : MatrixMap(width, rows) {}

  [[nodiscard]] std::uint32_t shift_of_row(std::uint64_t i) const noexcept override {
    return static_cast<std::uint32_t>(mod_width(i));
  }
  void translate_warp(std::span<const std::uint64_t> logical,
                      std::span<std::uint64_t> physical) const override {
    rotate_warp(*this, logical, physical);
  }
  [[nodiscard]] Scheme scheme() const noexcept override { return Scheme::kPad; }
  [[nodiscard]] std::string name() const override { return "PAD"; }
  [[nodiscard]] std::uint64_t random_words() const noexcept override {
    return 0;
  }
};

/// RAP: random address permute-shift — this paper's contribution. One
/// permutation p of {0..w-1}; row i rotates by p[i mod w]. Stride and
/// contiguous accesses are both conflict-free; arbitrary accesses have
/// expected congestion O(log w / log log w) (Theorem 2).
class RapMap final : public MatrixMap {
 public:
  RapMap(std::uint32_t width, std::uint64_t rows, util::Pcg32& rng)
      : MatrixMap(width, rows), perm_(Permutation::random(width, rng)) {}

  /// Construct from an explicit permutation (tests / Figure 6 demo).
  RapMap(std::uint32_t width, std::uint64_t rows, Permutation perm);

  [[nodiscard]] std::uint32_t shift_of_row(std::uint64_t i) const noexcept override {
    return perm_[static_cast<std::size_t>(mod_width(i))];
  }
  /// p is redrawn as Permutation::random(width, rng) would draw it.
  void redraw(util::Pcg32& rng) override { perm_.redraw(rng); }
  void translate_warp(std::span<const std::uint64_t> logical,
                      std::span<std::uint64_t> physical) const override {
    rotate_warp(*this, logical, physical);
  }
  [[nodiscard]] const Permutation& permutation() const noexcept {
    return perm_;
  }
  [[nodiscard]] Scheme scheme() const noexcept override { return Scheme::kRap; }
  [[nodiscard]] std::string name() const override { return "RAP"; }
  [[nodiscard]] std::uint64_t random_words() const noexcept override {
    return width();
  }

 private:
  Permutation perm_;
};

}  // namespace rapsim::core
