// The address map: one row-transform form for every scheme.
//
// A mapping ("implementation" in the paper's wording: RAW, RAS, RAP, ...)
// is a bijection from logical addresses 0..size-1 to physical addresses
// 0..size-1 of a banked memory of width w; the physical address determines
// the bank (addr mod w). Everything downstream — the congestion simulator,
// the DMM machine, the transpose algorithms — speaks to AddressMap.
//
// Every scheme keeps each row of w words in place and moves a word only
// within its row. With row = a / w and col = a mod w,
//
//   phys = row*w + combine(col, T_0[key_0] (+) ... (+) T_{n-1}[key_{n-1}])
//   key_t = (row / w^d_t) mod |T_t|
//
// where combine rotates ((col + sum) mod w) or XORs (col ^ xor of the
// terms, power-of-two w only) and each of the n <= 3 tables T_t is keyed
// by the row's base-w digits from digit d_t on. A scheme is nothing but
// its tables (DESIGN §17):
//
//   RAW          no table
//   PAD          T[r] = r on digit 0 (w entries)
//   RAP, 1P      a permutation p on digit 0 (w entries)
//   RAS, w^2 P   one whole-row table (one entry per row; w^2 P's is w^2
//                permutations of w entries back to back)
//   R1P          p on digits 2, 1 and 0 (three copies of one permutation)
//   3P           p on digit 2, q on digit 1, s on digit 0
//   1P+w^2 R     p on digit 0, w^2 offsets on digits 1-2
//   ps1: specs   one w-entry table per digit 0, 1, 2 (analyze/synth.hpp)
//
// A 4-D w x w x w x w array is the matrix of w^3 rows, so its row digits
// are (i, j, k) and digit 0 is k. Every map built this way is a bijection
// by construction.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace rapsim::core {

/// Which implementation family a mapping belongs to. The GPU timing model
/// uses this to charge the per-access address-computation overhead, and the
/// adversary generators use it to pick the matching structured attack.
enum class Scheme {
  kRaw,          // direct (identity) addressing
  kRas,          // random address shift: independent offset per row
  kRap,          // random address permute-shift: one permutation
  kRap1P,        // 4-D: one permutation, f = p[k]
  kRapR1P,       // 4-D: repeated one permutation, f = p[i]+p[j]+p[k]
  kRap3P,        // 4-D: three permutations, f = p[i]+q[j]+s[k]
  kRapW2P,       // 4-D: w^2 permutations, f = sigma_{i*w+j}[k]
  kRap1PW2R,     // 4-D: one permutation + w^2 random offsets
  kPad,          // deterministic +1 padding (the CUDA folklore baseline)
  kSynth,        // synthesized permute-shift tables (analyze/synth.hpp)
};

[[nodiscard]] const char* scheme_name(Scheme scheme) noexcept;

/// Inverse of scheme_name for the 2-D schemes a trace or kernel can run
/// under (RAW, RAS, RAP, PAD), case-insensitively; nullopt for anything
/// else.
[[nodiscard]] std::optional<Scheme> parse_scheme_name(std::string_view name);

/// How a row's table terms combine with the column.
enum class RowTransform { kRotate, kXor };

/// One table of a row transform: row r contributes
/// entries[(r / w^digit) mod entries.size()].
struct RowTable {
  std::uint32_t digit = 0;
  std::vector<std::uint32_t> entries;
};

/// Bijective logical->physical address translation over a banked memory.
class AddressMap final {
 public:
  /// Most tables a map carries (three row digits reach the Table IV depth).
  static constexpr std::size_t kMaxTables = 3;

  /// `scheme`'s map of `rows` rows, its random words drawn from `rng`
  /// exactly as make_matrix_map and make_tensor4d_map draw them. Throws
  /// std::invalid_argument for kSynth (synthesized maps have no draws).
  AddressMap(Scheme scheme, std::uint32_t width, std::uint64_t rows,
             util::Pcg32& rng);

  /// The same map with its random words given instead of drawn, in draw
  /// order: RAS one offset per row; RAP, 1P and R1P the permutation; 3P
  /// p, q, s; w^2 P the w^2 permutations; 1P+w^2 R p, then the w^2
  /// offsets. RAW and PAD take none. Throws std::invalid_argument unless
  /// there are random_words() of them and each is a word the scheme could
  /// draw (offsets below w; permutations of {0..w-1}).
  AddressMap(Scheme scheme, std::uint32_t width, std::uint64_t rows,
             std::span<const std::uint32_t> words = {});

  /// A synthesized map with explicit tables (scheme kSynth, no random
  /// words). Throws std::invalid_argument unless width > 0, size is whole
  /// rows, there are at most kMaxTables non-empty tables with entries
  /// below width, and kXor has a power-of-two width.
  AddressMap(std::string name, std::uint32_t width, std::uint64_t size,
             RowTransform transform, std::vector<RowTable> tables);

  /// Draw the random words afresh from `rng`, in place and without
  /// allocating: the draws, in the order, the rng constructor makes.
  void redraw(util::Pcg32& rng);

  /// Physical address of a logical address in [0, size()).
  [[nodiscard]] std::uint64_t translate(std::uint64_t logical) const noexcept {
    // With a power-of-two width every key is a bit field of the address,
    // the row bits stay, and only the column bits combine with the term.
    // One rotated table (RAS, RAP, PAD, 1P, w^2 P) is the common case.
    if (path_ == Path::kOneTable) [[likely]] {
      return rotate(logical, lookup(0, logical));
    }
    std::uint32_t term = 0;
    switch (path_) {
      case Path::kIdentity:
        return logical;
      case Path::kRotate:
        for (std::size_t t = 0; t < table_count_; ++t) {
          term += lookup(t, logical);
        }
        return rotate(logical, term);
      case Path::kXor:  // every term is below w: only column bits flip
        for (std::size_t t = 0; t < table_count_; ++t) {
          term ^= lookup(t, logical);
        }
        return logical ^ term;
      case Path::kOneTable:
      case Path::kDivide:
        break;
    }
    return translate_by_division(logical);
  }

  /// Bank holding the logical address (physical address mod width).
  [[nodiscard]] std::uint32_t bank_of(std::uint64_t logical) const noexcept {
    return static_cast<std::uint32_t>(translate(logical) % width_);
  }

  /// The combined table term of a row, in [0, width): the rotation (or
  /// XOR mask) applied to its columns. 0 for RAW.
  [[nodiscard]] std::uint32_t row_term(std::uint64_t row) const noexcept;

  /// Number of memory banks / threads per warp (the paper's w).
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  /// Number of addressable words.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  /// Number of rows of width words.
  [[nodiscard]] std::uint64_t rows() const noexcept { return rows_; }
  /// Logical address of matrix element (i, j).
  [[nodiscard]] std::uint64_t index(std::uint64_t i,
                                    std::uint64_t j) const noexcept {
    return i * width_ + j;
  }

  [[nodiscard]] Scheme scheme() const noexcept { return scheme_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// How many random words (the paper's "used random numbers") the scheme
  /// consumes; RAW, PAD and synthesized maps use none.
  [[nodiscard]] std::uint64_t random_words() const noexcept {
    return random_words_;
  }

 private:
  /// How translate runs, fixed once the tables are in place. kDivide
  /// serves a width (or a wrapping table size) that is not a power of two.
  enum class Path : std::uint8_t {
    kOneTable, kIdentity, kRotate, kXor, kDivide
  };

  /// How table t is keyed: (logical >> shift) & mask on the bit-field
  /// paths, else (row / divisor) mod modulus, with modulus 0 when no key
  /// wraps.
  struct Key {
    std::uint64_t mask = ~0ull;
    unsigned shift = 0;
    std::uint64_t divisor = 1;
    std::uint64_t modulus = 0;
  };

  struct Undrawn {};
  /// `scheme`'s tables, its random words still zero.
  AddressMap(Scheme scheme, std::uint32_t width, std::uint64_t rows, Undrawn);
  void add_table(std::uint32_t digit, std::vector<std::uint32_t> entries);
  void choose_path() noexcept;
  template <typename Words>
  void fill(Words& words);
  [[nodiscard]] std::uint32_t sum_by_division(std::uint64_t row) const noexcept;
  [[nodiscard]] std::uint64_t translate_by_division(
      std::uint64_t logical) const noexcept;

  [[nodiscard]] std::uint64_t rotate(std::uint64_t logical,
                                     std::uint32_t term) const noexcept {
    return (logical & ~col_mask_) | ((logical + term) & col_mask_);
  }

  [[nodiscard]] std::uint32_t lookup(std::size_t t,
                                     std::uint64_t logical) const noexcept {
    return tables_[t][(logical >> keys_[t].shift) & keys_[t].mask];
  }

  // What translate reads first, together.
  Path path_ = Path::kDivide;
  RowTransform transform_ = RowTransform::kRotate;
  std::uint64_t col_mask_;  // width - 1
  std::size_t table_count_ = 0;
  std::array<Key, kMaxTables> keys_{};
  std::array<std::vector<std::uint32_t>, kMaxTables> tables_;

  std::uint32_t width_;
  std::uint64_t rows_;
  std::uint64_t size_;
  Scheme scheme_;
  std::string name_;
  std::uint64_t random_words_ = 0;
};

/// The row-major matrix map of the 2-D code paths. rapbench names it.
using MatrixMap = AddressMap;

/// 4-D index (i, j, k, l) of a w x w x w x w array, each coordinate in
/// [0, w); its logical address is i*w^3 + j*w^2 + k*w + l.
struct Index4d {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  std::uint32_t k = 0;
  std::uint32_t l = 0;

  [[nodiscard]] bool operator==(const Index4d&) const = default;
};

[[nodiscard]] constexpr std::uint64_t index(std::uint32_t width,
                                            const Index4d& c) noexcept {
  const std::uint64_t w = width;
  return ((static_cast<std::uint64_t>(c.i) * w + c.j) * w + c.k) * w + c.l;
}

[[nodiscard]] constexpr Index4d decompose(std::uint32_t width,
                                          std::uint64_t logical) noexcept {
  const std::uint64_t w = width;
  Index4d c;
  c.l = static_cast<std::uint32_t>(logical % w);
  logical /= w;
  c.k = static_cast<std::uint32_t>(logical % w);
  logical /= w;
  c.j = static_cast<std::uint32_t>(logical % w);
  c.i = static_cast<std::uint32_t>(logical / w);
  return c;
}

}  // namespace rapsim::core
