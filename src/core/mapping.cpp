#include "core/mapping.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <numeric>
#include <stdexcept>

#include "core/permutation.hpp"

namespace rapsim::core {

const char* scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kRaw: return "RAW";
    case Scheme::kRas: return "RAS";
    case Scheme::kRap: return "RAP";
    case Scheme::kRap1P: return "1P";
    case Scheme::kRapR1P: return "R1P";
    case Scheme::kRap3P: return "3P";
    case Scheme::kRapW2P: return "w2P";
    case Scheme::kRap1PW2R: return "1P+w2R";
    case Scheme::kPad: return "PAD";
    case Scheme::kSynth: return "SYNTH";
  }
  return "?";
}

std::optional<Scheme> parse_scheme_name(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower.push_back(static_cast<char>(std::tolower(
        static_cast<unsigned char>(c))));
  }
  if (lower == "raw") return Scheme::kRaw;
  if (lower == "ras") return Scheme::kRas;
  if (lower == "rap") return Scheme::kRap;
  if (lower == "pad") return Scheme::kPad;
  return std::nullopt;
}

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("AddressMap: ") + what);
}

/// Random words drawn from a generator.
struct DrawnWords {
  util::Pcg32& rng;
  std::uint32_t width;

  void offsets(std::span<std::uint32_t> out) {
    for (std::uint32_t& offset : out) offset = rng.bounded(width);
  }
  void permutation(std::span<std::uint32_t> out) {
    draw_permutation(out, rng);
  }
};

/// Random words given by the caller, checked as they are consumed.
struct GivenWords {
  std::span<const std::uint32_t> words;
  std::uint32_t width;
  std::size_t next = 0;

  std::span<const std::uint32_t> take(std::size_t n) {
    require(next + n <= words.size(), "too few random words");
    const auto taken = words.subspan(next, n);
    next += n;
    return taken;
  }
  void offsets(std::span<std::uint32_t> out) {
    const auto taken = take(out.size());
    require(std::ranges::all_of(taken, [&](std::uint32_t v) {
              return v < width;
            }),
            "offset out of range [0, width)");
    std::ranges::copy(taken, out.begin());
  }
  void permutation(std::span<std::uint32_t> out) {
    const auto taken = take(out.size());
    require(Permutation::is_valid_image(taken),
            "words are not a permutation of {0..width-1}");
    std::ranges::copy(taken, out.begin());
  }
};

}  // namespace

AddressMap::AddressMap(Scheme scheme, std::uint32_t width, std::uint64_t rows,
                       Undrawn)
    : col_mask_(width - 1ull),
      width_(width),
      rows_(rows),
      size_(rows * width),
      scheme_(scheme),
      name_(scheme_name(scheme)) {
  require(width > 0, "width must be positive");
  const std::uint64_t w = width;
  const auto zeros = [](std::uint64_t n) {
    return std::vector<std::uint32_t>(n, 0);
  };
  // The table layout of each scheme (DESIGN §17); fill() draws into it.
  switch (scheme) {
    case Scheme::kRaw:
      break;
    case Scheme::kPad: {
      std::vector<std::uint32_t> skew(width);
      std::iota(skew.begin(), skew.end(), 0u);
      add_table(0, std::move(skew));
      break;
    }
    case Scheme::kRas:
    case Scheme::kRapW2P:
      require(scheme == Scheme::kRas || rows % w == 0,
              "w2P needs whole planes of w rows");
      add_table(0, zeros(rows));
      random_words_ = rows;
      break;
    case Scheme::kRap:
    case Scheme::kRap1P:
      add_table(0, zeros(w));
      random_words_ = w;
      break;
    case Scheme::kRapR1P:
    case Scheme::kRap3P:
      for (std::uint32_t digit : {2u, 1u, 0u}) add_table(digit, zeros(w));
      random_words_ = scheme == Scheme::kRap3P ? 3 * w : w;
      break;
    case Scheme::kRap1PW2R:
      add_table(0, zeros(w));
      add_table(1, zeros(w * w));
      random_words_ = w + w * w;
      break;
    case Scheme::kSynth:
      require(false, "a synthesized map has no random words to draw");
  }
  choose_path();
}

AddressMap::AddressMap(Scheme scheme, std::uint32_t width, std::uint64_t rows,
                       util::Pcg32& rng)
    : AddressMap(scheme, width, rows, Undrawn{}) {
  redraw(rng);
}

AddressMap::AddressMap(Scheme scheme, std::uint32_t width, std::uint64_t rows,
                       std::span<const std::uint32_t> words)
    : AddressMap(scheme, width, rows, Undrawn{}) {
  require(words.size() == random_words_,
          "random word count does not match the scheme");
  GivenWords given{words, width};
  fill(given);
}

AddressMap::AddressMap(std::string name, std::uint32_t width,
                       std::uint64_t size, RowTransform transform,
                       std::vector<RowTable> tables)
    : transform_(transform),
      col_mask_(width - 1ull),
      width_(width),
      rows_(width > 0 ? size / width : 0),
      size_(size),
      scheme_(Scheme::kSynth),
      name_(std::move(name)) {
  require(width > 0 && size % width == 0,
          "size must be a positive multiple of the width");
  require(tables.size() <= kMaxTables, "more than 3 tables");
  require(transform == RowTransform::kRotate || std::has_single_bit(width),
          "xor transform requires a power-of-two width");
  for (RowTable& table : tables) {
    require(!table.entries.empty(), "empty table");
    require(table.digit < kMaxTables, "table digit beyond 2");
    require(std::ranges::all_of(table.entries,
                                [&](std::uint32_t v) { return v < width; }),
            "table entry out of range");
    add_table(table.digit, std::move(table.entries));
  }
  choose_path();
}

void AddressMap::add_table(std::uint32_t digit,
                           std::vector<std::uint32_t> entries) {
  const std::size_t t = table_count_++;
  tables_[t] = std::move(entries);
  Key& key = keys_[t];
  const std::uint64_t size = tables_[t].size();
  key.divisor = 1;
  for (std::uint32_t d = 0; d < digit; ++d) key.divisor *= width_;
  // Keys need no wrap when the table has an entry for every row's digit
  // value (rows <= |T| * w^digit): a whole-row table, or the top digit.
  const bool wraps = rows() > size * key.divisor;
  key.modulus = wraps ? size : 0;
  key.mask = wraps ? size - 1 : ~0ull;
  // The key's bit field starts past the column bits and `digit` digits.
  key.shift = (digit + 1) * static_cast<unsigned>(std::countr_zero(width_));
}

void AddressMap::choose_path() noexcept {
  // Shift and mask stand in for division only when w and every wrapping
  // table size are powers of two.
  bool bit_fields = std::has_single_bit(width_);
  for (std::size_t t = 0; t < table_count_; ++t) {
    const std::uint64_t modulus = keys_[t].modulus;
    bit_fields = bit_fields && (modulus == 0 || std::has_single_bit(modulus));
  }
  if (!bit_fields) {
    path_ = Path::kDivide;
  } else if (transform_ == RowTransform::kXor) {
    path_ = Path::kXor;
  } else {
    path_ = table_count_ == 0   ? Path::kIdentity
            : table_count_ == 1 ? Path::kOneTable
                                : Path::kRotate;
  }
}

std::uint32_t AddressMap::sum_by_division(std::uint64_t row) const noexcept {
  std::uint32_t term = 0;
  for (std::size_t t = 0; t < table_count_; ++t) {
    const Key& key = keys_[t];
    std::uint64_t k = key.divisor == 1 ? row : row / key.divisor;
    if (key.modulus != 0) k %= key.modulus;
    term = transform_ == RowTransform::kXor ? term ^ tables_[t][k]
                                            : term + tables_[t][k];
  }
  return term;
}

std::uint64_t AddressMap::translate_by_division(
    std::uint64_t logical) const noexcept {
  const std::uint64_t row = logical / width_;
  const std::uint64_t col = logical - row * width_;
  const std::uint32_t term = sum_by_division(row);
  return row * width_ + (transform_ == RowTransform::kXor
                             ? col ^ term
                             : (col + term) % width_);
}

std::uint32_t AddressMap::row_term(std::uint64_t row) const noexcept {
  const std::uint32_t term = sum_by_division(row);
  return transform_ == RowTransform::kXor ? term : term % width_;
}

template <typename Words>
void AddressMap::fill(Words& words) {
  const auto table = [this](std::size_t t) {
    return std::span<std::uint32_t>(tables_[t]);
  };
  switch (scheme_) {
    case Scheme::kRas:
      words.offsets(table(0));
      break;
    case Scheme::kRap:
    case Scheme::kRap1P:
      words.permutation(table(0));
      break;
    case Scheme::kRapR1P:
      words.permutation(table(0));
      std::ranges::copy(table(0), table(1).begin());
      std::ranges::copy(table(0), table(2).begin());
      break;
    case Scheme::kRap3P:
      for (std::size_t t = 0; t < 3; ++t) words.permutation(table(t));
      break;
    case Scheme::kRapW2P:
      for (std::size_t first = 0; first < table(0).size(); first += width_) {
        words.permutation(table(0).subspan(first, width_));
      }
      break;
    case Scheme::kRap1PW2R:
      words.permutation(table(0));
      words.offsets(table(1));
      break;
    case Scheme::kRaw:
    case Scheme::kPad:
    case Scheme::kSynth:
      break;
  }
}

void AddressMap::redraw(util::Pcg32& rng) {
  DrawnWords drawn{rng, width_};
  fill(drawn);
}

}  // namespace rapsim::core
