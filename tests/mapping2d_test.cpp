// Unit + property tests for the 2-D mappings (RAW / RAS / RAP / PAD).

#include "core/mapping.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "core/permutation.hpp"
#include "util/hash.hpp"

namespace rapsim::core {
namespace {

TEST(RawMap, IsIdentity) {
  const AddressMap map(Scheme::kRaw, 8, 8);
  for (std::uint64_t a = 0; a < map.size(); ++a) {
    EXPECT_EQ(map.translate(a), a);
  }
  EXPECT_EQ(map.random_words(), 0u);
  EXPECT_EQ(map.scheme(), Scheme::kRaw);
}

TEST(RawMap, BankIsAddressModWidth) {
  const AddressMap map(Scheme::kRaw, 32, 64);
  for (std::uint64_t a = 0; a < map.size(); a += 7) {
    EXPECT_EQ(map.bank_of(a), a % 32);
  }
}

TEST(RasMap, ShiftsRowsByGivenOffsets) {
  const AddressMap map(Scheme::kRas, 4, 4,
                       std::vector<std::uint32_t>{1, 0, 3, 2});
  // Row 0 shifted by 1: (0,0) -> column 1.
  EXPECT_EQ(map.translate(map.index(0, 0)), map.index(0, 1));
  // Row 2 shifted by 3: (2, 2) -> column (2+3)%4 = 1.
  EXPECT_EQ(map.translate(map.index(2, 2)), map.index(2, 1));
  EXPECT_EQ(map.random_words(), 4u);
}

TEST(RasMap, RejectsOutOfRangeOffset) {
  EXPECT_THROW(AddressMap(Scheme::kRas, 4, 4,
                          std::vector<std::uint32_t>{0, 4, 1, 2}),
               std::invalid_argument);
}

TEST(RapMap, MatchesFigure6Example) {
  // Figure 6: w = 4, p = (2, 0, 3, 1). Row i rotates by p_i, so element
  // (i, j) moves to column (j + p_i) mod 4 and its bank is that column.
  const AddressMap map(Scheme::kRap, 4, 4, Permutation({2, 0, 3, 1}).image());
  // Row 0 rotates by 2: logical row 0 = [0 1 2 3] lands in columns
  // [2 3 0 1].
  EXPECT_EQ(map.translate(map.index(0, 0)), map.index(0, 2));
  EXPECT_EQ(map.translate(map.index(0, 2)), map.index(0, 0));
  // Row 1 rotates by 0.
  EXPECT_EQ(map.translate(map.index(1, 1)), map.index(1, 1));
  // Row 2 rotates by 3: a[2][1] (= value 9) lands in column (1+3)%4 = 0.
  EXPECT_EQ(map.translate(map.index(2, 1)), map.index(2, 0));
  // Row 3 rotates by 1.
  EXPECT_EQ(map.translate(map.index(3, 3)), map.index(3, 0));
}

TEST(RapMap, RejectsWrongPermutationSize) {
  EXPECT_THROW(
      AddressMap(Scheme::kRap, 4, 4, Permutation::identity(5).image()),
      std::invalid_argument);
}

TEST(RapMap, TallMatrixReusesPermutationCyclically) {
  const AddressMap map(Scheme::kRap, 4, 12, Permutation({2, 0, 3, 1}).image());
  for (std::uint64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(map.row_term(i), map.row_term(i % 4));
  }
}

TEST(RapMap, RandomWordsEqualsWidth) {
  util::Pcg32 rng(5);
  const AddressMap map(Scheme::kRap, 32, 64, rng);
  EXPECT_EQ(map.random_words(), 32u);
}

TEST(PadMap, SkewMatchesRealPaddedLayout) {
  // Real padded layout: element (i, j) at i*(w+1)+j, bank (i+j) mod w.
  const AddressMap map(Scheme::kPad, 8, 8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    for (std::uint64_t j = 0; j < 8; ++j) {
      const auto real_bank =
          static_cast<std::uint32_t>((i * 9 + j) % 8);
      EXPECT_EQ(map.bank_of(map.index(i, j)), real_bank);
    }
  }
  EXPECT_EQ(map.random_words(), 0u);
  EXPECT_EQ(map.scheme(), Scheme::kPad);
}

TEST(PadMap, StrideIsConflictFree) {
  const AddressMap map(Scheme::kPad, 16, 16);
  for (std::uint64_t j = 0; j < 16; ++j) {
    std::set<std::uint32_t> banks;
    for (std::uint64_t i = 0; i < 16; ++i) {
      banks.insert(map.bank_of(map.index(i, j)));
    }
    EXPECT_EQ(banks.size(), 16u);
  }
}

TEST(PadMap, AntiDiagonalCollapsesToOneBank) {
  // The deterministic weakness: i + j = const puts the warp in one bank.
  const AddressMap map(Scheme::kPad, 16, 16);
  std::set<std::uint32_t> banks;
  for (std::uint64_t i = 0; i < 16; ++i) {
    banks.insert(map.bank_of(map.index(i, (16 + 5 - i) % 16)));
  }
  EXPECT_EQ(banks.size(), 1u);
}

TEST(PadMap, DiagonalIsTwoWayConflictedForEvenWidth) {
  const AddressMap map(Scheme::kPad, 16, 16);
  std::vector<std::uint64_t> addrs;
  for (std::uint64_t i = 0; i < 16; ++i) addrs.push_back(map.index(i, i));
  EXPECT_EQ(congestion_value(addrs, map), 2u);
}

TEST(SchemeName, ParsesCaseInsensitively) {
  EXPECT_EQ(parse_scheme_name("raw"), Scheme::kRaw);
  EXPECT_EQ(parse_scheme_name("RAS"), Scheme::kRas);
  EXPECT_EQ(parse_scheme_name("Rap"), Scheme::kRap);
  EXPECT_EQ(parse_scheme_name("pAd"), Scheme::kPad);
  EXPECT_EQ(parse_scheme_name("rot13"), std::nullopt);
  EXPECT_EQ(parse_scheme_name(""), std::nullopt);
}

// ---- Property sweep: every scheme x width is a bijection that preserves
// ---- rows (the shift moves cells only within their row).

class Mapping2dProperty
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint32_t>> {};

TEST_P(Mapping2dProperty, TranslateIsARowPreservingBijection) {
  const auto [scheme, width] = GetParam();
  const std::uint64_t rows = 2 * width;  // taller than wide, like MatrixPair
  for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const auto map = make_matrix_map(scheme, width, rows, seed);
    std::set<std::uint64_t> images;
    for (std::uint64_t a = 0; a < map->size(); ++a) {
      const std::uint64_t phys = map->translate(a);
      ASSERT_LT(phys, map->size());
      EXPECT_EQ(phys / width, a / width) << "row not preserved";
      images.insert(phys);
    }
    EXPECT_EQ(images.size(), map->size()) << "not a bijection";
  }
}

TEST_P(Mapping2dProperty, ContiguousRowOccupiesAllBanks) {
  const auto [scheme, width] = GetParam();
  const auto map = make_matrix_map(scheme, width, width, 7);
  for (std::uint64_t i = 0; i < width; ++i) {
    std::set<std::uint32_t> banks;
    for (std::uint64_t j = 0; j < width; ++j) {
      banks.insert(map->bank_of(map->index(i, j)));
    }
    EXPECT_EQ(banks.size(), width);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndWidths, Mapping2dProperty,
    ::testing::Combine(::testing::Values(Scheme::kRaw, Scheme::kRas,
                                         Scheme::kRap, Scheme::kPad),
                       ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u)),
    [](const auto& param_info) {
      return std::string(scheme_name(std::get<0>(param_info.param))) + "_w" +
             std::to_string(std::get<1>(param_info.param));
    });

// RAP-specific property: banks of any aligned column (stride access) are
// all distinct — the deterministic half of Theorem 2.
class RapStrideProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RapStrideProperty, EveryColumnHitsAllBanks) {
  const std::uint32_t width = GetParam();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto map = make_matrix_map(Scheme::kRap, width, width, seed);
    for (std::uint64_t j = 0; j < width; ++j) {
      std::set<std::uint32_t> banks;
      for (std::uint64_t i = 0; i < width; ++i) {
        banks.insert(map->bank_of(map->index(i, j)));
      }
      EXPECT_EQ(banks.size(), width);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RapStrideProperty,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u, 64u, 128u),
                         [](const auto& param_info) {
                           return "w" + std::to_string(param_info.param);
                         });

// ---- Full-domain pins: FNV-1a over translate(a) for every a in [0, size),
// ---- per scheme x width x height x seed. The digests were recorded from
// ---- the earlier one-class-per-scheme maps, so the row-transform tables
// ---- reproduce them address for address.

struct MatrixPin {
  Scheme scheme;
  std::uint32_t width;
  std::uint64_t rows;
  std::uint64_t seed;
  std::uint64_t digest;
};

const MatrixPin kMatrixPins[] = {
    {Scheme::kRaw, 1, 1, 1, 0xa8c7f832281a39c5ull},
    {Scheme::kRaw, 1, 1, 24301, 0xa8c7f832281a39c5ull},
    {Scheme::kRaw, 1, 3, 1, 0x70c9b82103059f06ull},
    {Scheme::kRaw, 1, 3, 24301, 0x70c9b82103059f06ull},
    {Scheme::kRaw, 12, 12, 1, 0xbd2db8e6c49adf25ull},
    {Scheme::kRaw, 12, 12, 24301, 0xbd2db8e6c49adf25ull},
    {Scheme::kRaw, 12, 36, 1, 0xf71bc7d4720ca455ull},
    {Scheme::kRaw, 12, 36, 24301, 0xf71bc7d4720ca455ull},
    {Scheme::kRaw, 16, 16, 1, 0x47b5eeb1c24f5b25ull},
    {Scheme::kRaw, 16, 16, 24301, 0x47b5eeb1c24f5b25ull},
    {Scheme::kRaw, 16, 48, 1, 0x373422696a31d625ull},
    {Scheme::kRaw, 16, 48, 24301, 0x373422696a31d625ull},
    {Scheme::kRaw, 24, 24, 1, 0xbf399c9b000cb425ull},
    {Scheme::kRaw, 24, 24, 24301, 0xbf399c9b000cb425ull},
    {Scheme::kRaw, 24, 72, 1, 0xc56e963c08686e25ull},
    {Scheme::kRaw, 24, 72, 24301, 0xc56e963c08686e25ull},
    {Scheme::kRaw, 32, 32, 1, 0x21b84c137ccdb625ull},
    {Scheme::kRaw, 32, 32, 24301, 0x21b84c137ccdb625ull},
    {Scheme::kRaw, 32, 96, 1, 0x5b0d3e8b62b1be25ull},
    {Scheme::kRaw, 32, 96, 24301, 0x5b0d3e8b62b1be25ull},
    {Scheme::kRaw, 64, 64, 1, 0x34815615f489cb25ull},
    {Scheme::kRaw, 64, 64, 24301, 0x34815615f489cb25ull},
    {Scheme::kRaw, 64, 192, 1, 0x158fa5f207751f25ull},
    {Scheme::kRaw, 64, 192, 24301, 0x158fa5f207751f25ull},
    {Scheme::kRas, 1, 1, 1, 0xa8c7f832281a39c5ull},
    {Scheme::kRas, 1, 1, 24301, 0xa8c7f832281a39c5ull},
    {Scheme::kRas, 1, 3, 1, 0x70c9b82103059f06ull},
    {Scheme::kRas, 1, 3, 24301, 0x70c9b82103059f06ull},
    {Scheme::kRas, 12, 12, 1, 0xe54d983c3ed48b25ull},
    {Scheme::kRas, 12, 12, 24301, 0x426385d5ba6f4d25ull},
    {Scheme::kRas, 12, 36, 1, 0x94972f6f2df2a025ull},
    {Scheme::kRas, 12, 36, 24301, 0x8b75a324a7751fadull},
    {Scheme::kRas, 16, 16, 1, 0x1a06c234d3f13f25ull},
    {Scheme::kRas, 16, 16, 24301, 0x49b53f6a76c81d25ull},
    {Scheme::kRas, 16, 48, 1, 0x88ed6c4dff001225ull},
    {Scheme::kRas, 16, 48, 24301, 0xddf453f96becb8a5ull},
    {Scheme::kRas, 24, 24, 1, 0xf29dd56e7e65f285ull},
    {Scheme::kRas, 24, 24, 24301, 0x89b2339bce6ea965ull},
    {Scheme::kRas, 24, 72, 1, 0x62661fb38361d8d5ull},
    {Scheme::kRas, 24, 72, 24301, 0xdf3b516480aba555ull},
    {Scheme::kRas, 32, 32, 1, 0xe5b5d8a5096f68e5ull},
    {Scheme::kRas, 32, 32, 24301, 0xa9586fd59ff1eee5ull},
    {Scheme::kRas, 32, 96, 1, 0x918a556c85e7dda5ull},
    {Scheme::kRas, 32, 96, 24301, 0x2cc80c078dae7aa5ull},
    {Scheme::kRas, 64, 64, 1, 0x7ec1121361289825ull},
    {Scheme::kRas, 64, 64, 24301, 0x53f6c120619e4325ull},
    {Scheme::kRas, 64, 192, 1, 0x9f232d4961e2b2a5ull},
    {Scheme::kRas, 64, 192, 24301, 0x26d24c86e6c84025ull},
    {Scheme::kRap, 1, 1, 1, 0xa8c7f832281a39c5ull},
    {Scheme::kRap, 1, 1, 24301, 0xa8c7f832281a39c5ull},
    {Scheme::kRap, 1, 3, 1, 0x70c9b82103059f06ull},
    {Scheme::kRap, 1, 3, 24301, 0x70c9b82103059f06ull},
    {Scheme::kRap, 12, 12, 1, 0xdb44f55dfdf3ad25ull},
    {Scheme::kRap, 12, 12, 24301, 0x0c3f53b8b17af2a5ull},
    {Scheme::kRap, 12, 36, 1, 0x8a0de6edf2815425ull},
    {Scheme::kRap, 12, 36, 24301, 0x59367fbe49e0cebdull},
    {Scheme::kRap, 16, 16, 1, 0x8cc258f1ffcbdf25ull},
    {Scheme::kRap, 16, 16, 24301, 0xe8d5e4d8a3f48325ull},
    {Scheme::kRap, 16, 48, 1, 0x71a512a9f7afed85ull},
    {Scheme::kRap, 16, 48, 24301, 0xef87096c55585745ull},
    {Scheme::kRap, 24, 24, 1, 0xbbd924ec4283cb85ull},
    {Scheme::kRap, 24, 24, 24301, 0x9a7ecd155c4afaf5ull},
    {Scheme::kRap, 24, 72, 1, 0x65d29e81cf297495ull},
    {Scheme::kRap, 24, 72, 24301, 0x57d6b7a989e7ec45ull},
    {Scheme::kRap, 32, 32, 1, 0x03847b0f39605225ull},
    {Scheme::kRap, 32, 32, 24301, 0x7fee386a724c8c65ull},
    {Scheme::kRap, 32, 96, 1, 0xfa6b9f8abb0473a5ull},
    {Scheme::kRap, 32, 96, 24301, 0x7af384ec2827ffa5ull},
    {Scheme::kRap, 64, 64, 1, 0x53aaa816914ce625ull},
    {Scheme::kRap, 64, 64, 24301, 0x7ced5bd5b60f1fa5ull},
    {Scheme::kRap, 64, 192, 1, 0xed9f7da5b97b66a5ull},
    {Scheme::kRap, 64, 192, 24301, 0x19915a838d605fa5ull},
    {Scheme::kPad, 1, 1, 1, 0xa8c7f832281a39c5ull},
    {Scheme::kPad, 1, 1, 24301, 0xa8c7f832281a39c5ull},
    {Scheme::kPad, 1, 3, 1, 0x70c9b82103059f06ull},
    {Scheme::kPad, 1, 3, 24301, 0x70c9b82103059f06ull},
    {Scheme::kPad, 12, 12, 1, 0x5ab13528699510a5ull},
    {Scheme::kPad, 12, 12, 24301, 0x5ab13528699510a5ull},
    {Scheme::kPad, 12, 36, 1, 0x47c9d07829dbc815ull},
    {Scheme::kPad, 12, 36, 24301, 0x47c9d07829dbc815ull},
    {Scheme::kPad, 16, 16, 1, 0xa398a20266c3fb25ull},
    {Scheme::kPad, 16, 16, 24301, 0xa398a20266c3fb25ull},
    {Scheme::kPad, 16, 48, 1, 0x4160f528e555a3e5ull},
    {Scheme::kPad, 16, 48, 24301, 0x4160f528e555a3e5ull},
    {Scheme::kPad, 24, 24, 1, 0x4fd7d443ce381945ull},
    {Scheme::kPad, 24, 24, 24301, 0x4fd7d443ce381945ull},
    {Scheme::kPad, 24, 72, 1, 0x436cdc9c9fb2c025ull},
    {Scheme::kPad, 24, 72, 24301, 0x436cdc9c9fb2c025ull},
    {Scheme::kPad, 32, 32, 1, 0xd7ae8b78e23a46a5ull},
    {Scheme::kPad, 32, 32, 24301, 0xd7ae8b78e23a46a5ull},
    {Scheme::kPad, 32, 96, 1, 0x93f94ad7fec86365ull},
    {Scheme::kPad, 32, 96, 24301, 0x93f94ad7fec86365ull},
    {Scheme::kPad, 64, 64, 1, 0x0e4e8eb6b1578a25ull},
    {Scheme::kPad, 64, 64, 24301, 0x0e4e8eb6b1578a25ull},
    {Scheme::kPad, 64, 192, 1, 0xb9d43526c5a4b325ull},
    {Scheme::kPad, 64, 192, 24301, 0xb9d43526c5a4b325ull},
};

std::uint64_t translate_digest(const AddressMap& map) {
  std::uint64_t hash = util::kFnvOffsetBasis;
  for (std::uint64_t a = 0; a < map.size(); ++a) {
    hash = util::fnv1a_u64(map.translate(a), hash);
  }
  return hash;
}

TEST(Mapping2dPins, FullDomainDigestsAreUnchanged) {
  for (const MatrixPin& pin : kMatrixPins) {
    const auto map = make_matrix_map(pin.scheme, pin.width, pin.rows, pin.seed);
    EXPECT_EQ(translate_digest(*map), pin.digest)
        << scheme_name(pin.scheme) << " w=" << pin.width
        << " rows=" << pin.rows << " seed=" << pin.seed;
  }
}

}  // namespace
}  // namespace rapsim::core
