// Unit + property tests for the 4-D mappings (Section VII).

#include "core/mapping.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "access/adversary.hpp"
#include "access/pattern4d.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "core/permutation.hpp"
#include "util/hash.hpp"

namespace rapsim::core {
namespace {

/// Shift a 4-D map applies to the innermost coordinate of cell (i, j, k, *).
std::uint32_t shift(const AddressMap& map, std::uint32_t i, std::uint32_t j,
                    std::uint32_t k) {
  return map.row_term(index(map.width(), {i, j, k, 0}) / map.width());
}

/// The words of several permutations back to back.
std::vector<std::uint32_t> words_of(std::initializer_list<Permutation> perms) {
  std::vector<std::uint32_t> words;
  for (const Permutation& p : perms) {
    words.insert(words.end(), p.image().begin(), p.image().end());
  }
  return words;
}

TEST(Tensor4d, IndexDecomposeRoundTrip) {
  const auto map = make_tensor4d_map(Scheme::kRaw, 8, 0);
  for (std::uint32_t i : {0u, 3u, 7u}) {
    for (std::uint32_t j : {0u, 5u}) {
      for (std::uint32_t k : {1u, 6u}) {
        for (std::uint32_t l : {0u, 7u}) {
          const Index4d c{i, j, k, l};
          EXPECT_EQ(decompose(map->width(), index(map->width(), c)), c);
        }
      }
    }
  }
}

TEST(Tensor4d, SizeIsWidthToTheFourth) {
  const auto map = make_tensor4d_map(Scheme::kRaw, 8, 0);
  EXPECT_EQ(map->size(), 8ull * 8 * 8 * 8);
}

TEST(Raw4d, BankIsInnermostCoordinate) {
  const auto map = make_tensor4d_map(Scheme::kRaw, 8, 0);
  for (std::uint32_t l = 0; l < 8; ++l) {
    EXPECT_EQ(map->bank_of(index(8, {3, 1, 4, l})), l);
  }
}

TEST(OnePerm, ShiftDependsOnlyOnK) {
  const AddressMap map(Scheme::kRap1P, 8, 512,
                       Permutation({3, 1, 4, 0, 5, 2, 7, 6}).image());
  EXPECT_EQ(shift(map, 0, 0, 2), 4u);
  EXPECT_EQ(shift(map, 7, 5, 2), 4u);  // i, j irrelevant
  EXPECT_EQ(shift(map, 1, 1, 6), 7u);
}

TEST(RepeatedOnePerm, ShiftIsSumOfThreeLookups) {
  const AddressMap map(Scheme::kRapR1P, 8, 512,
                       Permutation({3, 1, 4, 0, 5, 2, 7, 6}).image());
  // f(0, 1, 2) = p[0] + p[1] + p[2] = 3 + 1 + 4 = 8 mod 8 = 0.
  EXPECT_EQ(shift(map, 0, 1, 2), 0u);
  // Index-permutation invariance: f is symmetric in (i, j, k).
  EXPECT_EQ(shift(map, 2, 0, 1), shift(map, 0, 1, 2));
  EXPECT_EQ(shift(map, 1, 2, 0), shift(map, 0, 1, 2));
}

TEST(ThreePerm, UsesAllThreePermutations) {
  const AddressMap map(Scheme::kRap3P, 4, 64,
                       words_of({Permutation({1, 0, 3, 2}),
                                 Permutation({2, 3, 0, 1}),
                                 Permutation({0, 1, 2, 3})}));
  // f(0,0,0) = 1 + 2 + 0 = 3.
  EXPECT_EQ(shift(map, 0, 0, 0), 3u);
  // f(1,2,3) = 0 + 0 + 3 = 3.
  EXPECT_EQ(shift(map, 1, 2, 3), 3u);
  EXPECT_EQ(map.random_words(), 12u);
}

TEST(Factory, RandomWordsMatchTable4) {
  // Table IV "Random numbers" row: RAW 0, RAS w^3, 1P w, R1P w, 3P 3w,
  // w^2P w^3, 1P+w^2R w + w^2.
  const std::uint32_t w = 8;
  EXPECT_EQ(make_tensor4d_map(Scheme::kRaw, w, 1)->random_words(), 0u);
  EXPECT_EQ(make_tensor4d_map(Scheme::kRas, w, 1)->random_words(),
            static_cast<std::uint64_t>(w) * w * w);
  EXPECT_EQ(make_tensor4d_map(Scheme::kRap1P, w, 1)->random_words(), w);
  EXPECT_EQ(make_tensor4d_map(Scheme::kRapR1P, w, 1)->random_words(), w);
  EXPECT_EQ(make_tensor4d_map(Scheme::kRap3P, w, 1)->random_words(), 3u * w);
  EXPECT_EQ(make_tensor4d_map(Scheme::kRapW2P, w, 1)->random_words(),
            static_cast<std::uint64_t>(w) * w * w);
  EXPECT_EQ(make_tensor4d_map(Scheme::kRap1PW2R, w, 1)->random_words(),
            static_cast<std::uint64_t>(w) + w * w);
}

TEST(Factory, Rejects2dSchemeFor4d) {
  EXPECT_THROW(make_tensor4d_map(Scheme::kRap, 8, 1), std::invalid_argument);
}

TEST(Factory, Rejects4dSchemeFor2d) {
  EXPECT_THROW(make_matrix_map(Scheme::kRap3P, 8, 8, 1),
               std::invalid_argument);
}

// ---- Property sweep over all 4-D schemes.

class Mapping4dProperty
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint32_t>> {};

TEST_P(Mapping4dProperty, TranslateIsARowPreservingBijection) {
  const auto [scheme, width] = GetParam();
  const auto map = make_tensor4d_map(scheme, width, 99);
  std::set<std::uint64_t> images;
  for (std::uint64_t a = 0; a < map->size(); ++a) {
    const std::uint64_t phys = map->translate(a);
    ASSERT_LT(phys, map->size());
    EXPECT_EQ(phys / width, a / width) << "innermost row not preserved";
    images.insert(phys);
  }
  EXPECT_EQ(images.size(), map->size());
}

TEST_P(Mapping4dProperty, ContiguousAccessIsConflictFree) {
  const auto [scheme, width] = GetParam();
  const auto map = make_tensor4d_map(scheme, width, 5);
  util::Pcg32 rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const Index4d base{rng.bounded(width), rng.bounded(width),
                       rng.bounded(width), 0};
    std::vector<std::uint64_t> addrs;
    for (std::uint32_t l = 0; l < width; ++l) {
      addrs.push_back(index(width, {base.i, base.j, base.k, l}));
    }
    EXPECT_EQ(congestion_value(addrs, *map), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, Mapping4dProperty,
    ::testing::Combine(::testing::Values(Scheme::kRaw, Scheme::kRas,
                                         Scheme::kRap1P, Scheme::kRapR1P,
                                         Scheme::kRap3P, Scheme::kRapW2P,
                                         Scheme::kRap1PW2R),
                       ::testing::Values(4u, 8u)),
    [](const auto& param_info) {
      std::string name = scheme_name(std::get<0>(param_info.param));
      for (auto& ch : name) {
        if (ch == '+') ch = '_';
      }
      return name + "_w" + std::to_string(std::get<1>(param_info.param));
    });

// Stride conflict-freedom guarantees per scheme (the "1" cells of
// Table IV): R1P and 3P are conflict-free in all three stride directions;
// 1P, w^2P and 1P+w^2R only in stride1 (varying k).

class StrideFree4d
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(StrideFree4d, GuaranteedConflictFreeDirections) {
  const auto [scheme, direction] = GetParam();
  const std::uint32_t w = 8;
  util::Pcg32 rng(3);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto map = make_tensor4d_map(scheme, w, seed);
    const Index4d base{rng.bounded(w), rng.bounded(w), rng.bounded(w),
                       rng.bounded(w)};
    std::vector<std::uint64_t> addrs;
    for (std::uint32_t t = 0; t < w; ++t) {
      Index4d c = base;
      if (direction == 1) c.k = t;
      if (direction == 2) c.j = t;
      if (direction == 3) c.i = t;
      addrs.push_back(index(w, c));
    }
    EXPECT_EQ(congestion_value(addrs, *map), 1u)
        << scheme_name(scheme) << " stride" << direction << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GuaranteedCells, StrideFree4d,
    ::testing::Values(std::make_tuple(Scheme::kRap1P, 1),
                      std::make_tuple(Scheme::kRapR1P, 1),
                      std::make_tuple(Scheme::kRapR1P, 2),
                      std::make_tuple(Scheme::kRapR1P, 3),
                      std::make_tuple(Scheme::kRap3P, 1),
                      std::make_tuple(Scheme::kRap3P, 2),
                      std::make_tuple(Scheme::kRap3P, 3),
                      std::make_tuple(Scheme::kRapW2P, 1),
                      std::make_tuple(Scheme::kRap1PW2R, 1)),
    [](const auto& param_info) {
      std::string name = scheme_name(std::get<0>(param_info.param));
      for (auto& ch : name) {
        if (ch == '+') ch = '_';
      }
      return name + "_stride" + std::to_string(std::get<1>(param_info.param));
    });

// 1P's failure mode: stride2/stride3 put the whole warp in one bank.
TEST(OnePerm, Stride2AndStride3AreFullyCongested) {
  const std::uint32_t w = 8;
  const auto map = make_tensor4d_map(Scheme::kRap1P, w, 11);
  std::vector<std::uint64_t> stride2, stride3;
  for (std::uint32_t t = 0; t < w; ++t) {
    stride2.push_back(index(w, {2, t, 3, 4}));
    stride3.push_back(index(w, {t, 1, 3, 4}));
  }
  EXPECT_EQ(congestion_value(stride2, *map), w);
  EXPECT_EQ(congestion_value(stride3, *map), w);
}

// ---- Full-domain pins: FNV-1a over translate(a) for every a in [0, w^4),
// ---- per scheme x width x seed, recorded from the earlier
// ---- one-class-per-scheme 4-D maps.

struct TensorPin {
  Scheme scheme;
  std::uint32_t width;
  std::uint64_t seed;
  std::uint64_t digest;
};

const TensorPin kTensorPins[] = {
    {Scheme::kRaw, 8, 1, 0x34815615f489cb25ull},
    {Scheme::kRaw, 8, 24301, 0x34815615f489cb25ull},
    {Scheme::kRaw, 12, 1, 0x47660bf153993525ull},
    {Scheme::kRaw, 12, 24301, 0x47660bf153993525ull},
    {Scheme::kRaw, 16, 1, 0xfd127f3e4145bb25ull},
    {Scheme::kRaw, 16, 24301, 0xfd127f3e4145bb25ull},
    {Scheme::kRas, 8, 1, 0xeb20806c71ec0a15ull},
    {Scheme::kRas, 8, 24301, 0xe9664b74feaeaad5ull},
    {Scheme::kRas, 12, 1, 0x44a99cf7bbf65695ull},
    {Scheme::kRas, 12, 24301, 0x403cce07855f446dull},
    {Scheme::kRas, 16, 1, 0xeea0e0663cbba785ull},
    {Scheme::kRas, 16, 24301, 0x486669c3c8899d45ull},
    {Scheme::kRap1P, 8, 1, 0xb09f1838b86be325ull},
    {Scheme::kRap1P, 8, 24301, 0xfcb9ff3d2102eaa5ull},
    {Scheme::kRap1P, 12, 1, 0x99efcd2618f40d75ull},
    {Scheme::kRap1P, 12, 24301, 0x0c49ad5f174961cdull},
    {Scheme::kRap1P, 16, 1, 0x77886d2e5a0ec125ull},
    {Scheme::kRap1P, 16, 24301, 0xcd156da0c1a63725ull},
    {Scheme::kRapR1P, 8, 1, 0x96fb122411811c65ull},
    {Scheme::kRapR1P, 8, 24301, 0xa8b900e4c8237465ull},
    {Scheme::kRapR1P, 12, 1, 0x6fd451087aa8e435ull},
    {Scheme::kRapR1P, 12, 24301, 0xc28fb227deeb26fdull},
    {Scheme::kRapR1P, 16, 1, 0xb8ae3c3e2d09daa5ull},
    {Scheme::kRapR1P, 16, 24301, 0x6f434f174fe1b2e5ull},
    {Scheme::kRap3P, 8, 1, 0x0522a081a980bc05ull},
    {Scheme::kRap3P, 8, 24301, 0x5516e23aee681fc5ull},
    {Scheme::kRap3P, 12, 1, 0x3fd09da1ae6a277dull},
    {Scheme::kRap3P, 12, 24301, 0x1a45be709c7165e5ull},
    {Scheme::kRap3P, 16, 1, 0xfe7f395a3f568225ull},
    {Scheme::kRap3P, 16, 24301, 0x8c9ecbab6aff82a5ull},
    {Scheme::kRapW2P, 8, 1, 0x683616b79b338865ull},
    {Scheme::kRapW2P, 8, 24301, 0x0e8bd052d2839d25ull},
    {Scheme::kRapW2P, 12, 1, 0xcbcad5f86e139765ull},
    {Scheme::kRapW2P, 12, 24301, 0xf4780e0cad662b15ull},
    {Scheme::kRapW2P, 16, 1, 0xcf934b8a67109765ull},
    {Scheme::kRapW2P, 16, 24301, 0xd3c5047869c2fc25ull},
    {Scheme::kRap1PW2R, 8, 1, 0x384d707c98e32225ull},
    {Scheme::kRap1PW2R, 8, 24301, 0xffb8693b79c3c2a5ull},
    {Scheme::kRap1PW2R, 12, 1, 0x0b5f5aa3746d747dull},
    {Scheme::kRap1PW2R, 12, 24301, 0xa0a04b0dfba6cf0dull},
    {Scheme::kRap1PW2R, 16, 1, 0xe0a7a249915f0565ull},
    {Scheme::kRap1PW2R, 16, 24301, 0x99c16079a50d60a5ull},
};

TEST(Mapping4dPins, FullDomainDigestsAreUnchanged) {
  for (const TensorPin& pin : kTensorPins) {
    const auto map = make_tensor4d_map(pin.scheme, pin.width, pin.seed);
    std::uint64_t hash = util::kFnvOffsetBasis;
    for (std::uint64_t a = 0; a < map->size(); ++a) {
      hash = util::fnv1a_u64(map->translate(a), hash);
    }
    EXPECT_EQ(hash, pin.digest) << scheme_name(pin.scheme) << " w="
                                << pin.width << " seed=" << pin.seed;
  }
}

// Redrawing a map in place gives the map the factory draws from that seed.
TEST(Factory, RedrawTensor4dMatchesAFreshMap) {
  for (const Scheme scheme : table4_schemes()) {
    const auto reused = make_tensor4d_map(scheme, 8, 1);
    for (const std::uint64_t seed : {2ull, 77ull}) {
      redraw_tensor4d_map(*reused, seed);
      const auto fresh = make_tensor4d_map(scheme, 8, seed);
      for (std::uint64_t a = 0; a < fresh->size(); ++a) {
        ASSERT_EQ(reused->translate(a), fresh->translate(a))
            << scheme_name(scheme) << " seed=" << seed << " a=" << a;
      }
    }
  }
}

// The 4-D access generators reject a map that is not w^4.
TEST(Tensor4d, WarpGeneratorsRejectNonTensorMaps) {
  const auto map = make_matrix_map(Scheme::kRap, 8, 8, 1);
  util::Pcg32 rng(1);
  EXPECT_THROW((void)access::warp_addresses_4d(access::Pattern4d::kStride1,
                                               *map, rng),
               std::invalid_argument);
  EXPECT_THROW((void)access::malicious_addresses_4d(*map, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace rapsim::core
