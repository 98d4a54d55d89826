// Tests for the access-pattern generators, adversaries and the
// Monte-Carlo congestion estimator.

#include "access/montecarlo.hpp"

#include <gtest/gtest.h>

#include <set>

#include "access/adversary.hpp"
#include "access/pattern2d.hpp"
#include "access/pattern4d.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "core/theory.hpp"

namespace rapsim::access {
namespace {

using core::Scheme;

TEST(Pattern2d, ContiguousIsARow) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 8, 8, 1);
  util::Pcg32 rng(1);
  const auto addrs = warp_addresses_2d(Pattern2d::kContiguous, *map, 3, rng);
  ASSERT_EQ(addrs.size(), 8u);
  for (std::uint32_t t = 0; t < 8; ++t) EXPECT_EQ(addrs[t], map->index(3, t));
}

TEST(Pattern2d, StrideIsAColumn) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 8, 8, 1);
  util::Pcg32 rng(1);
  const auto addrs = warp_addresses_2d(Pattern2d::kStride, *map, 2, rng);
  for (std::uint32_t t = 0; t < 8; ++t) EXPECT_EQ(addrs[t], map->index(t, 2));
}

TEST(Pattern2d, DiagonalHitsOneCellPerRowAndColumn) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 8, 8, 1);
  util::Pcg32 rng(1);
  const auto addrs = warp_addresses_2d(Pattern2d::kDiagonal, *map, 5, rng);
  std::set<std::uint64_t> rows, cols;
  for (const auto a : addrs) {
    rows.insert(a / 8);
    cols.insert(a % 8);
  }
  EXPECT_EQ(rows.size(), 8u);
  EXPECT_EQ(cols.size(), 8u);
}

TEST(Pattern2d, RandomStaysInDomain) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 16, 16, 1);
  util::Pcg32 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    for (const auto a :
         warp_addresses_2d(Pattern2d::kRandom, *map, 0, rng)) {
      EXPECT_LT(a, map->size());
    }
  }
}

TEST(Pattern2d, RejectsTooFewRows) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 8, 4, 1);
  util::Pcg32 rng(1);
  EXPECT_THROW(warp_addresses_2d(Pattern2d::kContiguous, *map, 0, rng),
               std::invalid_argument);
}

TEST(Adversary2d, RawAttackAchievesFullCongestion) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 16, 16, 1);
  util::Pcg32 rng(5);
  const auto addrs = malicious_addresses_2d(*map, rng);
  EXPECT_EQ(core::congestion_value(addrs, *map), 16u);
}

TEST(Adversary2d, AddressesAreDistinct) {
  for (const Scheme s : {Scheme::kRaw, Scheme::kRas, Scheme::kRap}) {
    const auto map = core::make_matrix_map(s, 16, 16, 2);
    util::Pcg32 rng(6);
    const auto addrs = malicious_addresses_2d(*map, rng);
    const std::set<std::uint64_t> unique(addrs.begin(), addrs.end());
    EXPECT_EQ(unique.size(), addrs.size()) << core::scheme_name(s);
  }
}

TEST(Adversary4d, RawAnd1PAttacksAchieveFullCongestion) {
  util::Pcg32 rng(7);
  for (const Scheme s : {Scheme::kRaw, Scheme::kRap1P}) {
    const auto map = core::make_tensor4d_map(s, 8, 3);
    const auto addrs = malicious_addresses_4d(*map, rng);
    EXPECT_EQ(core::congestion_value(addrs, *map), 8u)
        << core::scheme_name(s);
  }
}

TEST(Adversary4d, R1PGroupsOfSixShareABank) {
  // Every group of 6 index-permutation cells must land in a single bank
  // for every random draw.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto map = core::make_tensor4d_map(Scheme::kRapR1P, 12, seed);
    util::Pcg32 rng(8);
    const auto addrs = malicious_addresses_4d(*map, rng);
    ASSERT_EQ(addrs.size(), 12u);
    for (std::size_t g = 0; g + 6 <= 12; g += 6) {
      std::set<std::uint32_t> banks;
      for (std::size_t m = 0; m < 6; ++m) {
        banks.insert(map->bank_of(addrs[g + m]));
      }
      EXPECT_EQ(banks.size(), 1u) << "seed " << seed << " group " << g / 6;
    }
  }
}

TEST(Adversary4d, AddressesAreDistinctForAllSchemes) {
  util::Pcg32 rng(11);
  for (const Scheme s : core::table4_schemes()) {
    const auto map = core::make_tensor4d_map(s, 16, 4);
    const auto addrs = malicious_addresses_4d(*map, rng);
    const std::set<std::uint64_t> unique(addrs.begin(), addrs.end());
    EXPECT_EQ(unique.size(), addrs.size()) << core::scheme_name(s);
    EXPECT_EQ(addrs.size(), 16u);
  }
}

// ---- Monte-Carlo estimator: deterministic cells first.

TEST(MonteCarlo2d, DeterministicCells) {
  // Contiguous is 1 for all schemes; stride is w for RAW and 1 for RAP.
  for (const Scheme s : core::table2_schemes()) {
    const auto c = estimate_congestion_2d(s, Pattern2d::kContiguous, 16,
                                          200, 1);
    EXPECT_EQ(c.mean, 1.0) << core::scheme_name(s);
    EXPECT_EQ(c.max, 1u);
  }
  const auto raw_stride =
      estimate_congestion_2d(Scheme::kRaw, Pattern2d::kStride, 16, 50, 1);
  EXPECT_EQ(raw_stride.mean, 16.0);
  const auto rap_stride =
      estimate_congestion_2d(Scheme::kRap, Pattern2d::kStride, 16, 200, 1);
  EXPECT_EQ(rap_stride.mean, 1.0);
  EXPECT_EQ(rap_stride.max, 1u);
}

TEST(MonteCarlo2d, RawDiagonalIsConflictFree) {
  const auto c =
      estimate_congestion_2d(Scheme::kRaw, Pattern2d::kDiagonal, 32, 100, 2);
  EXPECT_EQ(c.mean, 1.0);
}

TEST(MonteCarlo2d, ReproducibleInSeed) {
  const auto a =
      estimate_congestion_2d(Scheme::kRas, Pattern2d::kStride, 16, 2000, 9);
  const auto b =
      estimate_congestion_2d(Scheme::kRas, Pattern2d::kStride, 16, 2000, 9);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.max, b.max);
}

TEST(MonteCarlo2d, RasStrideMatchesBallsInBins) {
  // RAS stride banks are iid uniform: expectation equals balls-in-bins
  // max load (w balls, w bins).
  const auto c =
      estimate_congestion_2d(Scheme::kRas, Pattern2d::kStride, 32, 20000, 3);
  const double reference = core::expected_max_load_mc(32, 32, 20000, 3);
  EXPECT_NEAR(c.mean, reference, 0.05);
}

TEST(MonteCarlo2d, TrialCountIsHonored) {
  const auto c =
      estimate_congestion_2d(Scheme::kRas, Pattern2d::kRandom, 8, 1234, 5);
  EXPECT_EQ(c.trials, 1234u);
}

TEST(MonteCarlo4d, DeterministicCells) {
  // Table IV guaranteed-1 cells at w = 8.
  const struct {
    Scheme scheme;
    Pattern4d pattern;
  } ones[] = {
      {Scheme::kRap1P, Pattern4d::kStride1},
      {Scheme::kRapR1P, Pattern4d::kStride1},
      {Scheme::kRapR1P, Pattern4d::kStride2},
      {Scheme::kRapR1P, Pattern4d::kStride3},
      {Scheme::kRap3P, Pattern4d::kStride1},
      {Scheme::kRap3P, Pattern4d::kStride2},
      {Scheme::kRap3P, Pattern4d::kStride3},
      {Scheme::kRapW2P, Pattern4d::kStride1},
      {Scheme::kRap1PW2R, Pattern4d::kStride1},
  };
  for (const auto& cell : ones) {
    const auto c =
        estimate_congestion_4d(cell.scheme, cell.pattern, 8, 100, 1);
    EXPECT_EQ(c.mean, 1.0) << core::scheme_name(cell.scheme) << " "
                           << pattern4d_name(cell.pattern);
  }
  // Table IV full-congestion cells.
  const struct {
    Scheme scheme;
    Pattern4d pattern;
  } fulls[] = {
      {Scheme::kRaw, Pattern4d::kStride1},
      {Scheme::kRaw, Pattern4d::kStride2},
      {Scheme::kRaw, Pattern4d::kStride3},
      {Scheme::kRap1P, Pattern4d::kStride2},
      {Scheme::kRap1P, Pattern4d::kStride3},
  };
  for (const auto& cell : fulls) {
    const auto c =
        estimate_congestion_4d(cell.scheme, cell.pattern, 8, 100, 1);
    EXPECT_EQ(c.mean, 8.0) << core::scheme_name(cell.scheme) << " "
                           << pattern4d_name(cell.pattern);
  }
}

TEST(MonteCarlo4d, R1PMaliciousBeatsGenericAdversary) {
  const auto r1p = estimate_congestion_4d(Scheme::kRapR1P,
                                          Pattern4d::kMalicious, 32, 2000, 2);
  const auto p3 = estimate_congestion_4d(Scheme::kRap3P,
                                         Pattern4d::kMalicious, 32, 2000, 2);
  // The structured attack pins groups of 6 in single banks: congestion is
  // at least 6 every trial; 3P stays near balls-in-bins (~3.5).
  EXPECT_GE(r1p.mean, 6.0);
  EXPECT_LT(p3.mean, 5.0);
}

TEST(Distribution2d, TailRespectsLemma4UnionBound) {
  // Lemma 4 + union bound: P[half-warp congestion >= T(w)] <= 1/w, so a
  // full warp (sum of two halves) exceeds 2*T(w) with probability <= 2/w.
  // The measured tail should be far below that (the bound is loose).
  for (const std::uint32_t w : {16u, 32u, 64u}) {
    const auto tally = congestion_distribution_2d(
        Scheme::kRap, Pattern2d::kMalicious, w, 4000, 13);
    const auto threshold = static_cast<std::uint64_t>(
        2.0 * core::lemma4_threshold(w));
    EXPECT_LE(tally.tail_at_least(threshold), 2.0 / w) << "w = " << w;
  }
}

TEST(Distribution2d, HistogramSumsToTrials) {
  const auto tally = congestion_distribution_2d(
      Scheme::kRas, Pattern2d::kStride, 16, 1000, 3);
  EXPECT_EQ(tally.count(), 1000u);
  EXPECT_GE(tally.min(), 1u);
  EXPECT_LE(tally.max(), 16u);
  // Mean consistent with the parallel estimator.
  const auto est = estimate_congestion_2d(Scheme::kRas, Pattern2d::kStride,
                                          16, 20000, 3);
  EXPECT_NEAR(tally.mean(), est.mean, 0.15);
}

TEST(AdversarySearch, FindsStrideAttackAgainstRaw) {
  // Against RAW the hill-climber should discover a same-bank placement
  // scoring well above random (~w/4 at least in few iterations).
  const auto result = search_adversary(
      [](std::uint64_t) {
        return std::make_unique<core::AddressMap>(core::Scheme::kRaw, 8, 8);
      },
      8, 64, 300, 1, 42);
  EXPECT_GE(result.mean_congestion, 4.0);
  EXPECT_EQ(result.addresses.size(), 8u);
}

}  // namespace
}  // namespace rapsim::access
