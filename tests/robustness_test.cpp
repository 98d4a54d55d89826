// Robustness and edge-case tests across modules: empty inputs, degenerate
// sizes, odd widths, and statistical sanity of the Monte-Carlo plumbing.

#include <gtest/gtest.h>

#include "access/montecarlo.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "gpu/register_pack.hpp"
#include "util/table.hpp"

#include <set>

namespace rapsim {
namespace {

using core::Scheme;

TEST(Robustness, EmptyTableRenders) {
  util::TextTable t;
  EXPECT_EQ(t.render(util::TableStyle::kAscii), "");
  EXPECT_EQ(t.render(util::TableStyle::kCsv), "");
  EXPECT_EQ(t.render(util::TableStyle::kMarkdown), "");
}

TEST(Robustness, PackedShiftsEmptyInput) {
  const std::vector<std::uint32_t> empty;
  const gpu::PackedShifts packed(empty, 32);
  EXPECT_EQ(packed.size(), 0u);
  EXPECT_TRUE(packed.words().empty());
}

TEST(Robustness, WidthOneMappingsDegradeGracefully) {
  // w = 1: a single bank; every access has congestion = unique requests.
  for (const Scheme s : {Scheme::kRaw, Scheme::kRas, Scheme::kRap,
                         Scheme::kPad}) {
    const auto map = core::make_matrix_map(s, 1, 4, 1);
    const std::vector<std::uint64_t> addrs = {0, 1, 2, 3};
    EXPECT_EQ(core::congestion_value(addrs, *map), 4u) << core::scheme_name(s);
  }
}

TEST(Robustness, OddWidthPadDiagonalIsConflictFree) {
  // PAD's diagonal weakness (2i + d) disappears for odd w: gcd(2, w) = 1.
  const core::AddressMap map(Scheme::kPad, 15, 15);
  std::vector<std::uint64_t> addrs;
  for (std::uint64_t i = 0; i < 15; ++i) addrs.push_back(map.index(i, i));
  EXPECT_EQ(core::congestion_value(addrs, map), 1u);
}

TEST(Robustness, NonPowerOfTwoWidthsWorkEverywhere) {
  // Nothing in the model requires w to be a power of two.
  for (const Scheme s : {Scheme::kRaw, Scheme::kRas, Scheme::kRap}) {
    const auto est = access::estimate_congestion_2d(
        s, access::Pattern2d::kStride, 24, 500, 3);
    if (s == Scheme::kRap) {
      EXPECT_EQ(est.mean, 1.0);
    } else if (s == Scheme::kRaw) {
      EXPECT_EQ(est.mean, 24.0);
    } else {
      EXPECT_GT(est.mean, 2.0);
      EXPECT_LT(est.mean, 5.0);
    }
  }
}

TEST(Robustness, MonteCarloZeroTrials) {
  const auto est = access::estimate_congestion_2d(
      Scheme::kRap, access::Pattern2d::kRandom, 8, 0, 1);
  EXPECT_EQ(est.trials, 0u);
  EXPECT_EQ(est.mean, 0.0);
}

TEST(Robustness, MonteCarloCiShrinksWithTrials) {
  const auto small = access::estimate_congestion_2d(
      Scheme::kRas, access::Pattern2d::kStride, 16, 500, 11);
  const auto large = access::estimate_congestion_2d(
      Scheme::kRas, access::Pattern2d::kStride, 16, 50000, 11);
  EXPECT_GT(small.ci95, large.ci95);
  // ~sqrt(100) = 10x shrink, allow slack.
  EXPECT_GT(small.ci95 / large.ci95, 5.0);
  // And the two estimates agree within the wider interval.
  EXPECT_NEAR(small.mean, large.mean, 3 * small.ci95);
}

TEST(Robustness, MonteCarloIndependentOfWorkerCount) {
  // The chunk count, not the thread count, defines the streams: forcing
  // one worker must give bit-identical results.
  const auto parallel = access::estimate_congestion_2d(
      Scheme::kRap, access::Pattern2d::kDiagonal, 16, 4000, 17);
  setenv("RAPSIM_THREADS", "1", 1);
  const auto serial = access::estimate_congestion_2d(
      Scheme::kRap, access::Pattern2d::kDiagonal, 16, 4000, 17);
  unsetenv("RAPSIM_THREADS");
  EXPECT_EQ(parallel.mean, serial.mean);
  EXPECT_EQ(parallel.max, serial.max);
}

TEST(Robustness, Table2SchemesAndTable4SchemesAreStable) {
  EXPECT_EQ(core::table2_schemes().size(), 3u);
  EXPECT_EQ(core::table4_schemes().size(), 7u);
  EXPECT_EQ(core::table2_schemes().front(), Scheme::kRaw);
  EXPECT_EQ(core::table4_schemes().back(), Scheme::kRap1PW2R);
}

TEST(Robustness, SchemeNamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (const Scheme s :
       {Scheme::kRaw, Scheme::kRas, Scheme::kRap, Scheme::kRap1P,
        Scheme::kRapR1P, Scheme::kRap3P, Scheme::kRapW2P, Scheme::kRap1PW2R,
        Scheme::kPad}) {
    const std::string name = core::scheme_name(s);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

}  // namespace
}  // namespace rapsim
