// Validation of Theorem 2: the measured expected congestion of RAP under
// random and adversarial access, swept over w, against the proof's
// envelope E[C] <= 2(3 ln w / ln ln w + 1/2) and the growth rate
// ln w / ln ln w itself.
//
//   $ theorem2_bound_sweep [--widths=8,16,32,64,128,256] [--trials=5000]

#include <cmath>
#include <cstdio>
#include <iostream>

#include "access/montecarlo.hpp"
#include "core/factory.hpp"
#include "core/theory.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv);
  const auto widths = args.get_uint_list("widths", {8, 16, 32, 64, 128, 256});
  const std::uint64_t trials = args.get_uint("trials", 5000);
  const std::uint64_t seed = args.get_uint("seed", 2);

  std::printf(
      "== Theorem 2: measured RAP congestion vs the proof envelope "
      "(%llu trials) ==\n\n",
      static_cast<unsigned long long>(trials));

  util::TextTable table;
  table.row()
      .add("w")
      .add("E[C] random")
      .add("E[C] malicious")
      .add("max observed")
      .add("lnw/lnlnw")
      .add("Gonnet")
      .add("envelope")
      .add("P[C>=2T(w)] measured")
      .add("union bound 2/w");

  for (const auto w32 : widths) {
    const auto w = static_cast<std::uint32_t>(w32);
    const auto rand = access::estimate_congestion_2d(
        core::Scheme::kRap, access::Pattern2d::kRandom, w, trials, seed);
    const auto mal = access::estimate_congestion_2d(
        core::Scheme::kRap, access::Pattern2d::kMalicious, w, trials, seed);
    const auto tally = access::congestion_distribution_2d(
        core::Scheme::kRap, access::Pattern2d::kMalicious, w,
        std::min<std::uint64_t>(trials, 4000), seed);
    const auto tail_threshold =
        static_cast<std::uint64_t>(2.0 * core::lemma4_threshold(w));
    const double lw = std::log(static_cast<double>(w));
    table.row()
        .add(w32)
        .add(rand.mean, 3)
        .add(mal.mean, 3)
        .add(static_cast<std::uint64_t>(std::max(rand.max, mal.max)))
        .add(lw / std::log(lw), 3)
        .add(core::gonnet_expected_max_load(w), 3)
        .add(core::theorem2_expectation_bound(w), 2)
        .add(tally.tail_at_least(tail_threshold), 5)
        .add(2.0 / w, 5);
  }
  table.print(std::cout, args.get_table_style());
  std::printf(
      "\nBoth measured expectations must stay below the envelope for every\n"
      "w, and grow like ln w / ln ln w (ratios between consecutive rows\n"
      "shrink toward 1); the Random column tracks Gonnet's Gamma^-1(w)-3/2\n"
      "law. Contiguous/stride columns are omitted: they are\n"
      "deterministically 1 (tested in tests/properties_test.cpp).\n");
  return 0;
}
