// Bit-exact pins of the Monte-Carlo estimators. The values were captured
// from the sort-based tally with one freshly built map per trial; any
// later implementation (in-place redraw, allocation-free tally, faster
// bounded draws) must reproduce every draw, so every field is compared
// with EXPECT_EQ, doubles included.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "access/montecarlo.hpp"

namespace rapsim::access {
namespace {

using S = core::Scheme;

template <typename Pattern>
struct GoldenRow {
  S scheme;
  Pattern pattern;
  std::uint32_t width;
  double mean;
  double ci95;
  std::uint32_t min;
  std::uint32_t max;
};

// profile_congestion_2d: the estimate plus the sum over banks of
// (bank + 1) * bank_requests[bank].
struct GoldenProfile {
  S scheme;
  Pattern2d pattern;
  std::uint32_t width;
  double mean;
  double ci95;
  std::uint32_t min;
  std::uint32_t max;
  std::uint64_t weighted_bank_requests;
};

void expect_estimate(const CongestionEstimate& got, double mean, double ci95,
                     std::uint32_t min, std::uint32_t max,
                     std::uint64_t trials) {
  EXPECT_EQ(got.mean, mean);
  EXPECT_EQ(got.ci95, ci95);
  EXPECT_EQ(got.min, min);
  EXPECT_EQ(got.max, max);
  EXPECT_EQ(got.trials, trials);
}

// estimate_congestion_2d(scheme, pattern, width, 500 trials, seed 7).
TEST(MonteCarloGolden, Estimate2dIsBitExact) {
  using P = Pattern2d;
  const GoldenRow<Pattern2d> kRows[] = {
      {S::kRaw, P::kContiguous, 16, 1, 0, 1, 1},
      {S::kRaw, P::kContiguous, 32, 1, 0, 1, 1},
      {S::kRaw, P::kContiguous, 64, 1, 0, 1, 1},
      {S::kRaw, P::kStride, 16, 16, 0, 16, 16},
      {S::kRaw, P::kStride, 32, 32, 0, 32, 32},
      {S::kRaw, P::kStride, 64, 64, 0, 64, 64},
      {S::kRaw, P::kDiagonal, 16, 1, 0, 1, 1},
      {S::kRaw, P::kDiagonal, 32, 1, 0, 1, 1},
      {S::kRaw, P::kDiagonal, 64, 1, 0, 1, 1},
      {S::kRaw, P::kRandom, 16, 2.9259999999999997, 0.060058118118234499, 2, 6},
      {S::kRaw, P::kRandom, 32, 3.4780000000000002, 0.062136701477798775, 2, 6},
      {S::kRaw, P::kRandom, 64, 3.8800000000000003, 0.064333240643569378, 3, 7},
      {S::kRaw, P::kMalicious, 16, 16, 0, 16, 16},
      {S::kRaw, P::kMalicious, 32, 32, 0, 32, 32},
      {S::kRaw, P::kMalicious, 64, 64, 0, 64, 64},
      {S::kRas, P::kContiguous, 16, 1, 0, 1, 1},
      {S::kRas, P::kContiguous, 32, 1, 0, 1, 1},
      {S::kRas, P::kContiguous, 64, 1, 0, 1, 1},
      {S::kRas, P::kStride, 16, 3.0459999999999994, 0.065182302920563165, 2, 5},
      {S::kRas, P::kStride, 32, 3.4940000000000002, 0.065774877223355524, 2, 6},
      {S::kRas, P::kStride, 64, 3.9660000000000002, 0.068463455289814568, 3, 7},
      {S::kRas, P::kDiagonal, 16, 3.0300000000000002, 0.065254073499027107, 2, 7},
      {S::kRas, P::kDiagonal, 32, 3.4960000000000009, 0.061917511458798952, 2, 6},
      {S::kRas, P::kDiagonal, 64, 3.9780000000000006, 0.062136701477798803, 3, 7},
      {S::kRas, P::kRandom, 16, 2.9619999999999989, 0.063061530050774126, 2, 6},
      {S::kRas, P::kRandom, 32, 3.4180000000000006, 0.06273840912199094, 2, 7},
      {S::kRas, P::kRandom, 64, 3.8699999999999992, 0.06734421732572464, 3, 8},
      {S::kRas, P::kMalicious, 16, 3.032, 0.060977353817274767, 2, 6},
      {S::kRas, P::kMalicious, 32, 3.524, 0.068720479373842722, 2, 7},
      {S::kRas, P::kMalicious, 64, 3.968, 0.065599779460991034, 3, 7},
      {S::kRap, P::kContiguous, 16, 1, 0, 1, 1},
      {S::kRap, P::kContiguous, 32, 1, 0, 1, 1},
      {S::kRap, P::kContiguous, 64, 1, 0, 1, 1},
      {S::kRap, P::kStride, 16, 1, 0, 1, 1},
      {S::kRap, P::kStride, 32, 1, 0, 1, 1},
      {S::kRap, P::kStride, 64, 1, 0, 1, 1},
      {S::kRap, P::kDiagonal, 16, 3.1860000000000008, 0.067703586049247449, 2, 6},
      {S::kRap, P::kDiagonal, 32, 3.6159999999999992, 0.067768369942986365, 2, 7},
      {S::kRap, P::kDiagonal, 64, 4.024, 0.069278353454124669, 3, 7},
      {S::kRap, P::kRandom, 16, 2.9019999999999992, 0.060049913667406085, 2, 5},
      {S::kRap, P::kRandom, 32, 3.4400000000000004, 0.063173988203778481, 2, 7},
      {S::kRap, P::kRandom, 64, 3.8679999999999999, 0.064152048243119833, 2, 6},
      {S::kRap, P::kMalicious, 16, 3.0800000000000001, 0.06598732130603796, 2, 5},
      {S::kRap, P::kMalicious, 32, 3.5399999999999987, 0.067760190132064038, 2, 8},
      {S::kRap, P::kMalicious, 64, 3.9540000000000002, 0.065653037946336992, 2, 7},
      {S::kPad, P::kContiguous, 16, 1, 0, 1, 1},
      {S::kPad, P::kContiguous, 32, 1, 0, 1, 1},
      {S::kPad, P::kContiguous, 64, 1, 0, 1, 1},
      {S::kPad, P::kStride, 16, 1, 0, 1, 1},
      {S::kPad, P::kStride, 32, 1, 0, 1, 1},
      {S::kPad, P::kStride, 64, 1, 0, 1, 1},
      {S::kPad, P::kDiagonal, 16, 2, 0, 2, 2},
      {S::kPad, P::kDiagonal, 32, 2, 0, 2, 2},
      {S::kPad, P::kDiagonal, 64, 2, 0, 2, 2},
      {S::kPad, P::kRandom, 16, 2.9079999999999995, 0.063486162120272513, 2, 7},
      {S::kPad, P::kRandom, 32, 3.4260000000000002, 0.062569333060848248, 2, 7},
      {S::kPad, P::kRandom, 64, 3.8460000000000005, 0.064374153914318513, 2, 7},
      {S::kPad, P::kMalicious, 16, 16, 0, 16, 16},
      {S::kPad, P::kMalicious, 32, 32, 0, 32, 32},
      {S::kPad, P::kMalicious, 64, 64, 0, 64, 64},
  };
  for (const auto& row : kRows) {
    SCOPED_TRACE(std::string(core::scheme_name(row.scheme)) + " " +
                 pattern2d_name(row.pattern) + " w" +
                 std::to_string(row.width));
    expect_estimate(
        estimate_congestion_2d(row.scheme, row.pattern, row.width, 500, 7),
        row.mean, row.ci95, row.min, row.max, 500);
  }
}

// estimate_congestion_4d(scheme, pattern, width, 200 trials, seed 11).
TEST(MonteCarloGolden, Estimate4dIsBitExact) {
  using P = Pattern4d;
  const GoldenRow<Pattern4d> kRows[] = {
      {S::kRaw, P::kContiguous, 16, 1, 0, 1, 1},
      {S::kRaw, P::kContiguous, 32, 1, 0, 1, 1},
      {S::kRaw, P::kContiguous, 64, 1, 0, 1, 1},
      {S::kRaw, P::kStride1, 16, 16, 0, 16, 16},
      {S::kRaw, P::kStride1, 32, 32, 0, 32, 32},
      {S::kRaw, P::kStride1, 64, 64, 0, 64, 64},
      {S::kRaw, P::kStride2, 16, 16, 0, 16, 16},
      {S::kRaw, P::kStride2, 32, 32, 0, 32, 32},
      {S::kRaw, P::kStride2, 64, 64, 0, 64, 64},
      {S::kRaw, P::kStride3, 16, 16, 0, 16, 16},
      {S::kRaw, P::kStride3, 32, 32, 0, 32, 32},
      {S::kRaw, P::kStride3, 64, 64, 0, 64, 64},
      {S::kRaw, P::kRandom, 16, 3.0049999999999994, 0.097750990176069363, 2, 6},
      {S::kRaw, P::kRandom, 32, 3.5049999999999999, 0.10303885104231607, 2, 6},
      {S::kRaw, P::kRandom, 64, 3.8899999999999997, 0.10921659453861882, 2, 7},
      {S::kRaw, P::kMalicious, 16, 16, 0, 16, 16},
      {S::kRaw, P::kMalicious, 32, 32, 0, 32, 32},
      {S::kRaw, P::kMalicious, 64, 64, 0, 64, 64},
      {S::kRas, P::kContiguous, 16, 1, 0, 1, 1},
      {S::kRas, P::kContiguous, 32, 1, 0, 1, 1},
      {S::kRas, P::kContiguous, 64, 1, 0, 1, 1},
      {S::kRas, P::kStride1, 16, 3.1149999999999998, 0.10320732999561667, 2, 6},
      {S::kRas, P::kStride1, 32, 3.5299999999999994, 0.10664095963257636, 2, 6},
      {S::kRas, P::kStride1, 64, 3.9449999999999994, 0.097454309871666575, 2, 6},
      {S::kRas, P::kStride2, 16, 3.1449999999999987, 0.1079789287093835, 2, 6},
      {S::kRas, P::kStride2, 32, 3.48, 0.10300371657440667, 2, 6},
      {S::kRas, P::kStride2, 64, 3.9199999999999999, 0.10971918839249375, 3, 6},
      {S::kRas, P::kStride3, 16, 3.0300000000000007, 0.10201503879675543, 2, 5},
      {S::kRas, P::kStride3, 32, 3.5799999999999996, 0.10430737723058525, 2, 6},
      {S::kRas, P::kStride3, 64, 3.9199999999999995, 0.10053779408859637, 3, 6},
      {S::kRas, P::kRandom, 16, 3.0399999999999991, 0.10194878603923822, 2, 6},
      {S::kRas, P::kRandom, 32, 3.4099999999999997, 0.096451280174169693, 2, 6},
      {S::kRas, P::kRandom, 64, 3.9300000000000002, 0.1115945676889715, 2, 7},
      {S::kRas, P::kMalicious, 16, 3.0400000000000009, 0.095090685095648539, 2, 5},
      {S::kRas, P::kMalicious, 32, 3.5999999999999996, 0.10489794034892788, 2, 6},
      {S::kRas, P::kMalicious, 64, 3.895, 0.10797892870938351, 3, 6},
      {S::kRap1P, P::kContiguous, 16, 1, 0, 1, 1},
      {S::kRap1P, P::kContiguous, 32, 1, 0, 1, 1},
      {S::kRap1P, P::kContiguous, 64, 1, 0, 1, 1},
      {S::kRap1P, P::kStride1, 16, 1, 0, 1, 1},
      {S::kRap1P, P::kStride1, 32, 1, 0, 1, 1},
      {S::kRap1P, P::kStride1, 64, 1, 0, 1, 1},
      {S::kRap1P, P::kStride2, 16, 16, 0, 16, 16},
      {S::kRap1P, P::kStride2, 32, 32, 0, 32, 32},
      {S::kRap1P, P::kStride2, 64, 64, 0, 64, 64},
      {S::kRap1P, P::kStride3, 16, 16, 0, 16, 16},
      {S::kRap1P, P::kStride3, 32, 32, 0, 32, 32},
      {S::kRap1P, P::kStride3, 64, 64, 0, 64, 64},
      {S::kRap1P, P::kRandom, 16, 3.0850000000000004, 0.098027081685208767, 2, 6},
      {S::kRap1P, P::kRandom, 32, 3.5099999999999985, 0.08563753931952689, 2, 6},
      {S::kRap1P, P::kRandom, 64, 3.9599999999999995, 0.10475061170831571, 3, 6},
      {S::kRap1P, P::kMalicious, 16, 16, 0, 16, 16},
      {S::kRap1P, P::kMalicious, 32, 32, 0, 32, 32},
      {S::kRap1P, P::kMalicious, 64, 64, 0, 64, 64},
      {S::kRapR1P, P::kContiguous, 16, 1, 0, 1, 1},
      {S::kRapR1P, P::kContiguous, 32, 1, 0, 1, 1},
      {S::kRapR1P, P::kContiguous, 64, 1, 0, 1, 1},
      {S::kRapR1P, P::kStride1, 16, 1, 0, 1, 1},
      {S::kRapR1P, P::kStride1, 32, 1, 0, 1, 1},
      {S::kRapR1P, P::kStride1, 64, 1, 0, 1, 1},
      {S::kRapR1P, P::kStride2, 16, 1, 0, 1, 1},
      {S::kRapR1P, P::kStride2, 32, 1, 0, 1, 1},
      {S::kRapR1P, P::kStride2, 64, 1, 0, 1, 1},
      {S::kRapR1P, P::kStride3, 16, 1, 0, 1, 1},
      {S::kRapR1P, P::kStride3, 32, 1, 0, 1, 1},
      {S::kRapR1P, P::kStride3, 64, 1, 0, 1, 1},
      {S::kRapR1P, P::kRandom, 16, 3.0699999999999994, 0.10896885729095486, 2, 7},
      {S::kRapR1P, P::kRandom, 32, 3.5650000000000004, 0.099783716861789468, 2, 6},
      {S::kRapR1P, P::kRandom, 64, 3.9600000000000004, 0.11014064649370026, 3, 7},
      {S::kRapR1P, P::kMalicious, 16, 6.7500000000000018, 0.17779526365709092, 6, 12},
      {S::kRapR1P, P::kMalicious, 32, 7.7050000000000001, 0.36754940706409239, 6, 18},
      {S::kRapR1P, P::kMalicious, 64, 9.7949999999999999, 0.4168910342911703, 6, 18},
      {S::kRap3P, P::kContiguous, 16, 1, 0, 1, 1},
      {S::kRap3P, P::kContiguous, 32, 1, 0, 1, 1},
      {S::kRap3P, P::kContiguous, 64, 1, 0, 1, 1},
      {S::kRap3P, P::kStride1, 16, 1, 0, 1, 1},
      {S::kRap3P, P::kStride1, 32, 1, 0, 1, 1},
      {S::kRap3P, P::kStride1, 64, 1, 0, 1, 1},
      {S::kRap3P, P::kStride2, 16, 1, 0, 1, 1},
      {S::kRap3P, P::kStride2, 32, 1, 0, 1, 1},
      {S::kRap3P, P::kStride2, 64, 1, 0, 1, 1},
      {S::kRap3P, P::kStride3, 16, 1, 0, 1, 1},
      {S::kRap3P, P::kStride3, 32, 1, 0, 1, 1},
      {S::kRap3P, P::kStride3, 64, 1, 0, 1, 1},
      {S::kRap3P, P::kRandom, 16, 3.0499999999999994, 0.094999285900516331, 2, 5},
      {S::kRap3P, P::kRandom, 32, 3.5250000000000008, 0.10013134590207405, 2, 6},
      {S::kRap3P, P::kRandom, 64, 4.044999999999999, 0.11649290443593378, 2, 7},
      {S::kRap3P, P::kMalicious, 16, 3.0250000000000004, 0.10529973967621858, 2, 6},
      {S::kRap3P, P::kMalicious, 32, 3.5499999999999998, 0.10739856731496247, 2, 6},
      {S::kRap3P, P::kMalicious, 64, 3.9599999999999995, 0.10289120565434648, 3, 8},
      {S::kRap1PW2R, P::kContiguous, 16, 1, 0, 1, 1},
      {S::kRap1PW2R, P::kContiguous, 32, 1, 0, 1, 1},
      {S::kRap1PW2R, P::kContiguous, 64, 1, 0, 1, 1},
      {S::kRap1PW2R, P::kStride1, 16, 1, 0, 1, 1},
      {S::kRap1PW2R, P::kStride1, 32, 1, 0, 1, 1},
      {S::kRap1PW2R, P::kStride1, 64, 1, 0, 1, 1},
      {S::kRap1PW2R, P::kStride2, 16, 3.1250000000000004, 0.11367482053700634, 2, 6},
      {S::kRap1PW2R, P::kStride2, 32, 3.5499999999999994, 0.1073985673149625, 2, 6},
      {S::kRap1PW2R, P::kStride2, 64, 3.9799999999999991, 0.10393657130322972, 3, 6},
      {S::kRap1PW2R, P::kStride3, 16, 3.0799999999999996, 0.10883590894266876, 2, 6},
      {S::kRap1PW2R, P::kStride3, 32, 3.5950000000000006, 0.10219228992738648, 2, 6},
      {S::kRap1PW2R, P::kStride3, 64, 4.0000000000000009, 0.11789510711393854, 3, 7},
      {S::kRap1PW2R, P::kRandom, 16, 3.0200000000000009, 0.10758713565661077, 2, 6},
      {S::kRap1PW2R, P::kRandom, 32, 3.4549999999999992, 0.088745493480318904, 2, 5},
      {S::kRap1PW2R, P::kRandom, 64, 3.915, 0.098027081685208767, 3, 6},
      {S::kRap1PW2R, P::kMalicious, 16, 3.1600000000000006, 0.10621470244309579, 2, 5},
      {S::kRap1PW2R, P::kMalicious, 32, 3.5, 0.11115257294530705, 2, 7},
      {S::kRap1PW2R, P::kMalicious, 64, 3.9550000000000005, 0.10238101955845695, 3, 7},
  };
  for (const auto& row : kRows) {
    SCOPED_TRACE(std::string(core::scheme_name(row.scheme)) + " " +
                 pattern4d_name(row.pattern) + " w" +
                 std::to_string(row.width));
    expect_estimate(
        estimate_congestion_4d(row.scheme, row.pattern, row.width, 200, 11),
        row.mean, row.ci95, row.min, row.max, 200);
  }
}

// profile_congestion_2d(scheme, pattern, width, 300 trials, seed 5).
TEST(MonteCarloGolden, ProfileIsBitExact) {
  using P = Pattern2d;
  const GoldenProfile kRows[] = {
      {S::kRaw, P::kStride, 16, 16, 0, 16, 16, 39072ull},
      {S::kRaw, P::kStride, 32, 32, 0, 32, 32, 160576ull},
      {S::kRaw, P::kStride, 64, 64, 0, 64, 64, 628352ull},
      {S::kRaw, P::kRandom, 16, 2.8700000000000019, 0.078511904528748538, 2, 5, 39426ull},
      {S::kRaw, P::kRandom, 32, 3.416666666666667, 0.079860404032867413, 2, 6, 156099ull},
      {S::kRaw, P::kRandom, 64, 3.9000000000000004, 0.085075243763678254, 2, 8, 618599ull},
      {S::kRaw, P::kMalicious, 16, 16, 0, 16, 16, 38176ull},
      {S::kRaw, P::kMalicious, 32, 32, 0, 32, 32, 158272ull},
      {S::kRaw, P::kMalicious, 64, 64, 0, 64, 64, 621696ull},
      {S::kRas, P::kStride, 16, 3.0933333333333297, 0.084160846868783057, 2, 6, 40820ull},
      {S::kRas, P::kStride, 32, 3.5633333333333335, 0.085776281739793389, 2, 7, 159178ull},
      {S::kRas, P::kStride, 64, 3.950000000000002, 0.08074925059449102, 2, 6, 624433ull},
      {S::kRas, P::kRandom, 16, 2.8733333333333322, 0.072634291009120597, 2, 5, 39826ull},
      {S::kRas, P::kRandom, 32, 3.4133333333333331, 0.08297186227507658, 2, 6, 154820ull},
      {S::kRas, P::kRandom, 64, 3.8033333333333323, 0.077265575590373836, 3, 6, 618673ull},
      {S::kRas, P::kMalicious, 16, 3.0200000000000005, 0.082747888318565055, 2, 6, 40833ull},
      {S::kRas, P::kMalicious, 32, 3.5266666666666677, 0.082464468796556112, 2, 7, 159696ull},
      {S::kRas, P::kMalicious, 64, 4.0366666666666688, 0.079235882175656927, 3, 7, 621101ull},
      {S::kRap, P::kStride, 16, 1, 0, 1, 1, 40800ull},
      {S::kRap, P::kStride, 32, 1, 0, 1, 1, 158400ull},
      {S::kRap, P::kStride, 64, 1, 0, 1, 1, 624000ull},
      {S::kRap, P::kRandom, 16, 2.9433333333333356, 0.077442743885101098, 2, 6, 39102ull},
      {S::kRap, P::kRandom, 32, 3.4700000000000002, 0.079271907493927221, 2, 6, 155617ull},
      {S::kRap, P::kRandom, 64, 3.9800000000000022, 0.083263842241090208, 3, 6, 619676ull},
      {S::kRap, P::kMalicious, 16, 3.0933333333333333, 0.08517251289474588, 2, 6, 41005ull},
      {S::kRap, P::kMalicious, 32, 3.4300000000000024, 0.08055809013555143, 2, 6, 158054ull},
      {S::kRap, P::kMalicious, 64, 3.9633333333333316, 0.086472461940775361, 3, 6, 625980ull},
  };
  for (const GoldenProfile& row : kRows) {
    SCOPED_TRACE(std::string(core::scheme_name(row.scheme)) + " " +
                 pattern2d_name(row.pattern) + " w" +
                 std::to_string(row.width));
    const CongestionProfile p =
        profile_congestion_2d(row.scheme, row.pattern, row.width, 300, 5);
    expect_estimate(p.estimate, row.mean, row.ci95, row.min, row.max, 300);
    std::uint64_t weighted = 0;
    for (std::size_t b = 0; b < p.bank_requests.size(); ++b) {
      weighted += (b + 1) * p.bank_requests[b];
    }
    EXPECT_EQ(weighted, row.weighted_bank_requests);
  }
}

}  // namespace
}  // namespace rapsim::access
