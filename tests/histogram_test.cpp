// Tests for the atomic-add op and the privatized-histogram workload.

#include "workloads/histogram.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/factory.hpp"
#include "dmm/machine.hpp"

namespace rapsim::workloads {
namespace {

using core::Scheme;

// ---- kAtomicAdd machine semantics.

TEST(AtomicAdd, SameAddressRequestsSerializeNotMerge) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 4, 4, 1);
  dmm::Dmm machine(dmm::DmmConfig{4, 1}, *map);
  machine.store(15, 0);
  dmm::Kernel k{4, {}, {}};
  dmm::Row ones(4), adds(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    ones[t] = dmm::ThreadOp::store_imm(t, t + 1);
  }
  dmm::Row loads(4);
  for (std::uint32_t t = 0; t < 4; ++t) loads[t] = dmm::ThreadOp::load(t, 0);
  for (std::uint32_t t = 0; t < 4; ++t) {
    adds[t] = dmm::ThreadOp::atomic_add(15, 0);
  }
  k.push(std::move(ones));
  k.push(std::move(loads));
  k.push(std::move(adds));
  dmm::Trace trace;
  machine.run(k, &trace);
  // All four adds land: 1+2+3+4 = 10 (contrast with a CRCW store, where
  // only one would win).
  EXPECT_EQ(machine.load(15), 10u);
  // And the atomic instruction occupied 4 slots (no merging).
  EXPECT_EQ(trace.dispatches.back().stages, 4u);
  EXPECT_EQ(trace.dispatches.back().unique_requests, 4u);
}

TEST(AtomicAdd, DistinctBanksStayParallel) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 4, 4, 1);
  dmm::Dmm machine(dmm::DmmConfig{4, 1}, *map);
  dmm::Kernel k{4, {}, {}};
  dmm::Row adds(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    adds[t] = dmm::ThreadOp::atomic_add(t, 0);  // distinct banks
  }
  k.push(std::move(adds));
  dmm::Trace trace;
  machine.run(k, &trace);
  EXPECT_EQ(trace.dispatches.back().stages, 1u);
}

TEST(AtomicAdd, CannotMixWithOtherClasses) {
  const auto map = core::make_matrix_map(Scheme::kRaw, 4, 4, 1);
  dmm::Dmm machine(dmm::DmmConfig{4, 1}, *map);
  dmm::Kernel k{4, {}, {}};
  dmm::Row mixed(4);
  mixed[0] = dmm::ThreadOp::atomic_add(0);
  mixed[1] = dmm::ThreadOp::load(1);
  k.push(std::move(mixed));
  EXPECT_THROW(machine.run(k), std::invalid_argument);
}

// ---- Histogram workload.

class HistogramCorrectness
    : public ::testing::TestWithParam<std::tuple<Scheme, double>> {};

TEST_P(HistogramCorrectness, CountsMatchHostReference) {
  const auto [scheme, skew] = GetParam();
  const HistogramConfig config{8, 16, 16};
  const auto input = make_input(config, skew, 3);
  const auto report = run_histogram(config, scheme, input, 5);
  EXPECT_TRUE(report.correct) << core::scheme_name(scheme) << " skew " << skew;
  EXPECT_EQ(std::accumulate(report.counts.begin(), report.counts.end(), 0ull),
            input.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HistogramCorrectness,
    ::testing::Combine(::testing::Values(Scheme::kRaw, Scheme::kRas,
                                         Scheme::kRap, Scheme::kPad),
                       ::testing::Values(0.0, 0.5, 1.0)),
    [](const auto& param_info) {
      return std::string(core::scheme_name(std::get<0>(param_info.param))) +
             "_skew" +
             std::to_string(
                 static_cast<int>(std::get<1>(param_info.param) * 100));
    });

TEST(Histogram, ValidatesConfiguration) {
  const HistogramConfig bad{8, 12, 4};  // bins not a multiple of w
  const auto input = make_input(bad, 0.0, 1);
  EXPECT_THROW(static_cast<void>(run_histogram(bad, Scheme::kRaw, input, 1)),
               std::invalid_argument);
  const HistogramConfig good{8, 16, 4};
  std::vector<std::uint32_t> wrong_size(3, 0);
  EXPECT_THROW(
      static_cast<void>(run_histogram(good, Scheme::kRaw, wrong_size, 1)),
      std::invalid_argument);
}

TEST(Histogram, SkewedInputSerializesRawButNotRap) {
  const HistogramConfig config{32, 64, 16};
  const auto skewed = make_input(config, 1.0, 7);

  const auto raw = run_histogram(config, Scheme::kRaw, skewed, 1);
  // Fully skewed: every warp-instruction's 32 atomics hit bank 0.
  EXPECT_EQ(raw.stats.max_congestion, 32u);

  double rap_worst = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto rap = run_histogram(config, Scheme::kRap, skewed, seed);
    EXPECT_TRUE(rap.correct);
    rap_worst = std::max(rap_worst,
                         static_cast<double>(rap.stats.max_congestion));
  }
  // bins/w = 2 rows per thread stride: RAP's cyclic reuse gives exactly
  // 2-way aliasing on the hot bin — far from RAW's 32.
  EXPECT_LE(rap_worst, 4.0);
}

TEST(Histogram, UniformInputIsSchemeInsensitive) {
  const HistogramConfig config{32, 64, 16};
  const auto uniform = make_input(config, 0.0, 9);
  const auto raw = run_histogram(config, Scheme::kRaw, uniform, 1);
  const auto rap = run_histogram(config, Scheme::kRap, uniform, 1);
  EXPECT_TRUE(raw.correct);
  EXPECT_TRUE(rap.correct);
  // Uniform data: both behave like balls-in-bins; within 2x of each other.
  EXPECT_LT(static_cast<double>(rap.stats.time),
            2.0 * static_cast<double>(raw.stats.time));
  EXPECT_LT(static_cast<double>(raw.stats.time),
            2.0 * static_cast<double>(rap.stats.time));
}

}  // namespace
}  // namespace rapsim::workloads
