// The benchmark's own tests: span self-time arithmetic, the latency
// percentile rule, allocation counting, and that every output checker
// rejects a deliberately perturbed output.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "checks.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace {

using namespace rapbench;

Span span(std::uint32_t parent, std::uint64_t start, std::uint64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimes, SubtractsTheUnionOfChildIntervals) {
  const std::vector<Span> spans = {
      span(kNoParent, 0, 100),  // 0: root
      span(0, 10, 40),          // 1: child of root
      span(1, 15, 25),          // 2: grandchild
      span(1, 35, 45),          // 3: grandchild reaching past its parent
      span(0, 50, 70),          // 4: child of root
      span(0, 60, 80),          // 5: child of root overlapping span 4
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  // Root children cover [10,40] and [50,80]: 60 of 100.
  EXPECT_EQ(self[0], 40u);
  // Span 1's children cover [15,25] and [35,40] (clipped): 15 of 30.
  EXPECT_EQ(self[1], 15u);
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 10u);
  EXPECT_EQ(self[4], 20u);
  EXPECT_EQ(self[5], 20u);
}

TEST(SelfTimes, LeafAndRootOnly) {
  const std::vector<Span> spans = {span(kNoParent, 5, 9)};
  EXPECT_EQ(self_times(spans), std::vector<std::uint64_t>{4});
  const std::vector<Span> bad = {span(3, 0, 1)};
  EXPECT_THROW((void)self_times(bad), std::invalid_argument);
}

TEST(Tracer, FoldsNestedSpansIntoTotalsAndCountsAllocations) {
  Tracer tracer(true);
  const std::uint32_t outer = tracer.intern("outer");
  const std::uint32_t inner = tracer.intern("inner");
  for (int i = 0; i < 3; ++i) {
    const Scope a(tracer, outer);
    const Scope b(tracer, inner);
    const auto p = std::make_unique<int>(i);
    EXPECT_EQ(*p, i);
  }
  const LayerTotals o = tracer.totals("outer");
  const LayerTotals n = tracer.totals("inner");
  EXPECT_EQ(o.count, 3u);
  EXPECT_EQ(n.count, 3u);
  EXPECT_LE(o.self_ns, o.total_ns);
  EXPECT_EQ(o.total_ns - o.self_ns, n.total_ns);
  // One allocation per iteration, seen by both enclosing spans.
  EXPECT_EQ(n.allocs, 3u);
  EXPECT_EQ(o.allocs, 3u);
  EXPECT_EQ(tracer.totals("never").count, 0u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  const std::uint32_t name = tracer.intern("x");
  { const Scope s(tracer, name); }
  EXPECT_EQ(tracer.totals("x").count, 0u);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, P90NeedsTenSamplesBeyondIt) {
  const auto at100 = tail_percentile(one_to(100));
  ASSERT_TRUE(at100);
  EXPECT_EQ(at100->percentile, 90);
  EXPECT_EQ(at100->value, 90.0);
  EXPECT_EQ(at100->beyond, 10u);

  // 99 samples: p90 is rank 90 with only 9 beyond, so fall back to p89.
  const auto at99 = tail_percentile(one_to(99));
  ASSERT_TRUE(at99);
  EXPECT_EQ(at99->percentile, 89);
  EXPECT_EQ(at99->value, 89.0);
  EXPECT_EQ(at99->beyond, 10u);

  const auto at20 = tail_percentile(one_to(20));
  ASSERT_TRUE(at20);
  EXPECT_EQ(at20->percentile, 50);
  EXPECT_EQ(at20->beyond, 10u);

  EXPECT_FALSE(tail_percentile(one_to(10)));
  EXPECT_FALSE(tail_percentile({}));
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Checks, RunStatsRejectsOnePerturbedField) {
  rapsim::dmm::RunStats expected;
  expected.time = 100;
  expected.total_stages = 40;
  expected.dispatches = 30;
  expected.max_congestion = 3;
  expected.avg_congestion = 40.0 / 30.0;
  EXPECT_FALSE(check_run_stats("cell", expected, expected));

  rapsim::dmm::RunStats actual = expected;
  actual.total_stages = 41;
  const Failure failure = check_run_stats("transpose/RAP", expected, actual);
  ASSERT_TRUE(failure);
  EXPECT_NE(failure->find("transpose/RAP"), std::string::npos);
  EXPECT_NE(failure->find("total_stages expected 40 got 41"),
            std::string::npos);

  actual = expected;
  actual.avg_congestion = std::nextafter(expected.avg_congestion, 2.0);
  EXPECT_TRUE(check_run_stats("cell", expected, actual));
}

TEST(Checks, HierRejectsOnePerturbedCycleCount) {
  rapsim::hier::HierResult expected;
  expected.cycles = 22413;
  expected.dispatches = 7200;
  EXPECT_FALSE(check_hier_result("sms1.gto", expected, expected));
  rapsim::hier::HierResult actual = expected;
  actual.cycles = 22414;
  const Failure failure = check_hier_result("sms1.gto", expected, actual);
  ASSERT_TRUE(failure);
  EXPECT_NE(failure->find("cycles expected 22413 got 22414"),
            std::string::npos);
}

TEST(Checks, SynthRejectsAPerturbedAuditBound) {
  EXPECT_FALSE(check_synth("transpose-CRSW", 1.0, 1.0, 32.0));
  const Failure audit = check_synth("transpose-CRSW", 1.0, 2.0, 32.0);
  ASSERT_TRUE(audit);
  EXPECT_NE(audit->find("audited bound expected 1 got 2"), std::string::npos);
  EXPECT_TRUE(check_synth("k", 33.0, 33.0, 32.0));  // worse than RAW
}

TEST(Checks, Table2ExactAndToleranceCells) {
  using rapsim::access::Pattern2d;
  using rapsim::core::Scheme;
  const Table2Cell raw_stride{Scheme::kRaw, Pattern2d::kStride, 32};
  EXPECT_FALSE(check_table2_cell(raw_stride, 32.0, 32, 32, 20000));
  EXPECT_TRUE(check_table2_cell(raw_stride, 31.9, 31, 32, 20000));

  const Table2Cell ras_stride{Scheme::kRas, Pattern2d::kStride, 32};
  EXPECT_FALSE(check_table2_cell(ras_stride, 3.52, 1, 9, 20000));
  const Failure off = check_table2_cell(ras_stride, 3.70, 1, 9, 20000);
  ASSERT_TRUE(off);
  EXPECT_NE(off->find("RAS/Stride/w=32"), std::string::npos);
}

}  // namespace
