// Tests for the layout advisor.

#include "analyze/advisor.hpp"

#include <gtest/gtest.h>

namespace rapsim::analyze {
namespace {

using core::Scheme;

/// Trace helpers over a rows x w logical array.
WarpTrace row_trace(std::uint32_t w, std::uint64_t i) {
  WarpTrace trace;
  for (std::uint32_t j = 0; j < w; ++j) trace.push_back(i * w + j);
  return trace;
}

WarpTrace column_trace(std::uint32_t w, std::uint64_t j, std::uint64_t rows) {
  WarpTrace trace;
  for (std::uint64_t i = 0; i < rows && trace.size() < w; ++i) {
    trace.push_back(i * w + j);
  }
  return trace;
}

WarpTrace anti_diagonal_trace(std::uint32_t w, std::uint64_t c) {
  WarpTrace trace;
  for (std::uint64_t i = 0; i < w; ++i) {
    trace.push_back(i * w + (c + w - i % w) % w);
  }
  return trace;
}

TEST(Advisor, RowOnlyTraceRecommendsRaw) {
  const std::uint32_t w = 16;
  std::vector<WarpTrace> traces;
  for (std::uint64_t i = 0; i < w; ++i) traces.push_back(row_trace(w, i));
  const auto advice = evaluate_schemes(traces, w, w);
  EXPECT_EQ(advice.recommended, Scheme::kRaw);
  EXPECT_EQ(advice.scores[0].max_congestion, 1.0);  // RAW
}

TEST(Advisor, ColumnTraceRejectsRawPicksCheapFix) {
  const std::uint32_t w = 16;
  std::vector<WarpTrace> traces;
  for (std::uint64_t j = 0; j < w; ++j) {
    traces.push_back(column_trace(w, j, w));
  }
  const auto advice = evaluate_schemes(traces, w, w);
  // RAW is w-way congested; PAD fixes columns for free, so it wins.
  EXPECT_EQ(advice.scores[0].max_congestion, 16.0);
  EXPECT_EQ(advice.recommended, Scheme::kPad);
  // RAP should be flagged as equivalent-and-robust in the rationale.
  EXPECT_NE(advice.rationale.find("RAP"), std::string::npos);
}

TEST(Advisor, AntiDiagonalTraceDefeatsPadRecommendsRap) {
  const std::uint32_t w = 16;
  std::vector<WarpTrace> traces;
  for (std::uint64_t j = 0; j < w; ++j) {
    traces.push_back(column_trace(w, j, w));
  }
  for (std::uint64_t c = 0; c < w; ++c) {
    traces.push_back(anti_diagonal_trace(w, c));
  }
  const auto advice = evaluate_schemes(traces, w, w);
  // RAW dies on columns, PAD dies on anti-diagonals: RAP is the only
  // scheme whose worst warp stays near the noise floor.
  EXPECT_EQ(advice.recommended, Scheme::kRap);
  EXPECT_EQ(advice.scores[1].max_congestion, 16.0);  // PAD
  EXPECT_LT(advice.scores[3].max_congestion, 8.0);   // RAP
}

TEST(Advisor, ScoresComeInCanonicalOrder) {
  const std::uint32_t w = 8;
  const auto advice = evaluate_schemes({row_trace(w, 0)}, w, w);
  ASSERT_EQ(advice.scores.size(), 4u);
  EXPECT_EQ(advice.scores[0].scheme, Scheme::kRaw);
  EXPECT_EQ(advice.scores[1].scheme, Scheme::kPad);
  EXPECT_EQ(advice.scores[2].scheme, Scheme::kRas);
  EXPECT_EQ(advice.scores[3].scheme, Scheme::kRap);
  EXPECT_EQ(advice.scores[0].random_words, 0u);
  EXPECT_EQ(advice.scores[3].random_words, w);
}

TEST(Advisor, ValidatesInput) {
  const std::uint32_t w = 8;
  EXPECT_THROW(static_cast<void>(evaluate_schemes({}, w, w)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(evaluate_schemes({WarpTrace{}}, w, w)),
               std::invalid_argument);
  EXPECT_THROW(
      static_cast<void>(evaluate_schemes({WarpTrace{w * w + 1}}, w, w)),
      std::invalid_argument);
  WarpTrace too_long(w + 1, 0);
  EXPECT_THROW(static_cast<void>(evaluate_schemes({too_long}, w, w)),
               std::invalid_argument);
}

TEST(Advisor, DeterministicInSeed) {
  const std::uint32_t w = 16;
  std::vector<WarpTrace> traces = {anti_diagonal_trace(w, 3)};
  const auto a = evaluate_schemes(traces, w, w, 16, 5);
  const auto b = evaluate_schemes(traces, w, w, 16, 5);
  EXPECT_EQ(a.scores[3].mean_congestion, b.scores[3].mean_congestion);
  EXPECT_EQ(a.recommended, b.recommended);
}

TEST(Advisor, EvaluateKernelCertifiesEveryBindingNotJustTheSample) {
  // Whole-kernel advice on the naive stride transpose: the recommendation
  // still comes from the Monte Carlo scores, but the certificates must be
  // the symbolic whole-kernel bounds — RAW pinned at exactly w, RAP at
  // exactly 1 — and the rationale must say the closure covered all
  // bindings.
  const std::uint32_t w = 16;
  analyze::KernelDesc kernel;
  kernel.name = "stride-write";
  kernel.width = w;
  kernel.rows = w;
  kernel.vars = {{"u", w}};
  analyze::AccessSite site;
  site.name = "write column u";
  site.dir = analyze::AccessDir::kStore;
  site.flat = {0, static_cast<std::int64_t>(w), {1}};
  kernel.sites = {site};

  const Advice advice = evaluate_kernel(kernel);
  ASSERT_EQ(advice.scores.size(), 4u);
  ASSERT_EQ(advice.certificates.size(), 4u);

  const auto& raw = advice.certificates[0];  // canonical order: RAW first
  EXPECT_TRUE(raw.exact());
  EXPECT_EQ(raw.bound, 1.0 * w);
  const auto& rap = advice.certificates[3];
  EXPECT_TRUE(rap.exact());
  EXPECT_EQ(rap.bound, 1.0);

  EXPECT_NE(advice.rationale.find("whole-kernel"), std::string::npos);
  EXPECT_NE(advice.rationale.find("bindings"), std::string::npos);
  EXPECT_NE(advice.recommended, Scheme::kRaw);
}

}  // namespace
}  // namespace rapsim::analyze
