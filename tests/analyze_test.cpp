// Unit tests for the static analyzer: affine classification and the
// symbolic congestion prover. The exhaustive certificate-vs-simulator
// sweep lives in differential_static_test.cpp; these tests pin the
// classifier's forms and each proof rule on hand-checkable cases.

#include "analyze/affine.hpp"
#include "analyze/certificate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "contract.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "core/theory.hpp"

namespace rapsim::analyze {
namespace {

using core::Scheme;

std::vector<std::uint64_t> affine_2d(std::uint32_t w, std::uint64_t row0,
                                     std::int64_t row_step, std::uint64_t col0,
                                     std::uint64_t col_step) {
  std::vector<std::uint64_t> trace;
  for (std::uint32_t t = 0; t < w; ++t) {
    const std::uint64_t i = row0 + static_cast<std::uint64_t>(
                                       row_step * static_cast<std::int64_t>(t));
    trace.push_back(i * w + (col0 + col_step * t) % w);
  }
  return trace;
}

TEST(AffineClassify, ContiguousIsRowLocal2d) {
  const std::uint32_t w = 16;
  const auto cls = classify_warp(affine_2d(w, 3, 0, 0, 1), w, w * w);
  EXPECT_EQ(cls.kind, AffineKind::kAffine2d);
  EXPECT_EQ(cls.row0, 3u);
  EXPECT_EQ(cls.row_step, 0);
  EXPECT_EQ(cls.col_step, 1u);
}

TEST(AffineClassify, StrideIsColumnConstant2d) {
  const std::uint32_t w = 16;
  const auto cls = classify_warp(affine_2d(w, 0, 1, 5, 0), w, w * w);
  EXPECT_EQ(cls.kind, AffineKind::kAffine2d);
  EXPECT_EQ(cls.row_step, 1);
  EXPECT_EQ(cls.col0, 5u);
  EXPECT_EQ(cls.col_step, 0u);
}

TEST(AffineClassify, DiagonalWrapsModWidth) {
  const std::uint32_t w = 8;
  const auto cls = classify_warp(affine_2d(w, 0, 1, 2, 1), w, w * w);
  EXPECT_EQ(cls.kind, AffineKind::kAffine2d);
  EXPECT_EQ(cls.row_step, 1);
  EXPECT_EQ(cls.col_step, 1u);
}

TEST(AffineClassify, FlatStrideCrossingRowsIs1d) {
  // Stride 3 over an 8x8 matrix crosses rows non-uniformly: not 2-D
  // affine, but a clean 1-D progression.
  const std::uint32_t w = 8;
  std::vector<std::uint64_t> trace;
  for (std::uint32_t t = 0; t < w; ++t) trace.push_back(1 + 3 * t);
  const auto cls = classify_warp(trace, w, w * w);
  EXPECT_EQ(cls.kind, AffineKind::kAffine1d);
  EXPECT_EQ(cls.base, 1u);
  EXPECT_EQ(cls.stride, 3u);
}

TEST(AffineClassify, ConstantEmptyAndReject) {
  const std::uint32_t w = 8;
  EXPECT_EQ(classify_warp(std::vector<std::uint64_t>(w, 42), w, w * w).kind,
            AffineKind::kConstant);
  EXPECT_EQ(classify_warp({}, w, w * w).kind, AffineKind::kEmpty);

  const std::vector<std::uint64_t> crooked = {0, 1, 2, 7, 9, 4, 5, 6};
  const auto rejected = classify_warp(crooked, w, w * w);
  EXPECT_EQ(rejected.kind, AffineKind::kNotAffine);
  EXPECT_FALSE(rejected.reason.empty());

  const std::vector<std::uint64_t> escaped = {0, 1, 2, w * w + 5};
  const auto oob = classify_warp(escaped, w, w * w);
  EXPECT_EQ(oob.kind, AffineKind::kNotAffine);
  EXPECT_NE(oob.reason.find("outside"), std::string::npos);
}

TEST(AffineClassify, SingleAddressIsConstant) {
  const std::vector<std::uint64_t> one = {7};
  const auto cls = classify_warp(one, 8, 64);
  EXPECT_EQ(cls.kind, AffineKind::kConstant);
  EXPECT_EQ(cls.base, 7u);
}

// --- Degenerate inputs end-to-end through the prover. ---

TEST(AffineDegenerate, SingleLaneWarpIsConflictFreeUnderEveryScheme) {
  // A one-thread "warp" issues one request: congestion 1, exactly, no
  // matter which mapping is drawn.
  const std::uint32_t w = 16;
  const std::vector<std::uint64_t> lone = {5};
  for (const Scheme scheme :
       {Scheme::kRaw, Scheme::kPad, Scheme::kRas, Scheme::kRap}) {
    const auto cert = prove_trace(lone, w, w * w, scheme);
    EXPECT_TRUE(cert.exact()) << core::scheme_name(scheme);
    EXPECT_EQ(cert.bound, 1.0) << core::scheme_name(scheme);
  }
}

TEST(AffineDegenerate, AllLanesBroadcastMergesUnderEveryScheme) {
  // Every lane touching the same word is one request after CRCW merging;
  // the rule must certify that for any scheme, since a permutation of a
  // single address is still a single address.
  const std::uint32_t w = 32;
  const std::vector<std::uint64_t> broadcast(w, 17);
  EXPECT_EQ(classify_warp(broadcast, w, w * w).kind, AffineKind::kConstant);
  for (const Scheme scheme :
       {Scheme::kRaw, Scheme::kPad, Scheme::kRas, Scheme::kRap}) {
    const auto cert = prove_trace(broadcast, w, w * w, scheme);
    EXPECT_TRUE(cert.exact()) << core::scheme_name(scheme);
    EXPECT_EQ(cert.bound, 1.0) << core::scheme_name(scheme);
    EXPECT_EQ(cert.rule, "crcw-merge") << core::scheme_name(scheme);
  }
}

TEST(AffineDegenerate, EmptyStreamCertifiesZeroCongestion) {
  const std::uint32_t w = 8;
  EXPECT_EQ(classify_warp({}, w, w * w).kind, AffineKind::kEmpty);
  const auto cert = prove_trace({}, w, w * w, Scheme::kRaw);
  EXPECT_TRUE(cert.exact());
  EXPECT_EQ(cert.bound, 0.0);
  EXPECT_EQ(cert.rule, "empty-warp");
}

TEST(AffineDegenerate, SingleBankMemoryStillClassifies) {
  // w = 1: one bank, every address in "column" 0. The classifier must
  // not divide by zero and the prover's bound equals the merged count.
  const std::uint32_t w = 1;
  const std::vector<std::uint64_t> trace = {0, 1, 2, 3};
  const auto cls = classify_warp(trace, w, 4);
  EXPECT_NE(cls.kind, AffineKind::kNotAffine);
  const auto cert = prove_trace(trace, w, 4, Scheme::kRaw);
  EXPECT_TRUE(cert.exact());
  EXPECT_EQ(cert.bound, 4.0);
}

// --- Prover rules on the paper's Table I cells (w = 16). ---

TEST(Prover, ContiguousIsConflictFreeEverywhere) {
  const std::uint32_t w = 16;
  const auto cls = classify_warp(affine_2d(w, 0, 0, 0, 1), w, w * w);
  for (const Scheme s :
       {Scheme::kRaw, Scheme::kPad, Scheme::kRas, Scheme::kRap}) {
    const auto cert = prove_congestion(cls, s);
    EXPECT_TRUE(cert.exact());
    EXPECT_EQ(cert.bound, 1.0);
    EXPECT_EQ(cert.rule, "row-local");
  }
}

TEST(Prover, StrideTableOneColumn) {
  const std::uint32_t w = 16;
  const auto cls = classify_warp(affine_2d(w, 0, 1, 0, 0), w, w * w);

  const auto raw = prove_congestion(cls, Scheme::kRaw);
  EXPECT_TRUE(raw.exact());
  EXPECT_EQ(raw.bound, static_cast<double>(w));  // Table I: w
  EXPECT_EQ(raw.rule, "raw-gcd");

  const auto pad = prove_congestion(cls, Scheme::kPad);
  EXPECT_TRUE(pad.exact());
  EXPECT_EQ(pad.bound, 1.0);  // skew fixes columns
  EXPECT_EQ(pad.rule, "pad-gcd");

  const auto rap = prove_congestion(cls, Scheme::kRap);
  EXPECT_TRUE(rap.exact());
  EXPECT_EQ(rap.bound, 1.0);  // Theorem 2, deterministic part
  EXPECT_EQ(rap.rule, "rap-distinct-shifts");

  const auto ras = prove_congestion(cls, Scheme::kRas);
  EXPECT_FALSE(ras.exact());
  EXPECT_EQ(ras.rule, "ras-balls-in-bins");
  EXPECT_DOUBLE_EQ(ras.bound, core::balls_in_bins_expectation_bound(w));
}

TEST(Prover, AntiDiagonalDefeatsPad) {
  // (row_step, col_step) = (1, w-1): PAD's effective step is 1 + (w-1) = 0
  // mod w — the whole warp lands in ONE bank. RAW's diagonal stays free.
  const std::uint32_t w = 16;
  const auto cls = classify_warp(affine_2d(w, 0, 1, 0, w - 1), w, w * w);
  const auto pad = prove_congestion(cls, Scheme::kPad);
  EXPECT_TRUE(pad.exact());
  EXPECT_EQ(pad.bound, static_cast<double>(w));

  const auto raw = prove_congestion(cls, Scheme::kRaw);
  EXPECT_TRUE(raw.exact());
  EXPECT_EQ(raw.bound, 1.0);  // gcd(w-1, w) = 1
}

TEST(Prover, RapEvenRowStepDoublesExactly) {
  // Column access down every second row: the residues (2t mod w) each
  // repeat twice, and distinct permutation entries cannot un-collide a
  // repeated residue: congestion is exactly gcd(2, w) = 2 for ANY
  // permutation draw.
  const std::uint32_t w = 16;
  const auto cls =
      classify_warp(affine_2d(w, 0, 2, 3, 0), w, 2 * w * w);
  const auto cert = prove_congestion(cls, Scheme::kRap);
  EXPECT_TRUE(cert.exact());
  EXPECT_EQ(cert.bound, 2.0);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto map = core::make_matrix_map(Scheme::kRap, w, 2 * w, seed);
    EXPECT_EQ(core::congestion_value(affine_2d(w, 0, 2, 3, 0), *map), 2u);
  }
}

TEST(Prover, RapFixedShiftReducesToRawLaw) {
  // row_step = w: every lane reads the same row residue, so one
  // permutation entry shifts the whole warp and the gcd law returns.
  const std::uint32_t w = 8;
  const auto cls =
      classify_warp(affine_2d(w, 1, w, 0, 2), w, w * w * w);
  const auto cert = prove_congestion(cls, Scheme::kRap);
  EXPECT_TRUE(cert.exact());
  EXPECT_EQ(cert.rule, "rap-fixed-shift");
  EXPECT_EQ(cert.bound, 2.0);  // gcd(2, 8) = 2
}

TEST(Prover, DirectEvalMatchesSimulatorOnArbitraryStreams) {
  const std::uint32_t w = 8;
  const std::vector<std::uint64_t> trace = {0, 9, 2, 11, 4, 13, 6, 1};
  for (const Scheme s : {Scheme::kRaw, Scheme::kPad}) {
    const auto cert = prove_trace(trace, w, w * w, s);
    EXPECT_TRUE(cert.exact());
    EXPECT_EQ(cert.rule, "direct-eval");
    const auto map = core::make_matrix_map(s, w, w, 1);
    EXPECT_EQ(cert.bound,
              static_cast<double>(core::congestion_value(trace, *map)));
  }
}

TEST(Prover, RandomizedFallbackIsTheorem2Envelope) {
  const std::uint32_t w = 32;
  const std::vector<std::uint64_t> trace = {0, 9, 2, 11, 4, 13, 6, 1};
  const auto cert = prove_trace(trace, w, w * w, Scheme::kRap);
  EXPECT_FALSE(cert.exact());
  EXPECT_LE(cert.bound, core::theorem2_expectation_bound(w));
  EXPECT_EQ(cert.rule, "theorem2-arbitrary");
}

TEST(Prover, RejectsUnsupportedSchemeAndNonAffineInput) {
  const std::uint32_t w = 8;
  const auto cls = classify_warp(affine_2d(w, 0, 1, 0, 0), w, w * w);
  EXPECT_THROW(static_cast<void>(prove_congestion(cls, Scheme::kRap3P)),
               std::invalid_argument);
  const std::vector<std::uint64_t> crooked = {0, 1, 5, 2};
  const auto bad = classify_warp(crooked, w, w * w);
  EXPECT_THROW(static_cast<void>(prove_congestion(bad, Scheme::kRaw)),
               std::invalid_argument);
}

TEST(Prover, WorstWarpTakesMaximumAndDowngradesMixedExactness) {
  const std::uint32_t w = 16;
  const std::vector<std::vector<std::uint64_t>> traces = {
      affine_2d(w, 0, 0, 0, 1),  // contiguous: exact 1
      affine_2d(w, 0, 1, 0, 0),  // stride: RAW exact w
  };
  const auto raw = prove_worst_warp(traces, w, w * w, Scheme::kRaw);
  EXPECT_TRUE(raw.exact());
  EXPECT_EQ(raw.bound, static_cast<double>(w));

  // RAS mixes exact (contiguous) and expected (stride): the combined
  // certificate must only claim an expected upper bound.
  const auto ras = prove_worst_warp(traces, w, w * w, Scheme::kRas);
  EXPECT_FALSE(ras.exact());
  EXPECT_DOUBLE_EQ(ras.bound, core::balls_in_bins_expectation_bound(w));
}

TEST(Certificate, JsonCarriesTheClaim) {
  const std::uint32_t w = 16;
  const auto cls = classify_warp(affine_2d(w, 0, 1, 0, 0), w, w * w);
  const auto cert = prove_congestion(cls, Scheme::kRap);
  const contract::JsonValue json = contract::parse(cert.to_json());
  contract::expect_certificate(json);
  EXPECT_EQ(contract::at(json, "scheme").as_string(), "RAP");
  EXPECT_EQ(contract::at(json, "rule").as_string(), "rap-distinct-shifts");
  EXPECT_EQ(contract::at(json, "kind").as_string(), "exact");
  EXPECT_EQ(contract::at(json, "bound").serialize(), "1");
}

}  // namespace
}  // namespace rapsim::analyze
