// ISSUE 7 differential sweep: every builtin kernel x w in {16, 32, 64}
// through the synthesizer, checking the acceptance bar end to end —
//
//   1. every kernel gets a bound-1 certificate OR a certified-minimal
//      result with an explicit witness (never a bare best-effort claim),
//   2. the independent auditor (certify_mapping, which shares no state
//      with the search) agrees with the searched bound, and the RAW
//      baseline the search quotes equals the RAW prover's bound,
//   3. the synthesized mapping replays over the kernel's materialized
//      trace on the full DMM and the measured worst congestion confirms
//      the certificate (== for exact, <= for sampled-coverage bounds),
//   4. the result's own witness trace attains the bound.
//
// This is the same harness shape as differential_kernel_test.cpp, with
// the synthesized map (make_synth_map) standing in for the fixed scheme
// draws.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analyze/kernelir.hpp"
#include "analyze/passes.hpp"
#include "analyze/synth.hpp"
#include "builtin_kernels.hpp"
#include "core/congestion.hpp"
#include "replay/replay.hpp"
#include "util/hash.hpp"

namespace rapsim::analyze {
namespace {

constexpr std::uint32_t kWidths[] = {16, 32, 64};

/// Atomic records keep their multiplicity in the synthesizer's classes
/// (they serialize per copy), but trace-level replay lowers them to
/// kAtomicAdd where the DMM also serializes — so atomics are safe to
/// compare. Loads/stores CRCW-merge on both sides. No guard needed; the
/// differential check runs for every cell.
void check_cell(const KernelDesc& kernel) {
  SCOPED_TRACE(kernel.name + " w=" + std::to_string(kernel.width));

  const SynthesisResult result = synthesize_mapping(kernel);

  // (1) Acceptance: bound 1, or an explicit minimality witness.
  if (result.certificate.bound > 1.0) {
    EXPECT_NE(result.witness.kind, WitnessKind::kBestEffort)
        << "bound " << result.certificate.bound
        << " without a minimality witness (reason: " << result.witness.reason
        << ")";
    EXPECT_FALSE(result.witness.reason.empty());
    EXPECT_GE(result.certificate.bound, result.witness.lower_bound);
  } else {
    EXPECT_EQ(result.witness.kind, WitnessKind::kGlobalOptimal);
    EXPECT_EQ(result.witness.reason, "bound-one");
  }
  EXPECT_GT(result.witness.family_size, 0u);
  EXPECT_LE(result.certificate.bound, result.baseline_bound);

  // (2) The independent auditor agrees.
  const CongestionCertificate audited =
      certify_mapping(kernel, result.mapping);
  EXPECT_EQ(audited.bound, result.certificate.bound);
  EXPECT_EQ(audited.kind, result.certificate.kind);
  // The all-zero member is RAW, so its audit reproduces the RAW baseline
  // the search quotes, and so does the independent RAW prover, which the
  // search no longer runs.
  const SynthMapping raw{kernel.width, RowTransform::kRotate,
                         {std::vector<std::uint32_t>(kernel.width, 0)}};
  EXPECT_EQ(certify_mapping(kernel, raw).bound, result.baseline_bound);
  EXPECT_EQ(analyze_kernel(kernel, core::Scheme::kRaw).worst.bound,
            result.baseline_bound);

  // The spec round-trips, so serve/replay consumers reconstruct the
  // exact same mapping the certificate talks about.
  EXPECT_EQ(SynthMapping::parse_spec(result.mapping.spec()), result.mapping);

  // (3) Replay the kernel's materialized trace on the full DMM under the
  // synthesized map.
  const replay::AccessTrace trace = replay::trace_from_kernel(kernel);
  const auto map = make_synth_map(result.mapping, kernel.size());
  const replay::ReplayResult replayed = replay::replay_trace(trace, *map);
  const auto measured = static_cast<double>(replayed.stats.max_congestion);
  if (result.certificate.exact() &&
      trace.records.size() >= kernel.binding_count() * kernel.sites.size()) {
    // Exact certificate over a complete trace: the bound is attained.
    EXPECT_EQ(measured, result.certificate.bound);
  } else {
    // Truncated trace or sampled coverage: the certificate still caps
    // every warp the replay executed.
    EXPECT_LE(measured, result.certificate.bound);
    EXPECT_GE(measured, 1.0);
  }

  // (4) The witness trace attains the certified bound by itself.
  ASSERT_FALSE(result.witness_trace.empty());
  EXPECT_EQ(static_cast<double>(
                core::congestion_value(result.witness_trace, *map)),
            result.certificate.bound);
}

TEST(SynthDifferential, FullCatalogTimesWidths) {
  for (const std::uint32_t width : kWidths) {
    const std::vector<KernelDesc> catalog = tools::builtin_kernels(width);
    ASSERT_FALSE(catalog.empty());
    for (const KernelDesc& kernel : catalog) check_cell(kernel);
  }
}

TEST(SynthDifferential, SampledSearchQuotesRawOverItsOwnSample) {
  // With 64 stored classes allowed, tensor4d-stride3's 32,768 residue
  // classes are sampled: the baseline is RAW over the same sample the
  // certificate covers, so it caps the certificate and is capped by the
  // RAW bound over every binding.
  const KernelDesc kernel = tools::builtin_kernel("tensor4d-stride3", 32);
  SynthesisOptions options;
  options.class_cap = 64;
  const SynthesisResult result = synthesize_mapping(kernel, options);
  EXPECT_EQ(result.coverage, Coverage::kSampled);
  EXPECT_EQ(result.witness.reason, "sampled-coverage");
  EXPECT_LE(result.certificate.bound, result.baseline_bound);
  EXPECT_LE(result.baseline_bound,
            analyze_kernel(kernel, core::Scheme::kRaw).worst.bound);
}

TEST(SynthDifferential, CatalogIsTheDocumentedSeventeen) {
  // The differential matrix in EXPERIMENTS.md is 17 kernels x 3 widths
  // (10 extracted from workload programs + 7 IR-only); keep this test
  // honest if the catalog grows.
  EXPECT_EQ(tools::builtin_kernels(32).size(), 17u);
}

// ---- Digest pins: FNV-1a over the search result, the audit and every
// ---- analyze_kernel site field, per width. A faster closure must compute
// ---- the same classes, witnesses and certificates byte for byte. The
// ---- pins were re-recorded when the transpose, matmul and reduction IR
// ---- became extractions of their programs (new names, site names and
// ---- loop variables; a third site per reduction step): bounds,
// ---- witnesses and candidate counts stayed, per ext_synthesis.

TEST(SynthPins, SearchAndAuditJsonDigestsAreUnchanged) {
  const std::pair<std::uint32_t, std::uint64_t> pins[] = {
      {8, 0xc816123d04c5ccf2ull},
      {16, 0xab87a0e8e85c0475ull},
      {32, 0xc995cbd5cdc8f3eeull},
      {64, 0x98a232e79747c6b4ull},
  };
  for (const auto& [width, digest] : pins) {
    std::uint64_t hash = util::kFnvOffsetBasis;
    for (const KernelDesc& kernel : tools::builtin_kernels(width)) {
      const SynthesisResult result = synthesize_mapping(kernel);
      hash = util::fnv1a(result.to_json(), hash);
      hash = util::fnv1a(certify_mapping(kernel, result.mapping).to_json(),
                         hash);
    }
    EXPECT_EQ(util::hex64(hash), util::hex64(digest)) << "w=" << width;
  }
}

TEST(SynthPins, AnalyzeKernelSiteDigestsAreUnchanged) {
  const std::pair<std::uint32_t, std::uint64_t> pins[] = {
      {16, 0xeea1f08ea9a17eeaull},
      {32, 0xd7f7aba1cc0e54b3ull},
      {64, 0x9a53af09216a6223ull},
  };
  for (const auto& [width, digest] : pins) {
    std::uint64_t hash = util::kFnvOffsetBasis;
    for (const KernelDesc& kernel : tools::builtin_kernels(width)) {
      for (const core::Scheme scheme :
           {core::Scheme::kRaw, core::Scheme::kPad, core::Scheme::kRas,
            core::Scheme::kRap}) {
        for (const SiteAnalysis& site :
             analyze_kernel(kernel, scheme).sites) {
          hash = util::fnv1a(site.cert.to_json(), hash);
          for (const auto& [name, value] : site.witness) {
            hash = util::fnv1a_u64(value, util::fnv1a(name, hash));
          }
          for (const std::uint64_t a : site.witness_trace) {
            hash = util::fnv1a_u64(a, hash);
          }
          hash = util::fnv1a_u64(site.classes_analyzed, hash);
          hash = util::fnv1a_u64(site.binding_count, hash);
          hash = util::fnv1a_u64(site.out_of_bounds ? 1 : 0, hash);
          hash = util::fnv1a(coverage_name(site.coverage), hash);
          hash = util::fnv1a_u64(
              static_cast<std::uint64_t>(site.address_low), hash);
          hash = util::fnv1a_u64(
              static_cast<std::uint64_t>(site.address_high), hash);
        }
      }
    }
    EXPECT_EQ(util::hex64(hash), util::hex64(digest)) << "w=" << width;
  }
}

}  // namespace
}  // namespace rapsim::analyze
