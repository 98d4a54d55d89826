// Unit + property tests for the layout synthesizer (analyze/synth.hpp):
// SynthMapping algebra (bijection, RAP equivalence, spec round-trip),
// make_synth_map validation, the (d-1)P permutation corner of the family
// on w^d arrays, full-domain translate pins, witness semantics
// (bound-one / atomic-floor / family-minimal), the independent
// certify_mapping audit, and the
// property test required by ISSUE 7 — random affine kernels whose
// synthesized certified bound must EQUAL the congestion measured on the
// full DMM replay of the kernel's materialized trace. The whole-catalog
// differential sweep lives in synth_differential_test.cpp.

#include "analyze/synth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "analyze/kernelir.hpp"
#include "core/congestion.hpp"
#include "core/permutation.hpp"
#include "replay/replay.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace rapsim::analyze {
namespace {

/// w=8 CRSW transpose: read A row-wise, write B column-wise (stride w).
KernelDesc crsw_kernel(std::uint32_t w = 8) {
  KernelDesc kernel;
  kernel.name = "crsw";
  kernel.width = w;
  kernel.rows = 2 * w;
  kernel.vars = {{"u", w}};
  AccessSite read;
  read.name = "read";
  read.dir = AccessDir::kLoad;
  read.flat = {0, 1, {static_cast<std::int64_t>(w)}};
  AccessSite write;
  write.name = "write";
  write.dir = AccessDir::kStore;
  write.flat = {static_cast<std::int64_t>(w) * w,
                static_cast<std::int64_t>(w), {1}};
  kernel.sites = {read, write};
  return kernel;
}

SynthMapping random_mapping(std::uint32_t width, std::uint32_t digits,
                            std::uint64_t seed) {
  util::Pcg32 rng(seed);
  SynthMapping mapping;
  mapping.width = width;
  for (std::uint32_t d = 0; d < digits; ++d) {
    std::vector<std::uint32_t> table(width);
    for (std::uint32_t r = 0; r < width; ++r) table[r] = rng.bounded(width);
    mapping.tables.push_back(std::move(table));
  }
  return mapping;
}

TEST(SynthMapping, TranslateIsARowPreservingBijection) {
  for (const RowTransform transform :
       {RowTransform::kRotate, RowTransform::kXor}) {
    SynthMapping mapping = random_mapping(16, 2, 7);
    mapping.transform = transform;
    const std::uint64_t size = 16 * 300;  // > w^2 rows: exercises digit 1
    const auto map = make_synth_map(mapping, size);
    std::set<std::uint64_t> images;
    for (std::uint64_t a = 0; a < size; ++a) {
      const std::uint64_t p = map->translate(a);
      EXPECT_EQ(p / 16, a / 16) << "rows must be preserved";
      EXPECT_EQ(p % 16, map->bank_of(a));
      images.insert(p);
    }
    EXPECT_EQ(images.size(), size) << row_transform_name(transform);
  }
}

TEST(SynthMapping, SingleTableRotateIsExactlyRap) {
  // D = 1 with a permutation table is the paper's RAP: row r's columns
  // rotate by p[r mod w].
  const std::uint32_t w = 32;
  util::Pcg32 rng(3);
  const core::Permutation perm = core::Permutation::random(w, rng);
  SynthMapping mapping;
  mapping.width = w;
  mapping.tables.emplace_back();
  for (std::uint32_t r = 0; r < w; ++r) {
    mapping.tables[0].push_back(static_cast<std::uint32_t>(perm[r]));
  }
  const auto map = make_synth_map(mapping, w * w * 3);
  for (std::uint64_t a = 0; a < w * w * 3; ++a) {
    const std::uint64_t row = a / w;
    const std::uint64_t col = a % w;
    EXPECT_EQ(map->bank_of(a), (col + perm[row % w]) % w);
  }
}

TEST(SynthMapping, SpecRoundTrips) {
  for (const RowTransform transform :
       {RowTransform::kRotate, RowTransform::kXor}) {
    for (std::uint32_t digits = 1; digits <= kMaxDigits; ++digits) {
      SynthMapping mapping = random_mapping(16, digits, digits * 11 + 1);
      mapping.transform = transform;
      const SynthMapping parsed = SynthMapping::parse_spec(mapping.spec());
      EXPECT_EQ(parsed, mapping);
    }
  }
}

TEST(SynthMapping, ParseSpecRejectsMalformedInput) {
  EXPECT_THROW((void)SynthMapping::parse_spec(""), std::invalid_argument);
  EXPECT_THROW((void)SynthMapping::parse_spec("ps2:rot:w=4:0,0,0,0"),
               std::invalid_argument);
  EXPECT_THROW((void)SynthMapping::parse_spec("ps1:rot:w=4"),
               std::invalid_argument);
  EXPECT_THROW((void)SynthMapping::parse_spec("ps1:spin:w=4:0,0,0,0"),
               std::invalid_argument);
  // entry out of range
  EXPECT_THROW((void)SynthMapping::parse_spec("ps1:rot:w=4:0,0,0,4"),
               std::invalid_argument);
  // wrong table length
  EXPECT_THROW((void)SynthMapping::parse_spec("ps1:rot:w=4:0,0,0"),
               std::invalid_argument);
  // xor requires a power-of-two width
  EXPECT_THROW(
      (void)SynthMapping::parse_spec("ps1:xor:w=6:0,0,0,0,0,0"),
      std::invalid_argument);
  // too many tables
  EXPECT_THROW((void)SynthMapping::parse_spec(
                   "ps1:rot:w=2:0,0|0,0|0,0|0,0"),
               std::invalid_argument);
  EXPECT_THROW((void)SynthMapping::parse_spec("ps1:rot:w=4:0,,0,0"),
               std::invalid_argument);
  EXPECT_THROW((void)SynthMapping::parse_spec("ps1:rot:w=4:0,x,0,0"),
               std::invalid_argument);
}

TEST(SynthMap, ValidatesItsMapping) {
  SynthMapping mapping = random_mapping(8, 1, 1);
  EXPECT_NO_THROW((void)make_synth_map(mapping, 64));
  EXPECT_THROW(core::AddressMap("synth", 8, 63, mapping.transform,
                                {{0, mapping.tables[0]}}),
               std::invalid_argument);  // not rows
  SynthMapping bad = mapping;
  bad.tables[0][3] = 8;  // entry >= width
  EXPECT_THROW((void)make_synth_map(bad, 64), std::invalid_argument);
  SynthMapping empty = mapping;
  empty.tables.clear();
  EXPECT_THROW((void)make_synth_map(empty, 64), std::invalid_argument);
  SynthMapping xodd = mapping;
  xodd.width = 6;
  xodd.transform = RowTransform::kXor;
  xodd.tables[0].assign(6, 0);
  EXPECT_THROW((void)make_synth_map(xodd, 36), std::invalid_argument);
}

TEST(SynthMap, MakeSynthMapRoundsUpToWholeRows) {
  const SynthMapping mapping = random_mapping(8, 1, 2);
  const auto map = make_synth_map(mapping, 60);
  EXPECT_EQ(map->size(), 64u);
  EXPECT_EQ(map->width(), 8u);
  EXPECT_EQ(map->scheme(), core::Scheme::kSynth);
  EXPECT_EQ(map->random_words(), 0u);
}

// ---- Full-domain pins: FNV-1a over translate(a) for a 3-table rot and
// ---- xor spec over two w^4 blocks (so the rows wrap past digit 2),
// ---- recorded from the earlier SynthMap class.

TEST(SynthMapPins, FullDomainDigestsAreUnchanged) {
  const std::pair<const char*, std::uint64_t> pins[] = {
      {"ps1:rot:w=8:3,1,4,0,5,2,7,6|2,7,1,0,6,3,5,4|5,5,0,7,1,2,6,3",
       0x2d12e2d1823a60a5ull},
      {"ps1:xor:w=8:6,0,3,5,1,7,2,4|1,4,4,0,7,2,6,3|0,3,7,5,2,6,1,4",
       0xe214e1dbbb1b3be5ull},
  };
  for (const auto& [spec, digest] : pins) {
    const auto map =
        make_synth_map(SynthMapping::parse_spec(spec), 2 * 8 * 8 * 8 * 8 + 5);
    ASSERT_EQ(map->size(), 8200u);
    std::uint64_t hash = util::kFnvOffsetBasis;
    for (std::uint64_t a = 0; a < map->size(); ++a) {
      hash = util::fnv1a_u64(map->translate(a), hash);
    }
    EXPECT_EQ(hash, digest) << spec;
  }
}

// ---- (d-1)P: d-1 independent permutation tables over a w^d array, one
// ---- per outer coordinate (table t on row digit t). d = 2 is RAP, d = 4
// ---- is Table IV's 3P.

/// A rotate mapping whose `tables` tables are random permutations.
SynthMapping multi_perm(std::uint32_t w, std::uint32_t tables,
                        util::Pcg32& rng) {
  SynthMapping mapping;
  mapping.width = w;
  for (std::uint32_t t = 0; t < tables; ++t) {
    const core::Permutation p = core::Permutation::random(w, rng);
    mapping.tables.emplace_back(p.image().begin(), p.image().end());
  }
  return mapping;
}

TEST(MultiPermNd, TwoDimMatchesRapMap) {
  const core::Permutation p({2, 0, 3, 1});
  SynthMapping mapping;
  mapping.width = 4;
  mapping.tables = {{2, 0, 3, 1}};
  const auto nd = make_synth_map(mapping, 16);
  const core::AddressMap rap(core::Scheme::kRap, 4, 4, p.image());
  for (std::uint64_t a = 0; a < rap.size(); ++a) {
    EXPECT_EQ(nd->translate(a), rap.translate(a));
  }
}

TEST(MultiPermNd, FourDimMatchesThreePermMap) {
  const core::Permutation p({1, 0, 3, 2}), q({2, 3, 0, 1}), s({0, 1, 2, 3});
  SynthMapping mapping;
  mapping.width = 4;
  // Digit 0 is k (s), digit 1 is j (q), digit 2 is i (p).
  for (const core::Permutation* t : {&s, &q, &p}) {
    mapping.tables.emplace_back(t->image().begin(), t->image().end());
  }
  const auto nd = make_synth_map(mapping, 256);
  std::vector<std::uint32_t> words;
  for (const core::Permutation* t : {&p, &q, &s}) {
    words.insert(words.end(), t->image().begin(), t->image().end());
  }
  const core::AddressMap three(core::Scheme::kRap3P, 4, 64, words);
  for (std::uint64_t a = 0; a < three.size(); ++a) {
    EXPECT_EQ(nd->translate(a), three.translate(a));
  }
}

class NdStrideProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(NdStrideProperty, EverySingleAxisSweepIsConflictFree) {
  const auto [w, d] = GetParam();
  util::Pcg32 rng(d * 100 + w);
  std::uint64_t size = 1;
  for (std::uint32_t k = 0; k < d; ++k) size *= w;
  const auto map = make_synth_map(multi_perm(w, d - 1, rng), size);

  for (std::uint32_t axis = 0; axis < d; ++axis) {
    // Random base point; sweep `axis` through all w values.
    std::vector<std::uint32_t> base(d);
    for (auto& c : base) c = rng.bounded(w);
    std::vector<std::uint64_t> addrs;
    for (std::uint32_t v = 0; v < w; ++v) {
      auto coords = base;
      coords[axis] = v;
      std::uint64_t addr = 0;
      for (const std::uint32_t c : coords) addr = addr * w + c;
      addrs.push_back(addr);
    }
    EXPECT_EQ(core::congestion_value(addrs, *map), 1u)
        << "axis " << axis << " w " << w << " d " << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NdStrideProperty,
    ::testing::Combine(::testing::Values(4u, 8u, 16u),
                       ::testing::Values(2u, 3u, 4u)),
    [](const auto& param_info) {
      return "w" + std::to_string(std::get<0>(param_info.param)) + "_d" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(MultiPermNd, IsABijectionForSmallShapes) {
  util::Pcg32 rng(9);
  for (const std::uint32_t d : {2u, 3u, 4u}) {
    std::uint64_t size = 1;
    for (std::uint32_t k = 0; k < d; ++k) size *= 4;
    const auto map = make_synth_map(multi_perm(4, d - 1, rng), size);
    std::set<std::uint64_t> images;
    for (std::uint64_t a = 0; a < map->size(); ++a) {
      const std::uint64_t phys = map->translate(a);
      ASSERT_LT(phys, map->size());
      images.insert(phys);
    }
    EXPECT_EQ(images.size(), map->size());
  }
}

TEST(MultiPermNd, RejectsWrongPermutationSize) {
  SynthMapping mapping;
  mapping.width = 4;
  mapping.tables = {{0, 1, 2, 3, 4}};
  EXPECT_THROW((void)make_synth_map(mapping, 16), std::invalid_argument);
}

TEST(Synthesize, CrswReachesCertifiedBoundOne) {
  const SynthesisResult result = synthesize_mapping(crsw_kernel());
  EXPECT_EQ(result.certificate.bound, 1.0);
  EXPECT_TRUE(result.certificate.exact());
  EXPECT_EQ(result.certificate.scheme, core::Scheme::kSynth);
  EXPECT_EQ(result.certificate.rule, "synth-direct-eval");
  EXPECT_EQ(result.witness.kind, WitnessKind::kGlobalOptimal);
  EXPECT_EQ(result.witness.reason, "bound-one");
  EXPECT_EQ(result.witness.lower_bound, 1.0);
  ASSERT_EQ(result.site_bounds.size(), 2u);
  EXPECT_EQ(result.site_bounds[0], 1.0);
  EXPECT_EQ(result.site_bounds[1], 1.0);
  // The RAW baseline the improvement is quoted against is the full w.
  EXPECT_EQ(result.baseline_bound, 8.0);
  ASSERT_FALSE(result.witness_trace.empty());
  // The witness trace attains the bound under the winning mapping.
  const auto map = make_synth_map(result.mapping, crsw_kernel().size());
  EXPECT_EQ(core::congestion_value(result.witness_trace, *map), 1u);
}

TEST(Synthesize, ZeroTablesCertifyTheRawBound) {
  // certify_mapping is the independent auditor: the all-zero member is
  // RAW, whose CRSW bound is w on the column-stride store.
  const KernelDesc kernel = crsw_kernel();
  SynthMapping raw;
  raw.width = kernel.width;
  raw.tables.assign(1, std::vector<std::uint32_t>(kernel.width, 0));
  const CongestionCertificate cert = certify_mapping(kernel, raw);
  EXPECT_EQ(cert.bound, static_cast<double>(kernel.width));
  EXPECT_TRUE(cert.exact());
}

TEST(Synthesize, SameAddressAtomicsFloorEveryMapping) {
  // All lanes hammer ONE address atomically: no bijection can spread a
  // single address, so the atomic multiplicity w floors the family and
  // the witness upgrades to global optimality via the atomic floor.
  KernelDesc kernel;
  kernel.name = "atomic-hammer";
  kernel.width = 8;
  kernel.rows = 8;
  kernel.vars = {{"u", 4}};
  AccessSite site;
  site.name = "bump";
  site.dir = AccessDir::kAtomic;
  site.flat = {0, 0, {1}};  // lane coefficient 0: one address per warp
  kernel.sites = {site};

  const SynthesisResult result = synthesize_mapping(kernel);
  EXPECT_EQ(result.certificate.bound, 8.0);
  EXPECT_EQ(result.witness.kind, WitnessKind::kGlobalOptimal);
  EXPECT_EQ(result.witness.reason, "atomic-floor");
  EXPECT_EQ(result.witness.lower_bound, 8.0);
}

TEST(Synthesize, RejectsOutOfBoundsKernels) {
  KernelDesc kernel = crsw_kernel();
  kernel.rows = 4;  // the write site now runs past the memory
  EXPECT_THROW((void)synthesize_mapping(kernel), std::invalid_argument);
}

TEST(Synthesize, CancellationCallbackStopsTheSearch) {
  KernelDesc kernel = crsw_kernel(16);
  SynthesisOptions options;
  options.cancelled = [] { return true; };
  const SynthesisResult result = synthesize_mapping(kernel, options);
  // The result is still certified (full evaluation of the incumbent);
  // only the minimality claim degrades.
  EXPECT_TRUE(result.certificate.exact());
}

TEST(Synthesize, CertifyMappingRejectsMismatchedWidth) {
  const SynthMapping mapping = random_mapping(16, 1, 1);
  EXPECT_THROW((void)certify_mapping(crsw_kernel(8), mapping),
               std::invalid_argument);
}

TEST(Synthesize, ResultJsonHasTheContractFields) {
  const std::string json = synthesize_mapping(crsw_kernel()).to_json();
  for (const char* key :
       {"\"kernel\"", "\"mapping\"", "\"spec\"", "\"transform\"",
        "\"tables\"", "\"certificate\"", "\"witness\"", "\"kind\"",
        "\"reason\"", "\"lower_bound\"", "\"family_size\"", "\"classes\"",
        "\"coverage\"", "\"candidates\"", "\"site_bounds\"",
        "\"witness_trace\"", "\"baseline\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

/// ISSUE 7 property test: random affine kernels — the synthesized
/// mapping's certified bound must EQUAL the worst congestion measured on
/// the full DMM replay of the kernel's materialized access trace.
TEST(SynthesizeProperty, CertifiedBoundEqualsMeasuredDmmCongestion) {
  util::Pcg32 rng(0xC0FFEE);
  for (int trial = 0; trial < 24; ++trial) {
    const std::uint32_t w = std::uint32_t{8} << rng.bounded(2);  // 8 or 16
    KernelDesc kernel;
    kernel.name = "random-affine";
    kernel.width = w;
    kernel.rows = 2 * w;
    const std::uint32_t num_vars = 1 + rng.bounded(2);
    for (std::uint32_t v = 0; v < num_vars; ++v) {
      kernel.vars.push_back({std::string(1, static_cast<char>('u' + v)),
                             std::uint64_t{2} + rng.bounded(w - 1)});
    }
    const std::uint32_t num_sites = 1 + rng.bounded(2);
    const auto size = static_cast<std::int64_t>(kernel.size());
    for (std::uint32_t s = 0; s < num_sites; ++s) {
      AccessSite site;
      site.name = "s" + std::to_string(s);
      site.dir = rng.bounded(2) ? AccessDir::kLoad : AccessDir::kStore;
      // Keep every address in bounds by construction: the max value of
      // base + lane_coeff*(w-1) + sum coeff_v*(count_v-1) stays < size.
      std::int64_t budget = size - 1;
      const std::int64_t lane_coeff = rng.bounded(
          static_cast<std::uint32_t>(budget / (w - 1) < 4
                                         ? budget / (w - 1)
                                         : 4) + 1);
      budget -= lane_coeff * (w - 1);
      std::vector<std::int64_t> coeffs;
      for (const LoopVar& var : kernel.vars) {
        const auto span = static_cast<std::int64_t>(var.count - 1);
        const std::int64_t cap = span > 0 ? budget / span : 0;
        const std::int64_t c = cap > 0
            ? static_cast<std::int64_t>(rng.bounded(
                  static_cast<std::uint32_t>(cap > 64 ? 64 : cap) + 1))
            : 0;
        coeffs.push_back(c);
        budget -= c * span;
      }
      const std::int64_t base =
          budget > 0 ? static_cast<std::int64_t>(
                           rng.bounded(static_cast<std::uint32_t>(
                               budget > 1024 ? 1024 : budget)))
                     : 0;
      site.flat = {base, lane_coeff, coeffs};
      kernel.sites.push_back(std::move(site));
    }

    const SynthesisResult result = synthesize_mapping(kernel);
    ASSERT_TRUE(result.certificate.exact())
        << "affine kernels close symbolically, trial " << trial;
    const auto map = make_synth_map(result.mapping, kernel.size());

    // Full DMM replay of the kernel's complete materialized trace.
    const replay::AccessTrace trace = replay::trace_from_kernel(kernel);
    const replay::ReplayResult replayed = replay::replay_trace(trace, *map);
    EXPECT_EQ(static_cast<double>(replayed.stats.max_congestion),
              result.certificate.bound)
        << "trial " << trial << " w=" << w << " spec "
        << result.mapping.spec();

    // And the witness trace alone attains it.
    EXPECT_EQ(core::congestion_value(result.witness_trace, *map),
              result.certificate.bound)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace rapsim::analyze
