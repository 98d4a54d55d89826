// Unit tests for the static race & barrier-safety verifier
// (analyze/race.hpp): the proof-rule ladder, witness validity, phase
// splitting, the atomic exemption, and the certificate rendering. The
// catalog-wide static-vs-dynamic sweep lives in
// race_differential_test.cpp.

#include "analyze/race.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "analyze/kernelir.hpp"
#include "contract.hpp"

namespace rapsim::analyze {
namespace {

/// w=8 tiled transpose tile: stage rows (addr = lane + 8u), drain
/// columns (addr = 8*lane + u), both executed by warp u. Without a
/// barrier the drain reads rows other warps staged — the canonical
/// missing-__syncthreads() RAW race.
KernelDesc tiled_tile(bool barrier) {
  KernelDesc kernel;
  kernel.name = barrier ? "tiled" : "tiled-stripped";
  kernel.width = 8;
  kernel.rows = 8;
  kernel.vars = {{"u", 8}};
  AccessSite stage;
  stage.name = "stage";
  stage.dir = AccessDir::kStore;
  stage.warp = "u";
  stage.flat = {0, 1, {8}};
  AccessSite drain;
  drain.name = "drain";
  drain.dir = AccessDir::kLoad;
  drain.warp = "u";
  drain.flat = {0, 8, {1}};
  kernel.sites.push_back(stage);
  if (barrier) kernel.add_barrier();
  kernel.sites.push_back(drain);
  return kernel;
}

const RacePairProof* find_proof(const RaceAnalysis& analysis,
                                const std::string& first,
                                const std::string& second) {
  if (!analysis.certificate) return nullptr;
  for (const RacePairProof& proof : analysis.certificate->proofs) {
    if (proof.first_site == first && proof.second_site == second) {
      return &proof;
    }
  }
  return nullptr;
}

TEST(Race, MissingBarrierYieldsRawFindingWithValidWitness) {
  const KernelDesc kernel = tiled_tile(/*barrier=*/false);
  const RaceAnalysis analysis = analyze_races(kernel);

  EXPECT_FALSE(analysis.race_free());
  ASSERT_FALSE(analysis.findings.empty());
  const RaceFinding& f = analysis.findings.front();
  EXPECT_EQ(f.kind, RaceKind::kRaw);  // store in program order first
  EXPECT_EQ(f.phase, 0u);
  EXPECT_EQ(f.first.site, "stage");
  EXPECT_EQ(f.second.site, "drain");

  // The witness must be concrete and self-consistent: different warps,
  // one address, and materialize_site reproduces that address from the
  // recorded bindings.
  EXPECT_NE(f.first.warp, f.second.warp);
  EXPECT_EQ(f.first.address, f.second.address);
  for (const RaceAccess* side : {&f.first, &f.second}) {
    std::vector<std::uint64_t> binding;
    for (const auto& [name, value] : side->binding) binding.push_back(value);
    const auto addrs =
        materialize_site(kernel, kernel.sites[side->site_index], binding);
    ASSERT_LT(side->lane, addrs.size());
    EXPECT_EQ(static_cast<std::uint64_t>(addrs[side->lane]), side->address);
  }
}

TEST(Race, BarrierSplitsThePhasesAndCertifies) {
  const RaceAnalysis analysis = analyze_races(tiled_tile(/*barrier=*/true));
  EXPECT_TRUE(analysis.race_free());
  EXPECT_TRUE(analysis.exhaustive);
  EXPECT_EQ(analysis.phases, 2u);
  EXPECT_TRUE(analysis.findings.empty());
  // stage/drain no longer share a phase; only stage's cross-warp
  // self-pair is left to check.
  EXPECT_EQ(analysis.pairs_checked, 1u);
}

TEST(Race, IntervalDisjointArraysNeverRace) {
  // read A in [0, 64), write B in [64, 128): one warp var, overlapping
  // phases, but the address intervals cannot meet.
  KernelDesc kernel;
  kernel.name = "two-arrays";
  kernel.width = 8;
  kernel.rows = 16;
  kernel.vars = {{"u", 8}};
  AccessSite read;
  read.name = "read-a";
  read.dir = AccessDir::kLoad;
  read.warp = "u";
  read.flat = {0, 1, {8}};
  AccessSite write;
  write.name = "write-b";
  write.dir = AccessDir::kStore;
  write.warp = "u";
  write.flat = {64, 8, {1}};
  kernel.sites = {read, write};

  const RaceAnalysis analysis = analyze_races(kernel);
  ASSERT_TRUE(analysis.race_free());
  const RacePairProof* proof = find_proof(analysis, "read-a", "write-b");
  ASSERT_NE(proof, nullptr);
  EXPECT_EQ(proof->rule, "interval-disjoint");
}

TEST(Race, ResidueDisjointCatchesOffsetStrides) {
  // Warp u stores 2*lane + 16*u; warp v loads 2*lane + 16*v + 1: the
  // base difference is odd, every coefficient even.
  KernelDesc kernel;
  kernel.name = "parity";
  kernel.width = 8;
  kernel.rows = 16;
  kernel.vars = {{"u", 8}};
  AccessSite even;
  even.name = "even";
  even.dir = AccessDir::kStore;
  even.warp = "u";
  even.flat = {0, 2, {16}};
  AccessSite odd;
  odd.name = "odd";
  odd.dir = AccessDir::kLoad;
  odd.warp = "u";
  odd.flat = {1, 2, {16}};
  kernel.sites = {even, odd};

  const RaceAnalysis analysis = analyze_races(kernel);
  ASSERT_TRUE(analysis.race_free());
  const RacePairProof* proof = find_proof(analysis, "even", "odd");
  ASSERT_NE(proof, nullptr);
  EXPECT_EQ(proof->rule, "residue-disjoint");
}

TEST(Race, PerWarpRowsProveNoZeroSum) {
  // Each warp owns row u (addr = lane + 8u): the cross-warp difference
  // can never be zero. Interval and residue both fail; the subset-sum
  // closure proves it.
  KernelDesc kernel = tiled_tile(/*barrier=*/true);
  const RaceAnalysis analysis = analyze_races(kernel);
  ASSERT_TRUE(analysis.race_free());
  const RacePairProof* proof = find_proof(analysis, "stage", "stage");
  ASSERT_NE(proof, nullptr);
  EXPECT_EQ(proof->rule, "no-zero-sum");
}

TEST(Race, SingleWarpSitesCannotRaceAcrossWarps) {
  KernelDesc kernel;
  kernel.name = "single-warp";
  kernel.width = 8;
  kernel.rows = 8;
  kernel.vars = {{"i", 4}};
  AccessSite store;
  store.name = "acc";
  store.dir = AccessDir::kStore;
  store.flat = {0, 1, {0}};  // no warp attribute: one warp runs it all
  AccessSite load;
  load.name = "use";
  load.dir = AccessDir::kLoad;
  load.flat = {0, 1, {0}};
  kernel.sites = {store, load};

  const RaceAnalysis analysis = analyze_races(kernel);
  ASSERT_TRUE(analysis.race_free());
  const RacePairProof* proof = find_proof(analysis, "acc", "use");
  ASSERT_NE(proof, nullptr);
  EXPECT_EQ(proof->rule, "single-warp");
}

TEST(Race, OpaqueSitesAreEnumeratedExactly) {
  // Opaque per-warp rows: warp u touches 8u + lane. Disjoint, but only
  // enumeration can see it.
  KernelDesc kernel;
  kernel.name = "opaque-rows";
  kernel.width = 8;
  kernel.rows = 8;
  kernel.vars = {{"u", 8}};
  AccessSite site;
  site.name = "own-row";
  site.dir = AccessDir::kStore;
  site.form = IndexForm::kOpaque;
  site.warp = "u";
  site.opaque = [](std::span<const std::uint64_t> b,
                   std::span<std::uint64_t> addrs) {
    for (std::size_t lane = 0; lane < addrs.size(); ++lane) {
      addrs[lane] = (b.empty() ? 0 : b[0]) * 8 + lane;
    }
  };
  kernel.sites = {site};

  const RaceAnalysis analysis = analyze_races(kernel);
  ASSERT_TRUE(analysis.race_free());
  const RacePairProof* proof = find_proof(analysis, "own-row", "own-row");
  ASSERT_NE(proof, nullptr);
  EXPECT_EQ(proof->rule, "enumerated-disjoint");
}

TEST(Race, OpaqueOverlapIsWitnessed) {
  // Every warp stores to the SAME word: a cross-warp WAW, findable only
  // by enumeration.
  KernelDesc kernel;
  kernel.name = "opaque-collision";
  kernel.width = 4;
  kernel.rows = 4;
  kernel.vars = {{"u", 4}};
  AccessSite site;
  site.name = "hot";
  site.dir = AccessDir::kStore;
  site.form = IndexForm::kOpaque;
  site.lanes = 1;
  site.warp = "u";
  site.opaque = [](std::span<const std::uint64_t>,
                   std::span<std::uint64_t> addrs) {
    std::fill(addrs.begin(), addrs.end(), std::uint64_t{3});
  };
  kernel.sites = {site};

  const RaceAnalysis analysis = analyze_races(kernel);
  EXPECT_FALSE(analysis.race_free());
  ASSERT_FALSE(analysis.findings.empty());
  const RaceFinding& f = analysis.findings.front();
  EXPECT_EQ(f.kind, RaceKind::kWaw);
  EXPECT_EQ(f.first.address, 3u);
  EXPECT_NE(f.first.warp, f.second.warp);
}

TEST(Race, LoadThenStoreClassifiesAsWar) {
  KernelDesc kernel;
  kernel.name = "war";
  kernel.width = 4;
  kernel.rows = 4;
  kernel.vars = {{"u", 4}};
  AccessSite load;
  load.name = "peek";
  load.dir = AccessDir::kLoad;
  load.warp = "u";
  load.flat = {0, 1, {0}};  // every warp reads words [0, 4)
  AccessSite store;
  store.name = "clobber";
  store.dir = AccessDir::kStore;
  store.warp = "u";
  store.flat = {0, 1, {0}};
  kernel.sites = {load, store};

  const RaceAnalysis analysis = analyze_races(kernel);
  EXPECT_FALSE(analysis.race_free());
  bool saw_war = false;
  for (const RaceFinding& f : analysis.findings) {
    if (f.first.site == "peek" && f.second.site == "clobber") {
      EXPECT_EQ(f.kind, RaceKind::kWar);
      saw_war = true;
    }
  }
  EXPECT_TRUE(saw_war);
}

TEST(Race, AtomicAtomicPairsAreExempt) {
  KernelDesc kernel;
  kernel.name = "atomics";
  kernel.width = 4;
  kernel.rows = 4;
  kernel.vars = {{"u", 4}};
  AccessSite site;
  site.name = "bump";
  site.dir = AccessDir::kAtomic;
  site.warp = "u";
  site.flat = {0, 1, {0}};  // all warps hit the same words — serialized
  kernel.sites = {site};

  const RaceAnalysis analysis = analyze_races(kernel);
  EXPECT_TRUE(analysis.race_free());
  EXPECT_EQ(analysis.pairs_checked, 0u);
}

TEST(Race, LoadLoadPairsAreNotConflicting) {
  KernelDesc kernel = tiled_tile(/*barrier=*/false);
  kernel.sites[0].dir = AccessDir::kLoad;  // both sides now read
  const RaceAnalysis analysis = analyze_races(kernel);
  EXPECT_TRUE(analysis.race_free());
  EXPECT_EQ(analysis.pairs_checked, 0u);
}

TEST(Race, CertificateJsonCarriesTheContractKeys) {
  const RaceAnalysis analysis = analyze_races(tiled_tile(/*barrier=*/true));
  ASSERT_TRUE(analysis.certificate);
  const contract::JsonValue certificate =
      contract::parse(analysis.certificate->to_json());
  contract::expect_race_certificate(certificate);
  EXPECT_FALSE(contract::at(certificate, "proofs").as_array().empty());
}

TEST(Race, FindingToStringNamesBothSides) {
  const RaceAnalysis analysis =
      analyze_races(tiled_tile(/*barrier=*/false));
  ASSERT_FALSE(analysis.findings.empty());
  const std::string text = analysis.findings.front().to_string();
  EXPECT_NE(text.find("RAW"), std::string::npos);
  EXPECT_NE(text.find("stage"), std::string::npos);
  EXPECT_NE(text.find("drain"), std::string::npos);
  EXPECT_NE(text.find("warp"), std::string::npos);
}

TEST(Race, InvalidKernelsThrow) {
  KernelDesc kernel = tiled_tile(/*barrier=*/true);
  kernel.barriers = {5};  // past the end
  EXPECT_THROW((void)analyze_races(kernel), std::invalid_argument);
  KernelDesc unknown_warp = tiled_tile(/*barrier=*/true);
  unknown_warp.sites[0].warp = "nope";
  EXPECT_THROW((void)analyze_races(unknown_warp), std::invalid_argument);
}

}  // namespace
}  // namespace rapsim::analyze
