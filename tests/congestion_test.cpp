// Unit tests for core/congestion.hpp — including the paper's Figure 2
// worked examples.

#include "core/congestion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/factory.hpp"
#include "core/mapping.hpp"
#include "core/permutation.hpp"
#include "dmm/machine.hpp"
#include "dmm/sanitizer.hpp"
#include "util/rng.hpp"

namespace rapsim::core {
namespace {

// Figure 2 (1): w = 4 threads access 7, 5, 2, 0 — distinct banks 3,1,2,0.
TEST(Congestion, Figure2Example1_DistinctBanks) {
  const std::vector<std::uint64_t> addrs = {7, 5, 2, 0};
  const auto r = congestion_of_physical(addrs, 4);
  EXPECT_EQ(r.congestion, 1u);
  EXPECT_EQ(r.unique_requests, 4u);
}

// Figure 2 (2): all requests to bank 1 (addresses 1, 5, 9, 13).
TEST(Congestion, Figure2Example2_SameBank) {
  const std::vector<std::uint64_t> addrs = {1, 5, 9, 13};
  const auto r = congestion_of_physical(addrs, 4);
  EXPECT_EQ(r.congestion, 4u);
  EXPECT_EQ(r.per_bank[1], 4u);
  EXPECT_EQ(r.per_bank[0], 0u);
}

// Figure 2 (3): all threads access the same address — merged, congestion 1.
TEST(Congestion, Figure2Example3_MergedAccess) {
  const std::vector<std::uint64_t> addrs = {10, 10, 10, 10};
  const auto r = congestion_of_physical(addrs, 4);
  EXPECT_EQ(r.congestion, 1u);
  EXPECT_EQ(r.unique_requests, 1u);
}

TEST(Congestion, PartialMergeCountsUniquePerBank) {
  // Bank 0: addresses 0, 0, 4 -> 2 unique; bank 1: 1 -> 1 unique.
  const std::vector<std::uint64_t> addrs = {0, 0, 4, 1};
  const auto r = congestion_of_physical(addrs, 4);
  EXPECT_EQ(r.congestion, 2u);
  EXPECT_EQ(r.per_bank[0], 2u);
  EXPECT_EQ(r.per_bank[1], 1u);
  EXPECT_EQ(r.unique_requests, 3u);
}

TEST(Congestion, EmptyAccessHasZeroCongestion) {
  const std::vector<std::uint64_t> addrs;
  const auto r = congestion_of_physical(addrs, 8);
  EXPECT_EQ(r.congestion, 0u);
  EXPECT_EQ(r.unique_requests, 0u);
}

TEST(Congestion, SingleRequest) {
  const std::vector<std::uint64_t> addrs = {5};
  EXPECT_EQ(congestion_of_physical(addrs, 4).congestion, 1u);
}

TEST(Congestion, WidthOnePutsEverythingInOneBank) {
  const std::vector<std::uint64_t> addrs = {0, 1, 2, 3};
  EXPECT_EQ(congestion_of_physical(addrs, 1).congestion, 4u);
}

TEST(Congestion, LogicalGoesThroughMapping) {
  // RAW stride on a 4x4 matrix: column 0 -> all in bank 0.
  const AddressMap raw(Scheme::kRaw, 4, 4);
  std::vector<std::uint64_t> col;
  for (std::uint64_t i = 0; i < 4; ++i) col.push_back(raw.index(i, 0));
  EXPECT_EQ(congestion_value(col, raw), 4u);

  // Same logical access through the Figure 6 RAP map: banks become
  // (0 + p_i) mod 4 = {2, 0, 3, 1} — all distinct.
  const AddressMap rap(Scheme::kRap, 4, 4, Permutation({2, 0, 3, 1}).image());
  EXPECT_EQ(congestion_value(col, rap), 1u);
}

TEST(Congestion, AllDuplicatesMergeToSingleRequest) {
  // A full warp (and more) hammering one cell is the paper's Figure 2(3)
  // broadcast: CRCW merging turns it into ONE request, whatever the width.
  const std::vector<std::uint64_t> addrs(64, 17);
  const auto r = congestion_of_physical(addrs, 32);
  EXPECT_EQ(r.congestion, 1u);
  EXPECT_EQ(r.unique_requests, 1u);
  EXPECT_EQ(r.per_bank[17 % 32], 1u);
}

TEST(Congestion, WidthOneMergesDuplicatesBeforeCounting) {
  // One bank, but duplicates still merge first: {5,5,5,2,2} is two
  // unique requests, not five.
  const std::vector<std::uint64_t> addrs = {5, 5, 5, 2, 2};
  const auto r = congestion_of_physical(addrs, 1);
  EXPECT_EQ(r.congestion, 2u);
  EXPECT_EQ(r.unique_requests, 2u);
  ASSERT_EQ(r.per_bank.size(), 1u);
  EXPECT_EQ(r.per_bank[0], 2u);
}

TEST(Congestion, EmptyWarpOnWidthOneMemory) {
  const std::vector<std::uint64_t> addrs;
  const auto r = congestion_of_physical(addrs, 1);
  EXPECT_EQ(r.congestion, 0u);
  EXPECT_EQ(r.unique_requests, 0u);
  ASSERT_EQ(r.per_bank.size(), 1u);
  EXPECT_EQ(r.per_bank[0], 0u);
}

TEST(Congestion, PerBankSumsToUniqueRequests) {
  const std::vector<std::uint64_t> addrs = {0, 1, 2, 3, 4, 5, 6, 7, 0, 4};
  const auto r = congestion_of_physical(addrs, 4);
  EXPECT_EQ(std::accumulate(r.per_bank.begin(), r.per_bank.end(), 0u),
            r.unique_requests);
}

// --- The bank tally against the sort-based reference it replaced --------

/// The original tally: sorted, deduplicated copy, then a bank histogram.
CongestionResult reference_congestion(std::span<const std::uint64_t> physical,
                                      std::uint32_t width) {
  std::vector<std::uint64_t> unique(physical.begin(), physical.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  CongestionResult result;
  result.per_bank.assign(width, 0);
  result.unique_requests = static_cast<std::uint32_t>(unique.size());
  for (const std::uint64_t addr : unique) {
    const auto bank = static_cast<std::size_t>(addr % width);
    result.congestion = std::max(result.congestion, ++result.per_bank[bank]);
  }
  return result;
}

void expect_matches_reference(std::span<const std::uint64_t> physical,
                              std::uint32_t width) {
  const CongestionResult want = reference_congestion(physical, width);
  const CongestionResult got = congestion_of_physical(physical, width);
  EXPECT_EQ(got.congestion, want.congestion);
  EXPECT_EQ(got.per_bank, want.per_bank);
  EXPECT_EQ(got.unique_requests, want.unique_requests);
}

TEST(BankTally, MatchesSortedReferenceOnRandomStreamsWithDuplicates) {
  util::Pcg32 rng(77);
  for (const std::uint32_t w : {1u, 16u, 24u, 48u, 64u, 256u}) {
    for (int trial = 0; trial < 200; ++trial) {
      // A small address range forces duplicates; lengths go past w.
      const std::uint32_t range = 1 + rng.bounded(4 * w);
      std::vector<std::uint64_t> physical(1 + rng.bounded(2 * w));
      for (auto& a : physical) a = rng.bounded(range);
      expect_matches_reference(physical, w);
    }
  }
}

TEST(BankTally, MatchesReferenceOnOneBankAndOneAddress) {
  for (const std::uint32_t w : {1u, 16u, 24u, 48u, 64u, 256u}) {
    // RAW stride: w distinct addresses in bank 0, congestion w.
    const AddressMap raw(Scheme::kRaw, w, w);
    std::vector<std::uint64_t> column;
    for (std::uint32_t i = 0; i < w; ++i) column.push_back(raw.index(i, 0));
    expect_matches_reference(column, w);
    EXPECT_EQ(congestion_value(column, raw), w);
    // Every lane on one address: one request.
    const std::vector<std::uint64_t> same(w, 3 * w + 1);
    expect_matches_reference(same, w);
    EXPECT_EQ(congestion_of_physical(same, w).congestion, 1u);
  }
}

TEST(BankTally, KeepsFirstWriterAndFirstSeenOrder) {
  BankTally tally;
  tally.begin(4, 6);
  EXPECT_EQ(tally.add(9, 10), 10u);
  EXPECT_EQ(tally.add(2, 11), 11u);
  EXPECT_EQ(tally.add(9, 12), 10u);  // lane 10 wrote 9 first
  EXPECT_EQ(tally.add(5, 13), 13u);
  EXPECT_EQ(tally.add(2, 14), 11u);
  const std::vector<std::uint64_t> order(tally.unique_addresses().begin(),
                                         tally.unique_addresses().end());
  EXPECT_EQ(order, (std::vector<std::uint64_t>{9, 2, 5}));
  EXPECT_EQ(tally.congestion(), 2u);  // 9 and 5 share bank 1
  // The next warp forgets everything.
  tally.begin(4, 2);
  EXPECT_EQ(tally.add(9, 0), 0u);
  EXPECT_EQ(tally.unique_requests(), 1u);
  EXPECT_EQ(tally.bank_count(1), 1u);
  EXPECT_EQ(tally.bank_count(2), 0u);
}

TEST(BankTally, RejectsMoreRequestsThanLanes) {
  BankTally tally;
  tally.begin(8, 2);
  (void)tally.add(1, 0);
  (void)tally.add(1, 1);  // merges: still one request
  (void)tally.add(2, 2);
  EXPECT_THROW((void)tally.add(3, 3), std::length_error);
}

// --- A warp translates lane by lane, through the row rule --------------

TEST(TranslateWarp, MatchesScalarTranslateForEveryScheme) {
  for (const std::uint32_t w : {1u, 4u, 7u, 16u, 24u, 32u, 48u}) {
    const std::uint64_t rows = 2 * w + 3;  // taller than w: RAP/PAD wrap
    for (const Scheme scheme :
         {Scheme::kRaw, Scheme::kRas, Scheme::kRap, Scheme::kPad}) {
      const auto map = make_matrix_map(scheme, w, rows, w + 11);
      std::vector<std::uint64_t> physical(map->size());
      for (std::uint64_t a = 0; a < map->size(); ++a) {
        physical[a] = map->translate(a);
        const std::uint64_t row = a / w;
        ASSERT_EQ(physical[a], row * w + (a % w + map->row_term(row)) % w)
            << scheme_name(scheme) << " w=" << w << " a=" << a;
      }
      // Each warp-sized block tallied through the map (one translate per
      // lane) sees exactly the scalar translations.
      for (std::uint64_t base = 0; base < map->size(); base += w) {
        std::vector<std::uint64_t> logical(w);
        std::iota(logical.begin(), logical.end(), base);
        const std::span<const std::uint64_t> lanes(
            physical.data() + base, static_cast<std::size_t>(w));
        EXPECT_EQ(congestion_of_logical(logical, *map).per_bank,
                  congestion_of_physical(lanes, w).per_bank);
      }
    }
  }
}

// --- The DMM's CRCW merge goes through the same tally --------------------

TEST(BankTally, DmmLowestLaneWinsAndSanitizerNamesIt) {
  const std::uint32_t w = 8;
  const AddressMap map(Scheme::kRaw, w, w);
  dmm::Dmm machine(dmm::DmmConfig{w, 1}, map);
  dmm::ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);

  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row instr(w);
  for (std::uint32_t t = 0; t < w; ++t) {
    instr[t] = dmm::ThreadOp::store_imm(t, 100 + t);
  }
  instr[3] = dmm::ThreadOp::store_imm(20, 33);
  instr[7] = dmm::ThreadOp::store_imm(20, 77);
  kernel.push(instr);

  const dmm::RunStats stats = machine.run(kernel);
  EXPECT_EQ(machine.load(20), 33u);  // lane 3 stored first
  EXPECT_EQ(stats.max_congestion, 2u);  // 20 and lane 4's 4 share bank 4
  ASSERT_EQ(sanitizer.count(dmm::FindingKind::kWriteConflict), 1u);
  const dmm::Finding& f = sanitizer.findings().back();
  EXPECT_EQ(f.thread, 7u);
  EXPECT_EQ(f.other_thread, 3u);  // the winning lane
  EXPECT_EQ(f.logical, 20u);
}

}  // namespace
}  // namespace rapsim::core
