// Tests for the DMM shared-memory sanitizer: seeded out-of-bounds
// accesses, uninitialized reads, and CRCW write-write races must be
// caught, attributed to the right warp/lane/instruction, and reported
// through the telemetry registry.

#include "dmm/sanitizer.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/mapping.hpp"
#include "dmm/config.hpp"
#include "dmm/kernel.hpp"
#include "dmm/machine.hpp"
#include "telemetry/metrics.hpp"

namespace rapsim::dmm {
namespace {

dmm::DmmConfig small_config(std::uint32_t width) {
  dmm::DmmConfig config;
  config.width = width;
  config.latency = 2;
  return config;
}

TEST(Sanitizer, CatchesSeededOutOfBoundsAccess) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);  // 16 words
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);

  // Lane 2 of warp 0 stores past the end of memory; without the sanitizer
  // this would throw. With it, the lane is recorded and skipped.
  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row instr(w);
  for (std::uint32_t t = 0; t < w; ++t) {
    instr[t] = dmm::ThreadOp::store_imm(t, 7);
  }
  instr[2] = dmm::ThreadOp::store_imm(map.size() + 3, 7);  // seeded bug
  kernel.push(instr);

  const auto stats = machine.run(kernel);
  EXPECT_EQ(stats.dispatches, 1u);
  ASSERT_EQ(sanitizer.count(FindingKind::kOutOfBounds), 1u);
  const Finding& f = sanitizer.findings().front();
  EXPECT_EQ(f.kind, FindingKind::kOutOfBounds);
  EXPECT_EQ(f.warp, 0u);
  EXPECT_EQ(f.thread, 2u);
  EXPECT_EQ(f.instruction, 0u);
  EXPECT_EQ(f.logical, map.size() + 3);
  // The three healthy lanes still executed.
  EXPECT_EQ(machine.load(0), 7u);
  EXPECT_EQ(machine.load(3), 7u);
}

TEST(Sanitizer, WithoutSanitizerOutOfBoundsStillThrows) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row instr(w, dmm::ThreadOp::none());
  instr[0] = dmm::ThreadOp::load(map.size() + 1);
  kernel.push(instr);
  EXPECT_THROW(static_cast<void>(machine.run(kernel)), std::out_of_range);
}

TEST(Sanitizer, CatchesSeededWriteWriteConflict) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);

  // Lanes 1 and 3 both store to logical 5 with DIFFERENT values: the CRCW
  // arbitrary rule resolves it (lane 1 wins) but the race is real.
  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row instr(w);
  instr[0] = dmm::ThreadOp::store_imm(0, 10);
  instr[1] = dmm::ThreadOp::store_imm(5, 11);
  instr[2] = dmm::ThreadOp::store_imm(2, 12);
  instr[3] = dmm::ThreadOp::store_imm(5, 13);  // seeded race
  kernel.push(instr);

  static_cast<void>(machine.run(kernel));
  ASSERT_EQ(sanitizer.count(FindingKind::kWriteConflict), 1u);
  const Finding& f = sanitizer.findings().back();
  EXPECT_EQ(f.kind, FindingKind::kWriteConflict);
  EXPECT_EQ(f.thread, 3u);
  EXPECT_EQ(f.other_thread, 1u);  // the winning lane
  EXPECT_EQ(f.logical, 5u);
  EXPECT_EQ(machine.load(5), 11u);  // lowest lane won
}

TEST(Sanitizer, BroadcastStoreOfOneValueIsBenign) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);

  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row instr(w);
  for (std::uint32_t t = 0; t < w; ++t) {
    instr[t] = dmm::ThreadOp::store_imm(9, 42);  // same cell, same value
  }
  kernel.push(instr);
  static_cast<void>(machine.run(kernel));
  EXPECT_EQ(sanitizer.count(FindingKind::kWriteConflict), 0u);
  EXPECT_TRUE(sanitizer.clean());
}

TEST(Sanitizer, CatchesUninitializedReads) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  // Initialize only the first row via the host interface.
  for (std::uint64_t a = 0; a < w; ++a) machine.store(a, a);

  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row instr(w);
  for (std::uint32_t t = 0; t < w; ++t) {
    instr[t] = dmm::ThreadOp::load(t);  // row 0: initialized
  }
  instr[3] = dmm::ThreadOp::load(w + 2);  // row 1: never written
  kernel.push(instr);

  static_cast<void>(machine.run(kernel));
  ASSERT_EQ(sanitizer.count(FindingKind::kUninitializedRead), 1u);
  EXPECT_EQ(sanitizer.findings().front().thread, 3u);
  EXPECT_EQ(sanitizer.findings().front().logical, w + 2u);
}

TEST(Sanitizer, KernelStoreInitializesForLaterReads) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);

  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row store(w);
  dmm::Row load(w);
  for (std::uint32_t t = 0; t < w; ++t) {
    store[t] = dmm::ThreadOp::store_imm(t, t);
    load[t] = dmm::ThreadOp::load(t);
  }
  kernel.push(store);
  kernel.push_barrier();
  kernel.push(load);
  static_cast<void>(machine.run(kernel));
  EXPECT_TRUE(sanitizer.clean()) << sanitizer.report();
}

TEST(Sanitizer, AtomicAddReadsTheCell) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);

  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row instr(w, dmm::ThreadOp::none());
  instr[0] = dmm::ThreadOp::atomic_add(6);  // never initialized
  kernel.push(instr);
  static_cast<void>(machine.run(kernel));
  EXPECT_EQ(sanitizer.count(FindingKind::kUninitializedRead), 1u);
}

TEST(Sanitizer, FillIdentityMarksEverythingWritten) {
  const std::uint32_t w = 8;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  machine.fill_identity();

  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row instr(w);
  for (std::uint32_t t = 0; t < w; ++t) {
    instr[t] = dmm::ThreadOp::load(t * w);  // one full column
  }
  kernel.push(instr);
  static_cast<void>(machine.run(kernel));
  EXPECT_TRUE(sanitizer.clean()) << sanitizer.report();
}

TEST(Sanitizer, FlushesCountersIntoTelemetryRegistry) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);

  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row instr(w, dmm::ThreadOp::none());
  instr[0] = dmm::ThreadOp::load(map.size() + 1);  // oob
  instr[1] = dmm::ThreadOp::load(3);               // uninitialized
  kernel.push(instr);
  static_cast<void>(machine.run(kernel));

  telemetry::MetricsRegistry registry;
  const telemetry::Labels labels = {{"scheme", "RAW"}};
  sanitizer.flush_into(registry, labels);
  ASSERT_NE(registry.find_counter("sanitizer.out_of_bounds", labels), nullptr);
  EXPECT_EQ(registry.find_counter("sanitizer.out_of_bounds", labels)->value(),
            1u);
  EXPECT_EQ(
      registry.find_counter("sanitizer.uninitialized_read", labels)->value(),
      1u);
  EXPECT_EQ(registry.find_counter("sanitizer.write_conflict", labels)->value(),
            0u);
  EXPECT_EQ(registry.find_counter("sanitizer.findings", labels)->value(), 2u);
  // The read-only probe does not materialize absent metrics.
  EXPECT_EQ(registry.find_counter("sanitizer.out_of_bounds", {}), nullptr);
}

TEST(Sanitizer, ReportListsFindingsAndBoundsThem) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  sanitizer.max_findings = 2;
  machine.set_sanitizer(&sanitizer);

  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row instr(w);
  for (std::uint32_t t = 0; t < w; ++t) {
    instr[t] = dmm::ThreadOp::load(t);  // all four uninitialized
  }
  kernel.push(instr);
  static_cast<void>(machine.run(kernel));

  EXPECT_EQ(sanitizer.count(FindingKind::kUninitializedRead), 4u);
  EXPECT_EQ(sanitizer.findings().size(), 2u);  // bounded
  const std::string report = sanitizer.report();
  EXPECT_NE(report.find("uninitialized-read"), std::string::npos);
  EXPECT_NE(report.find("2 more"), std::string::npos);

  sanitizer.clear_findings();
  EXPECT_TRUE(sanitizer.clean());
}

// --- cross-warp race detection (epoch shadow, DESIGN.md §14) ----------

/// Two-warp kernel: warp 0 runs `first` at instruction 0, warp 1 runs
/// `second` at instruction 1, optionally separated by a barrier.
dmm::Kernel two_warp_kernel(std::uint32_t w, dmm::ThreadOp first,
                            dmm::ThreadOp second, bool barrier,
                            std::string first_label = {},
                            std::string second_label = {}) {
  dmm::Kernel kernel;
  kernel.num_threads = 2 * w;
  dmm::Row a(kernel.num_threads, dmm::ThreadOp::none());
  a[0] = first;
  kernel.push(std::move(a), std::move(first_label));
  if (barrier) kernel.push_barrier();
  dmm::Row b(kernel.num_threads, dmm::ThreadOp::none());
  b[w] = second;
  kernel.push(std::move(b), std::move(second_label));
  return kernel;
}

TEST(SanitizerRace, CrossWarpRawIsDetectedAndAttributed) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  machine.fill_identity();

  const auto kernel =
      two_warp_kernel(w, dmm::ThreadOp::store_imm(5, 1), dmm::ThreadOp::load(5),
                      /*barrier=*/false, "stage", "drain");
  static_cast<void>(machine.run(kernel));

  ASSERT_EQ(sanitizer.count(FindingKind::kRawRace), 1u) << sanitizer.report();
  EXPECT_EQ(sanitizer.race_total(), 1u);
  const Finding& f = sanitizer.findings().front();
  EXPECT_EQ(f.kind, FindingKind::kRawRace);
  EXPECT_EQ(f.warp, 1u);        // the racing reader
  EXPECT_EQ(f.other_warp, 0u);  // the earlier writer
  EXPECT_EQ(f.logical, 5u);
  EXPECT_EQ(f.instruction, 1u);
  EXPECT_EQ(f.other_instruction, 0u);
  // Labels cross-reference the static finding's site names.
  EXPECT_EQ(f.site, "drain");
  EXPECT_EQ(f.other_site, "stage");
  EXPECT_NE(f.to_string().find("'drain'"), std::string::npos);
  EXPECT_NE(f.to_string().find("'stage'"), std::string::npos);
}

TEST(SanitizerRace, BarrierOrdersTheSamePair) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  machine.fill_identity();

  const auto kernel = two_warp_kernel(w, dmm::ThreadOp::store_imm(5, 1),
                                      dmm::ThreadOp::load(5),
                                      /*barrier=*/true);
  static_cast<void>(machine.run(kernel));
  EXPECT_EQ(sanitizer.race_total(), 0u) << sanitizer.report();
}

TEST(SanitizerRace, SameWarpAccessesNeverRace) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  machine.fill_identity();

  // Both accesses in warp 0: program order covers them.
  dmm::Kernel kernel;
  kernel.num_threads = w;
  dmm::Row a(w, dmm::ThreadOp::none());
  a[0] = dmm::ThreadOp::store_imm(5, 1);
  kernel.push(std::move(a));
  dmm::Row b(w, dmm::ThreadOp::none());
  b[1] = dmm::ThreadOp::load(5);
  kernel.push(std::move(b));
  static_cast<void>(machine.run(kernel));
  EXPECT_EQ(sanitizer.race_total(), 0u) << sanitizer.report();
}

TEST(SanitizerRace, WawAndWarAreClassified) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  machine.fill_identity();

  const auto waw = two_warp_kernel(w, dmm::ThreadOp::store_imm(3, 1),
                                   dmm::ThreadOp::store_imm(3, 2),
                                   /*barrier=*/false);
  static_cast<void>(machine.run(waw));
  EXPECT_EQ(sanitizer.count(FindingKind::kWawRace), 1u) << sanitizer.report();

  const auto war = two_warp_kernel(w, dmm::ThreadOp::load(7),
                                   dmm::ThreadOp::store_imm(7, 1),
                                   /*barrier=*/false);
  static_cast<void>(machine.run(war));
  EXPECT_EQ(sanitizer.count(FindingKind::kWarRace), 1u) << sanitizer.report();
}

TEST(SanitizerRace, RunBoundaryAdvancesTheEpoch) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  machine.fill_identity();

  // Write in one run, read in the next: kernel launches are ordered.
  dmm::Kernel writer;
  writer.num_threads = 2 * w;
  dmm::Row a(writer.num_threads, dmm::ThreadOp::none());
  a[0] = dmm::ThreadOp::store_imm(5, 1);
  writer.push(std::move(a));
  static_cast<void>(machine.run(writer));

  dmm::Kernel reader;
  reader.num_threads = 2 * w;
  dmm::Row b(reader.num_threads, dmm::ThreadOp::none());
  b[w] = dmm::ThreadOp::load(5);
  reader.push(std::move(b));
  static_cast<void>(machine.run(reader));
  EXPECT_EQ(sanitizer.race_total(), 0u) << sanitizer.report();
}

TEST(SanitizerRace, AtomicAtomicIsExemptButAtomicStoreIsNot) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  machine.fill_identity();

  // Two warps atomically incrementing one cell: serialized by the
  // machine, not a race.
  const auto atomics = two_warp_kernel(w, dmm::ThreadOp::atomic_add(2),
                                       dmm::ThreadOp::atomic_add(2),
                                       /*barrier=*/false);
  static_cast<void>(machine.run(atomics));
  EXPECT_EQ(sanitizer.race_total(), 0u) << sanitizer.report();

  // An atomic against a plain store still races.
  const auto mixed = two_warp_kernel(w, dmm::ThreadOp::atomic_add(2),
                                     dmm::ThreadOp::store_imm(2, 9),
                                     /*barrier=*/false);
  static_cast<void>(machine.run(mixed));
  EXPECT_GE(sanitizer.race_total(), 1u) << sanitizer.report();
}

TEST(SanitizerRace, TwoReaderSlotsCatchEveryWarPair) {
  const std::uint32_t w = 2;
  const core::AddressMap map(core::Scheme::kRaw, w, 8);  // 16 words
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  machine.fill_identity();

  // Three warps read cell 1 (several readers per warp), then warp 0
  // writes it: the two distinct-warp reader slots must still expose a
  // WAR against warps 1 and 2 even though warp 0's own read is benign.
  dmm::Kernel kernel;
  kernel.num_threads = 3 * w;
  dmm::Row reads(kernel.num_threads, dmm::ThreadOp::none());
  for (std::uint32_t t = 0; t < kernel.num_threads; ++t) {
    reads[t] = dmm::ThreadOp::load(1);
  }
  kernel.push(std::move(reads));
  dmm::Row write(kernel.num_threads, dmm::ThreadOp::none());
  write[0] = dmm::ThreadOp::store_imm(1, 3);
  kernel.push(std::move(write));
  static_cast<void>(machine.run(kernel));
  // WAR against at least one foreign warp (two when both slots held
  // distinct foreign warps at write time).
  EXPECT_GE(sanitizer.count(FindingKind::kWarRace), 1u) << sanitizer.report();
  for (const Finding& f : sanitizer.findings()) {
    if (f.kind != FindingKind::kWarRace) continue;
    EXPECT_EQ(f.warp, 0u);
    EXPECT_NE(f.other_warp, 0u);
  }
}

TEST(SanitizerRace, FlushEmitsRaceCountersAndSiteLabels) {
  const std::uint32_t w = 4;
  const core::AddressMap map(core::Scheme::kRaw, w, w);
  dmm::Dmm machine(small_config(w), map);
  ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  machine.fill_identity();

  const auto kernel =
      two_warp_kernel(w, dmm::ThreadOp::store_imm(5, 1), dmm::ThreadOp::load(5),
                      /*barrier=*/false, "stage", "drain");
  static_cast<void>(machine.run(kernel));

  telemetry::MetricsRegistry registry;
  const telemetry::Labels labels = {{"scheme", "RAW"}};
  sanitizer.flush_into(registry, labels);
  ASSERT_NE(registry.find_counter("sanitizer.raw_race", labels), nullptr);
  EXPECT_EQ(registry.find_counter("sanitizer.raw_race", labels)->value(), 1u);
  EXPECT_EQ(registry.find_counter("sanitizer.races", labels)->value(), 1u);
  telemetry::Labels site_labels = labels;
  site_labels["site"] = "drain";
  site_labels["kind"] = "raw-race";
  ASSERT_NE(registry.find_counter("sanitizer.race_site", site_labels), nullptr);
  EXPECT_EQ(registry.find_counter("sanitizer.race_site", site_labels)->value(),
            1u);
}

}  // namespace
}  // namespace rapsim::dmm
