// Codec tests for the portable access-trace format: property-based
// text <-> binary round-trips across widths, parser rejection of
// malformed input, hash identity, the active-thread index of lowered
// kernels, and the dispatch-trace CSV round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "dmm/trace.hpp"
#include "replay/replay.hpp"
#include "replay/trace.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/suite.hpp"
#include "workload_kernels.hpp"

namespace {

using namespace rapsim;
using replay::AccessTrace;
using replay::RecordKind;
using replay::TraceRecord;

/// A pseudo-random but always-valid trace: full and partial warps,
/// every record kind, barriers interleaved with access instructions.
AccessTrace random_trace(std::uint32_t width, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  AccessTrace trace;
  trace.header.width = width;
  // Sometimes a partial last warp (p not a multiple of w).
  const std::uint32_t warps = 2 + rng.bounded(3);
  const std::uint32_t partial = rng.bounded(2) ? rng.bounded(width) : 0;
  trace.header.num_threads = warps * width - partial;
  trace.header.memory_size = 64ull * width;

  const std::uint32_t instrs = 4 + rng.bounded(8);
  for (std::uint32_t instr = 0; instr < instrs; ++instr) {
    if (rng.bounded(8) == 0) {
      TraceRecord barrier;
      barrier.kind = RecordKind::kBarrier;
      barrier.instr = instr;
      trace.records.push_back(barrier);
      continue;
    }
    for (std::uint32_t warp = 0; warp < warps; ++warp) {
      if (rng.bounded(4) == 0) continue;  // warp idle at this instr
      const std::uint32_t lanes = warp + 1 == warps && partial
                                      ? width - partial
                                      : width;
      TraceRecord record;
      record.kind = static_cast<RecordKind>(1 + rng.bounded(4));
      record.instr = instr;
      record.warp = warp;
      for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        if (rng.bounded(3) == 0) continue;
        record.lane_mask |= std::uint64_t{1} << lane;
        if (record.kind != RecordKind::kRegister) {
          record.addrs.push_back(rng() % trace.header.memory_size);
        }
      }
      if (record.lane_mask == 0) continue;  // validator demands >= 1 lane
      trace.records.push_back(std::move(record));
    }
  }
  return trace;
}

TEST(ReplayTrace, TextRoundTripAcrossWidths) {
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      const AccessTrace trace = random_trace(width, seed);
      const AccessTrace back = replay::parse_trace(replay::to_text(trace));
      EXPECT_EQ(trace, back) << "width " << width << " seed " << seed;
    }
  }
}

TEST(ReplayTrace, BinaryRoundTripAcrossWidths) {
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    for (std::uint64_t seed = 100; seed <= 124; ++seed) {
      const AccessTrace trace = random_trace(width, seed);
      const AccessTrace back = replay::parse_trace(replay::to_binary(trace));
      EXPECT_EQ(trace, back) << "width " << width << " seed " << seed;
    }
  }
}

TEST(ReplayTrace, EncodingsAgreeAndHashIsEncodingIndependent) {
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    const AccessTrace trace = random_trace(width, 7);
    const AccessTrace from_text = replay::parse_trace(replay::to_text(trace));
    const AccessTrace from_bin = replay::parse_trace(replay::to_binary(trace));
    EXPECT_EQ(from_text, from_bin);
    EXPECT_EQ(replay::content_hash(from_text), replay::content_hash(from_bin));
  }
}

TEST(ReplayTrace, HashChangesWhenStreamChanges) {
  AccessTrace trace = random_trace(32, 11);
  const std::uint64_t original = replay::content_hash(trace);
  ASSERT_FALSE(trace.records.empty());
  for (TraceRecord& record : trace.records) {
    if (record.addrs.empty()) continue;
    record.addrs[0] = (record.addrs[0] + 1) % trace.header.memory_size;
    break;
  }
  EXPECT_NE(original, replay::content_hash(trace));
}

TEST(ReplayTrace, ReaderReportsHeaderAndEncoding) {
  const AccessTrace trace = random_trace(16, 3);
  std::istringstream in(replay::to_binary(trace));
  replay::TraceReader reader(in);
  EXPECT_EQ(reader.encoding(), replay::TraceEncoding::kBinary);
  EXPECT_EQ(reader.header(), trace.header);
  std::size_t records = 0;
  while (reader.next()) ++records;
  EXPECT_EQ(records, trace.records.size());
}

// ---- rejection: text ----

std::string valid_text() {
  return "rapsim-trace v1\nwidth 16\nthreads 16\nsize 256\n"
         "read 0 0 ffff 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15\n"
         "barrier 1\n"
         "end\n";
}

void expect_rejected(const std::string& bytes, const char* fragment) {
  try {
    (void)replay::parse_trace(bytes);
    FAIL() << "expected rejection mentioning '" << fragment << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ReplayTraceErrors, AcceptsTheBaselineDocument) {
  EXPECT_NO_THROW((void)replay::parse_trace(valid_text()));
}

TEST(ReplayTraceErrors, RejectsWrongVersion) {
  std::string text = valid_text();
  text.replace(text.find("v1"), 2, "v9");
  expect_rejected(text, "unsupported version");
}

TEST(ReplayTraceErrors, RejectsMissingHeaderField) {
  std::string text = valid_text();
  text.erase(text.find("size 256\n"), 9);
  expect_rejected(text, "size");
}

TEST(ReplayTraceErrors, RejectsDuplicateHeaderField) {
  std::string text = valid_text();
  text.insert(text.find("threads"), "width 16\n");
  expect_rejected(text, "duplicate header field");
}

TEST(ReplayTraceErrors, RejectsMissingEnd) {
  std::string text = valid_text();
  text.erase(text.find("end\n"));
  expect_rejected(text, "end");
}

TEST(ReplayTraceErrors, RejectsContentAfterEnd) {
  expect_rejected(valid_text() + "read 5 0 1 0\n", "after 'end'");
}

TEST(ReplayTraceErrors, RejectsAddressCountMismatch) {
  expect_rejected(
      "rapsim-trace v1\nwidth 16\nthreads 16\nsize 256\n"
      "read 0 0 ffff 1 2 3\nend\n",
      "popcount");
}

TEST(ReplayTraceErrors, RejectsAddressOutOfRange) {
  expect_rejected(
      "rapsim-trace v1\nwidth 16\nthreads 16\nsize 256\n"
      "read 0 0 1 256\nend\n",
      "outside memory");
}

TEST(ReplayTraceErrors, RejectsDuplicateRecord) {
  expect_rejected(
      "rapsim-trace v1\nwidth 16\nthreads 16\nsize 256\n"
      "read 0 0 1 0\nwrite 0 0 1 1\nend\n",
      "duplicate (instruction, warp)");
}

TEST(ReplayTraceErrors, RejectsBarrierAccessConflict) {
  expect_rejected(
      "rapsim-trace v1\nwidth 16\nthreads 16\nsize 256\n"
      "barrier 0\nread 0 0 1 0\nend\n",
      "barrier");
}

TEST(ReplayTraceErrors, RejectsWarpOutOfRange) {
  expect_rejected(
      "rapsim-trace v1\nwidth 16\nthreads 16\nsize 256\n"
      "read 0 3 1 0\nend\n",
      "warp id out of range");
}

TEST(ReplayTraceErrors, RejectsMaskBeyondPartialWarp) {
  // 24 threads at width 16: warp 1 has lanes 0..7 only.
  expect_rejected(
      "rapsim-trace v1\nwidth 16\nthreads 24\nsize 256\n"
      "read 0 1 100 0\nend\n",
      "lane mask has bits beyond");
}

TEST(ReplayTraceErrors, RejectsOverflowingHeaderValues) {
  // 4294967312 truncates to 16 as a uint32 — must be an error, not an
  // accepted header with the wrong width/threads.
  expect_rejected(
      "rapsim-trace v1\nwidth 4294967312\nthreads 16\nsize 256\n"
      "barrier 0\nend\n",
      "out of range");
  expect_rejected(
      "rapsim-trace v1\nwidth 16\nthreads 4294967312\nsize 256\n"
      "barrier 0\nend\n",
      "out of range");
}

TEST(ReplayTraceErrors, RejectsThreadCountAboveCap) {
  expect_rejected("rapsim-trace v1\nwidth 16\nthreads 2097152\nsize 256\n"
                  "barrier 0\nend\n",
                  "cap");
}

TEST(ReplayTraceErrors, RejectsInstructionIndexAboveCap) {
  // Unbounded instr would let a tiny trace demand a huge (or, at
  // instr = 2^32 - 1, wrapped-to-zero) kernel allocation in replay.
  expect_rejected(
      "rapsim-trace v1\nwidth 16\nthreads 16\nsize 256\n"
      "read 1048576 0 1 0\nend\n",
      "cap");
  expect_rejected(
      "rapsim-trace v1\nwidth 16\nthreads 16\nsize 256\n"
      "barrier 4294967295\nend\n",
      "cap");
}

TEST(ReplayTraceErrors, RejectsUnknownRecordKind) {
  expect_rejected(
      "rapsim-trace v1\nwidth 16\nthreads 16\nsize 256\n"
      "frobnicate 0 0 1 0\nend\n",
      "frobnicate");
}

TEST(ReplayTraceErrors, ErrorsCarryLineNumbers) {
  try {
    (void)replay::parse_trace(
        "rapsim-trace v1\nwidth 16\nthreads 16\nsize 256\n"
        "read 0 0 1 999\nend\n");
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << "actual message: " << e.what();
  }
}

// ---- rejection: binary ----

TEST(ReplayTraceErrors, RejectsTruncatedBinaryAtEveryPrefix) {
  const std::string bytes = replay::to_binary(random_trace(16, 5));
  // Every strict prefix must be rejected, never accepted or crash.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)replay::parse_trace(bytes.substr(0, len)),
                 std::invalid_argument)
        << "prefix length " << len;
  }
}

TEST(ReplayTraceErrors, RejectsCorruptBinaryMagic) {
  std::string bytes = replay::to_binary(random_trace(16, 6));
  bytes[1] = 'X';  // "RXPT"
  EXPECT_THROW((void)replay::parse_trace(bytes), std::invalid_argument);
}

TEST(ReplayTraceErrors, RejectsWrongBinaryVersion) {
  std::string bytes = replay::to_binary(random_trace(16, 6));
  bytes[4] = 9;  // little-endian version word
  expect_rejected(bytes, "unsupported version");
}

TEST(ReplayTraceErrors, RejectsTrailingBinaryGarbage) {
  const std::string bytes = replay::to_binary(random_trace(16, 6));
  expect_rejected(bytes + "x", "after");
}

TEST(ReplayTraceErrors, RejectsBinaryInstructionIndexAboveCap) {
  // Hand-crafted stream with instr = 2^32 - 1: before the instruction
  // cap this passed validation and wrapped lower_to_kernel's size
  // computation to zero, writing out of bounds.
  std::string bytes = "RAPT";
  const auto u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(v >> 8 * i));
  };
  const auto u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(v >> 8 * i));
  };
  u32(replay::kTraceVersion);
  u32(16);   // width
  u32(16);   // threads
  u64(256);  // size
  bytes.push_back(1);  // read record
  u32(0xFFFFFFFFu);    // instr
  u32(0);              // warp
  u64(1);              // lane mask
  u64(0);              // address
  bytes.push_back(static_cast<char>(0xFF));
  expect_rejected(bytes, "cap");
}

/// validate()'s message for `trace`, or "" when it is accepted.
std::string validation_error(const AccessTrace& trace) {
  try {
    trace.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ReplayTraceErrors, ValidatorMessagesArePinned) {
  AccessTrace trace;
  trace.header.width = 16;
  trace.header.num_threads = 24;  // warp 1 has lanes 0..7
  trace.header.memory_size = 256;
  TraceRecord read;
  read.kind = RecordKind::kRead;
  read.instr = 3;
  read.warp = 1;
  read.lane_mask = 0x3;
  read.addrs = {4, 5};
  TraceRecord barrier;
  barrier.kind = RecordKind::kBarrier;
  barrier.instr = 3;

  trace.records = {read, read};
  EXPECT_EQ(validation_error(trace),
            "trace: record (instr 3, warp 1): duplicate (instruction, warp) "
            "record");
  trace.records = {read, barrier};
  EXPECT_EQ(validation_error(trace),
            "trace: record (instr 3, warp 0): instruction already has access "
            "records");
  TraceRecord wide = read;
  wide.lane_mask = 0x101;  // lane 8 does not exist in the partial warp
  trace.records = {wide};
  EXPECT_EQ(validation_error(trace),
            "trace: record (instr 3, warp 1): lane mask has bits beyond "
            "lane 7");
  trace.records = {barrier, read};
  EXPECT_EQ(validation_error(trace),
            "trace: record (instr 3, warp 1): instruction already marked as "
            "a barrier");
  trace.records = {barrier, barrier};
  EXPECT_EQ(validation_error(trace),
            "trace: record (instr 3, warp 0): duplicate barrier marker");
  // The first failing record is reported, after many valid ones (the
  // validator's table grows past its first size on the way).
  trace.header.num_threads = 16;
  trace.records.clear();
  for (std::uint32_t i = 0; i < 500; ++i) {
    TraceRecord r = read;
    r.instr = i;
    r.warp = 0;
    trace.records.push_back(r);
  }
  EXPECT_EQ(validation_error(trace), "");
  trace.records.push_back(trace.records[123]);
  trace.records.push_back(trace.records[7]);
  EXPECT_EQ(validation_error(trace),
            "trace: record (instr 123, warp 0): duplicate (instruction, "
            "warp) record");
}

// ---- the lowered kernel's active-thread index ----

/// The kernel's index equals a reindex() of a copy, and each list holds
/// exactly the instruction's non-kNone threads, ascending.
void expect_index_exact(const dmm::Kernel& kernel, const std::string& label) {
  ASSERT_TRUE(kernel.indexed()) << label;
  dmm::Kernel copy = kernel;
  copy.reindex();
  for (std::size_t i = 0; i < kernel.instructions.size(); ++i) {
    const auto threads = kernel.active_threads(i);
    const auto rebuilt = copy.active_threads(i);
    ASSERT_TRUE(std::equal(threads.begin(), threads.end(), rebuilt.begin(),
                           rebuilt.end()))
        << label << " instr " << i;
    std::vector<std::uint32_t> expected;
    for (std::uint32_t t = 0; t < kernel.num_threads; ++t) {
      if (kernel.instructions[i][t].kind != dmm::OpKind::kNone) {
        expected.push_back(t);
      }
    }
    ASSERT_EQ(std::vector<std::uint32_t>(threads.begin(), threads.end()),
              expected)
        << label << " instr " << i;
  }
}

TEST(KernelIndex, CatalogSuiteAndReplayLoweringsAreExact) {
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    const std::string w = " w=" + std::to_string(width);
    for (const tools::WorkloadKernel& entry : tools::workload_kernels(width)) {
      expect_index_exact(entry.kernel, entry.name + w);
      const auto map =
          core::make_matrix_map(core::Scheme::kRaw, width, entry.rows, 0);
      dmm::Dmm recorder(dmm::DmmConfig{width, 2}, *map);
      const AccessTrace trace = replay::capture_run(recorder, entry.kernel);
      expect_index_exact(replay::lower_to_kernel(trace),
                         entry.name + " replayed" + w);
    }
    for (const vm::SuiteProgram& program : vm::suite_programs(width)) {
      expect_index_exact(
          vm::lower_program(vm::assemble(program.text, width)).kernel,
          program.name + w);
    }
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_index_exact(replay::lower_to_kernel(random_trace(16, seed)),
                       "random seed " + std::to_string(seed));
  }
}

TEST(KernelIndex, LoweringSortsRecordsThatArriveOutOfWarpOrder) {
  AccessTrace trace;
  trace.header.width = 8;
  trace.header.num_threads = 20;  // warps 0, 1 and a 4-lane warp 2
  trace.header.memory_size = 64;
  const auto record = [](std::uint32_t instr, std::uint32_t warp,
                         std::uint64_t mask) {
    TraceRecord r;
    r.kind = RecordKind::kRead;
    r.instr = instr;
    r.warp = warp;
    r.lane_mask = mask;
    for (int n = std::popcount(mask); n > 0; --n) r.addrs.push_back(9);
    return r;
  };
  trace.records = {record(0, 2, 0x9), record(1, 0, 0x1), record(0, 0, 0x82),
                   record(0, 1, 0x10)};
  const dmm::Kernel kernel = replay::lower_to_kernel(trace);
  expect_index_exact(kernel, "out of order");
  const auto first = kernel.active_threads(0);
  EXPECT_EQ(std::vector<std::uint32_t>(first.begin(), first.end()),
            (std::vector<std::uint32_t>{1, 7, 12, 16, 19}));
}

// ---- dispatch-trace CSV round-trip (dmm::Trace::from_csv) ----

dmm::Trace sample_dispatch_trace() {
  dmm::Trace trace;
  trace.dispatches.push_back({0, 0, 1, 16, 18, 16, 16});
  trace.dispatches.push_back({1, 0, 17, 1, 19, 16, 1});
  trace.dispatches.push_back({0, 2, 20, 4, 25, 8, 4});
  return trace;
}

TEST(DispatchCsv, RoundTripsLosslessly) {
  const dmm::Trace trace = sample_dispatch_trace();
  const dmm::Trace back = dmm::Trace::from_csv(trace.to_csv());
  ASSERT_EQ(back.dispatches.size(), trace.dispatches.size());
  EXPECT_EQ(back.to_csv(), trace.to_csv());
}

TEST(DispatchCsv, RoundTripsTheEmptyTrace) {
  const dmm::Trace back = dmm::Trace::from_csv(dmm::Trace{}.to_csv());
  EXPECT_TRUE(back.dispatches.empty());
}

TEST(DispatchCsv, RejectsMalformedInput) {
  EXPECT_THROW((void)dmm::Trace::from_csv(""), std::invalid_argument);
  EXPECT_THROW((void)dmm::Trace::from_csv("nope\n"), std::invalid_argument);
  const std::string header = dmm::Trace{}.to_csv();
  EXPECT_THROW((void)dmm::Trace::from_csv(header + "1,2,3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)dmm::Trace::from_csv(header + "1,2,3,4,5,6,7,8\n"),
               std::invalid_argument);
  EXPECT_THROW((void)dmm::Trace::from_csv(header + "1,2,x,4,5,6,7\n"),
               std::invalid_argument);
  try {
    (void)dmm::Trace::from_csv(header + "1,2,3,4,5,6,7\n1,2\n");
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << "actual message: " << e.what();
  }
}

}  // namespace
