// Codec tests for the portable access-trace format: property-based
// text <-> binary round-trips across widths, parser rejection of
// malformed input (including the resource caps), agreement of the two
// decoder entry points on mutated bytes, hash identity, the sparse store
// of lowered kernels (op for op against the kernels they were captured
// from), and the dispatch-trace CSV round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <optional>
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

/// validate()'s message for `trace`, or "" when it is accepted.
std::string validation_error(const AccessTrace& trace) {
  try {
    trace.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// 747 bytes of text: 64 barriers over 2^20 threads, which would lower
/// to 2^26 ops (about 1.9 GB of kernel store).
std::string op_cap_repro() {
  std::string text =
      "rapsim-trace v1\nwidth 64\nthreads 1048576\nsize 64\n";
  for (int i = 0; i < 64; ++i) text += "barrier " + std::to_string(i) + "\n";
  return text + "end\n";
}

/// The same shape in memory: `barriers` barrier records over 2^20 threads.
AccessTrace barrier_trace(std::uint32_t barriers) {
  AccessTrace trace;
  trace.header.width = 64;
  trace.header.num_threads = 1u << 20;
  trace.header.memory_size = 64;
  for (std::uint32_t i = 0; i < barriers; ++i) {
    TraceRecord barrier;
    barrier.kind = RecordKind::kBarrier;
    barrier.instr = i;
    trace.records.push_back(barrier);
  }
  return trace;
}

TEST(ReplayTraceErrors, RejectsTraceAboveTheOpCap) {
  const std::string text = op_cap_repro();
  ASSERT_EQ(text.size(), 747u);
  // The 33rd barrier takes the op count past 2^25.
  expect_rejected(text,
                  "line 37: trace: record (instr 32, warp 0): lowered op "
                  "count exceeds the cap of 33554432");
  const AccessTrace trace = barrier_trace(64);
  try {
    (void)replay::lower_to_kernel(trace);
    FAIL() << "expected lower_to_kernel to reject the trace";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cap of 33554432"),
              std::string::npos)
        << "actual message: " << e.what();
  }
  // The writer validates too, so neither encoding can carry the trace.
  EXPECT_THROW((void)replay::to_text(trace), std::invalid_argument);
  EXPECT_THROW((void)replay::to_binary(trace), std::invalid_argument);
}

TEST(ReplayTraceErrors, OpCapAdmitsExactlyItsLimit) {
  // 32 barriers over 2^20 threads lower to exactly kMaxTraceOps ops.
  static_assert(replay::kMaxTraceOps == 32ull << 20);
  EXPECT_NO_THROW(barrier_trace(32).validate());
  EXPECT_THROW(barrier_trace(33).validate(), std::invalid_argument);
  // Access records count one op per active lane.
  AccessTrace trace = barrier_trace(31);
  for (std::uint32_t warp = 0; warp < trace.header.num_warps(); ++warp) {
    TraceRecord reg;
    reg.kind = RecordKind::kRegister;
    reg.instr = 31;
    reg.warp = warp;
    reg.lane_mask = ~std::uint64_t{0};
    trace.records.push_back(reg);
  }
  EXPECT_NO_THROW(trace.validate());
  TraceRecord one_more;
  one_more.kind = RecordKind::kRegister;
  one_more.instr = 32;
  one_more.lane_mask = 1;
  trace.records.push_back(one_more);
  EXPECT_EQ(validation_error(trace),
            "trace: record (instr 32, warp 0): lowered op count exceeds the "
            "cap of 33554432");
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

// ---- the two decoder entry points agree on mutated bytes ----

/// One entry point's result on some bytes: the decoded trace, or the
/// what() of the invalid_argument it threw. Any other exception fails
/// the test.
struct ParseOutcome {
  std::optional<AccessTrace> trace;
  std::string error;

  friend bool operator==(const ParseOutcome&, const ParseOutcome&) = default;
};

template <typename Parse>
ParseOutcome parse_outcome(Parse&& parse) {
  ParseOutcome outcome;
  try {
    outcome.trace = parse();
  } catch (const std::invalid_argument& e) {
    outcome.error = e.what();
  }
  return outcome;
}

/// The seed documents the mutants start from: every examples/*.trace,
/// and the text and binary encodings of four catalog captures at w = 8
/// (vm-shearsort's records arrive out of warp order).
std::vector<std::pair<std::string, std::string>> mutation_seeds() {
  std::vector<std::pair<std::string, std::string>> seeds;
  for (const auto& entry :
       std::filesystem::directory_iterator(RAPSIM_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".trace") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    seeds.emplace_back(entry.path().filename().string(), bytes.str());
  }
  std::sort(seeds.begin(), seeds.end());
  for (const char* name : {"transpose-crsw", "reduction-interleaved",
                           "vm-mergesort-round", "vm-shearsort"}) {
    const tools::WorkloadKernel entry = tools::workload_kernel(name, 8);
    const auto map = core::make_matrix_map(core::Scheme::kRaw, 8, entry.rows, 0);
    dmm::Dmm recorder(dmm::DmmConfig{8, 2}, *map);
    const AccessTrace trace = replay::capture_run(recorder, entry.kernel);
    seeds.emplace_back(std::string(name) + " (text)", replay::to_text(trace));
    seeds.emplace_back(std::string(name) + " (binary)",
                       replay::to_binary(trace));
  }
  return seeds;
}

TEST(ReplayTraceMutation, EntryPointsAgreeOnMutatedBytes) {
  // A fixed budget of byte flips, truncations and in-place splices under
  // a fixed seed. The string entry point decodes binary bytes in place
  // and the stream entry point reads them into a buffer first; both must
  // accept the same mutants as the same trace and reject the rest with
  // the same message, byte offset or line number included.
  constexpr std::uint32_t kMutantsPerSeed = 240;
  util::Pcg32 rng(2014);
  const auto seeds = mutation_seeds();
  ASSERT_GE(seeds.size(), 10u);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const auto& [name, original] : seeds) {
    ASSERT_FALSE(original.empty()) << name;
    const auto size = static_cast<std::uint32_t>(original.size());
    for (std::uint32_t m = 0; m < kMutantsPerSeed; ++m) {
      std::string bytes = original;
      switch (m % 3) {
        case 0:  // flip one byte (binary headers get their share)
          bytes[rng.bounded(m % 2 ? std::min(size, 24u) : size)] ^=
              static_cast<char>(1 + rng.bounded(255));
          break;
        case 1:  // truncate
          bytes.resize(rng.bounded(size));
          break;
        case 2: {  // overwrite a run with a run copied from elsewhere
          const std::uint32_t len = 1 + rng.bounded(std::min(size, 24u));
          const std::uint32_t from = rng.bounded(size - len + 1);
          const std::uint32_t to = rng.bounded(size - len + 1);
          bytes.replace(to, len, original, from, len);
          break;
        }
      }
      const ParseOutcome from_string =
          parse_outcome([&] { return replay::parse_trace(bytes); });
      const ParseOutcome from_stream = parse_outcome([&] {
        std::istringstream in(bytes);
        return replay::parse_trace(in);
      });
      ASSERT_EQ(from_string.error, from_stream.error)
          << name << " mutant " << m;
      ASSERT_TRUE(from_string == from_stream) << name << " mutant " << m;
      ++(from_string.trace ? accepted : rejected);
    }
  }
  // The budget exercises both outcomes.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, accepted);
}

// ---- the lowered kernels' sparse store ----

/// Every instruction's thread ids ascend below num_threads and no stored
/// op is kNone.
void expect_well_formed(const dmm::Kernel& kernel, const std::string& label) {
  for (std::size_t i = 0; i < kernel.instructions.size(); ++i) {
    const dmm::Instruction instr = kernel.instructions[i];
    ASSERT_EQ(instr.threads().size(), instr.size()) << label << " instr " << i;
    for (std::size_t k = 0; k < instr.size(); ++k) {
      ASSERT_LT(instr.threads()[k], kernel.num_threads)
          << label << " instr " << i;
      ASSERT_TRUE(k == 0 || instr.threads()[k - 1] < instr.threads()[k])
          << label << " instr " << i;
      ASSERT_NE(instr[k].kind, dmm::OpKind::kNone) << label << " instr " << i;
    }
  }
}

/// What replay lowering makes of `op`: a trace keeps only the op class
/// and the address, so reads come back as kLoad, writes as kStoreImm 0,
/// atomics as kAtomicAdd and register ops as min_max(0, 1).
dmm::ThreadOp replayed(const dmm::ThreadOp& op) {
  switch (op.kind) {
    case dmm::OpKind::kLoad:
    case dmm::OpKind::kLoadAdd:
    case dmm::OpKind::kLoadMulAdd:
      return dmm::ThreadOp::load(op.logical);
    case dmm::OpKind::kStore:
    case dmm::OpKind::kStoreImm:
      return dmm::ThreadOp::store_imm(op.logical, 0);
    case dmm::OpKind::kAtomicAdd:
      return dmm::ThreadOp::atomic_add(op.logical);
    case dmm::OpKind::kMinMax:
      return dmm::ThreadOp::min_max(0, 1);
    default:
      return op;
  }
}

/// The replay of `original` equals it op for op — same instructions,
/// threads and addresses — apart from replayed()'s substitutions. A
/// trace has no record of trailing idle instructions, so the replay may
/// stop early only where the original has nothing left to run.
void expect_replay_exact(const dmm::Kernel& original,
                         const dmm::Kernel& lowered,
                         const std::string& label) {
  expect_well_formed(lowered, label);
  ASSERT_EQ(lowered.num_threads, original.num_threads) << label;
  ASSERT_LE(lowered.instructions.size(), original.instructions.size())
      << label;
  for (std::size_t i = 0; i < original.instructions.size(); ++i) {
    const dmm::Instruction want = original.instructions[i];
    if (i >= lowered.instructions.size()) {
      ASSERT_TRUE(want.empty()) << label << " instr " << i;
      continue;
    }
    const dmm::Instruction got = lowered.instructions[i];
    ASSERT_TRUE(std::ranges::equal(got.threads(), want.threads()))
        << label << " instr " << i;
    for (std::size_t k = 0; k < want.size(); ++k) {
      const dmm::ThreadOp expected = replayed(want[k]);
      EXPECT_EQ(got[k].kind, expected.kind) << label << " instr " << i;
      EXPECT_EQ(got[k].logical, expected.logical) << label << " instr " << i;
      EXPECT_EQ(got[k].immediate, expected.immediate)
          << label << " instr " << i;
      EXPECT_EQ(got[k].reg, expected.reg) << label << " instr " << i;
      EXPECT_EQ(got[k].reg2, expected.reg2) << label << " instr " << i;
    }
  }
}

void expect_capture_replays_exactly(const dmm::Kernel& kernel,
                                    std::uint32_t width, std::uint64_t rows,
                                    const std::string& label) {
  expect_well_formed(kernel, label);
  const auto map = core::make_matrix_map(core::Scheme::kRaw, width, rows, 0);
  dmm::Dmm recorder(dmm::DmmConfig{width, 2}, *map);
  const AccessTrace trace = replay::capture_run(recorder, kernel);
  expect_replay_exact(kernel, replay::lower_to_kernel(trace),
                      label + " replayed");
}

TEST(KernelIndex, CatalogSuiteAndReplayLoweringsAreExact) {
  for (const std::uint32_t width : {16u, 32u, 64u}) {
    const std::string w = " w=" + std::to_string(width);
    for (const tools::WorkloadKernel& entry : tools::workload_kernels(width)) {
      expect_capture_replays_exactly(entry.kernel, width, entry.rows,
                                     entry.name + w);
    }
    for (const vm::SuiteProgram& program : vm::suite_programs(width)) {
      const vm::LoweredProgram lowered =
          vm::lower_program(vm::assemble(program.text, width));
      expect_capture_replays_exactly(lowered.kernel, width, lowered.rows,
                                     program.name + w);
    }
  }
  // Random traces: every record's lanes and addresses, and nothing else.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AccessTrace trace = random_trace(16, seed);
    const std::string label = "random seed " + std::to_string(seed);
    const dmm::Kernel kernel = replay::lower_to_kernel(trace);
    expect_well_formed(kernel, label);
    std::size_t records_ops = 0;
    for (const TraceRecord& record : trace.records) {
      const dmm::Instruction instr = kernel.instructions[record.instr];
      if (record.kind == RecordKind::kBarrier) {
        EXPECT_EQ(instr.size(), kernel.num_threads) << label;
        records_ops += kernel.num_threads;
        continue;
      }
      const std::uint32_t first = record.warp * trace.header.width;
      const dmm::Instruction lanes =
          instr.slice(first, first + trace.header.width);
      ASSERT_EQ(lanes.size(),
                static_cast<std::size_t>(std::popcount(record.lane_mask)))
          << label;
      records_ops += lanes.size();
      std::size_t k = 0;
      for (std::uint64_t mask = record.lane_mask; mask != 0;
           mask &= mask - 1, ++k) {
        EXPECT_EQ(lanes.threads()[k],
                  first + static_cast<std::uint32_t>(std::countr_zero(mask)))
            << label;
        if (record.kind != RecordKind::kRegister) {
          EXPECT_EQ(lanes[k].logical, record.addrs[k]) << label;
        }
      }
    }
    EXPECT_EQ(kernel.instructions.ops().size(), records_ops) << label;
  }
}

TEST(KernelIndex, LoweringSortsRecordsThatArriveOutOfWarpOrder) {
  AccessTrace trace;
  trace.header.width = 8;
  trace.header.num_threads = 20;  // warps 0, 1 and a 4-lane warp 2
  trace.header.memory_size = 64;
  // Each lane reads the address equal to its thread id, so an op that
  // did not move with its thread shows.
  const auto record = [](std::uint32_t instr, std::uint32_t warp,
                         std::uint64_t mask) {
    TraceRecord r;
    r.kind = RecordKind::kRead;
    r.instr = instr;
    r.warp = warp;
    r.lane_mask = mask;
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      r.addrs.push_back(warp * 8 + static_cast<std::uint64_t>(
                                       std::countr_zero(m)));
    }
    return r;
  };
  trace.records = {record(0, 2, 0x9), record(1, 0, 0x1), record(0, 0, 0x82),
                   record(0, 1, 0x10)};
  const dmm::Kernel kernel = replay::lower_to_kernel(trace);
  expect_well_formed(kernel, "out of order");
  const dmm::Instruction first = kernel.instructions[0];
  EXPECT_EQ(std::vector<std::uint32_t>(first.threads().begin(),
                                       first.threads().end()),
            (std::vector<std::uint32_t>{1, 7, 12, 16, 19}));
  for (std::size_t k = 0; k < first.size(); ++k) {
    EXPECT_EQ(first[k].logical, first.threads()[k]);
  }
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
