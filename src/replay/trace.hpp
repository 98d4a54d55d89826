// Portable shared-memory access traces (trace replay, pillar 1).
//
// An AccessTrace is a machine-independent recording of the *logical*
// address stream a kernel sends to shared memory: one record per
// dispatched warp-instruction (which warp, which lanes were active, the
// per-lane logical addresses, and the op class — read / write / atomic /
// register-only) plus explicit barrier markers. Addresses are logical —
// pre-AddressMap — so one trace replays under ANY scheme (RAW, RAS, RAP,
// PAD): that is the whole point. Width, thread count and the logical
// memory size travel in the header, so a trace is self-describing.
//
// Two encodings round-trip losslessly through the same record model:
//
//   * text    — line-based and human-writable (examples/*.trace), '#'
//               comments, validated with line-numbered errors exactly
//               like the kernelir parser;
//   * binary  — a compact little-endian stream ("RAPT" magic, version,
//               header, tagged records, 0xFF end sentinel) for captured
//               traces too large to ship as text.
//
// Both are streaming: TraceWriter emits records as they arrive (capture
// never buffers the whole stream), TraceReader sniffs the encoding from
// the first byte and validates every record on the fly — lane masks
// inside the warp width, address counts matching the mask popcount,
// addresses inside the declared memory, no duplicate (instruction, warp)
// pairs, no instruction that is both a barrier and an access, and
// instruction indices / thread counts inside the replay resource caps
// (kMaxTraceInstructions, kMaxTraceThreads).
//
// content_hash() hashes the canonical binary encoding (FNV-1a 64) and is
// the identity the campaign engine (campaign.hpp) keys its result cache
// on: same stream, same hash, regardless of which encoding carried it.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rapsim::replay {

/// Op class of one warp-instruction record. Congestion (and therefore
/// RunStats) depends only on this class and the addresses: loads of any
/// flavor cost the same, as do stores, so the trace does not distinguish
/// kLoad from kLoadAdd or kStore from kStoreImm.
enum class RecordKind : std::uint8_t {
  kRead = 1,      // per-lane addresses, CRCW merging applies
  kWrite = 2,     // per-lane addresses, CRCW merging applies
  kAtomic = 3,    // per-lane addresses, same-address requests serialize
  kRegister = 4,  // active lanes but no memory traffic (no addresses)
  kBarrier = 5,   // block-wide barrier marker (warp/mask/addresses unused)
};

[[nodiscard]] const char* record_kind_name(RecordKind kind) noexcept;

struct TraceRecord {
  RecordKind kind = RecordKind::kRead;
  std::uint32_t instr = 0;      // kernel instruction index
  std::uint32_t warp = 0;       // warp id (0 for barriers)
  std::uint64_t lane_mask = 0;  // bit t set = lane t active (0 for barriers)
  // Logical addresses of the active lanes, in ascending lane order;
  // size() == popcount(lane_mask) for read/write/atomic, empty otherwise.
  std::vector<std::uint64_t> addrs;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::uint32_t kMaxTraceWidth = 64;  // lane mask is 64-bit
// Resource bounds: replay materializes a dense num_instr × num_threads
// dmm::Kernel, so both dimensions are capped. A tiny crafted file must
// not be able to demand a multi-GB allocation (or overflow the
// instruction-count arithmetic) before anything notices; the validator
// rejects records past these limits with the usual line/offset errors.
inline constexpr std::uint32_t kMaxTraceInstructions = 1u << 20;
inline constexpr std::uint32_t kMaxTraceThreads = 1u << 20;

struct TraceHeader {
  std::uint32_t version = kTraceVersion;
  std::uint32_t width = 32;        // banks / threads per warp (w)
  std::uint32_t num_threads = 0;   // p; partial last warp allowed
  std::uint64_t memory_size = 0;   // logical words; every address < this

  [[nodiscard]] std::uint32_t num_warps() const noexcept {
    return width ? (num_threads + width - 1) / width : 0;
  }
  /// Throws std::invalid_argument when the header is unusable (zero
  /// width/threads/size, width > 64, unsupported version).
  void validate() const;

  friend bool operator==(const TraceHeader&, const TraceHeader&) = default;
};

/// Incremental record validator shared by the readers and by
/// AccessTrace::validate(): call check() for every record in stream
/// order; throws std::invalid_argument naming the offending field. The
/// header is taken as given — validate it first with
/// TraceHeader::validate().
class TraceValidator {
 public:
  explicit TraceValidator(const TraceHeader& header) : header_(header) {}
  void check(const TraceRecord& record);

 private:
  // One insert-only open-addressing table holds both kinds of key a
  // check consults: (instr << 32) | warp for each access record, and
  // (instr << 32) | kInstrKey for each instruction, flagged when it is a
  // barrier. Warp ids stay below kMaxTraceThreads, so the two never
  // collide; no key is ever all ones (kEmpty).
  static constexpr std::uint64_t kInstrKey = 0xFFFFFFFFu;
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t key = kEmpty;
    bool barrier = false;
  };
  /// Insert `key` with `barrier` unless present. Returns the key's slot
  /// and whether it was inserted.
  std::pair<Slot*, bool> insert(std::uint64_t key, bool barrier);
  void grow();

  TraceHeader header_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::size_t used_ = 0;
  unsigned shift_ = 64;      // 64 - log2(slots_.size())
};

struct AccessTrace {
  TraceHeader header;
  std::vector<TraceRecord> records;

  /// Full-trace validation (header + every record through TraceValidator).
  void validate() const;

  friend bool operator==(const AccessTrace&, const AccessTrace&) = default;
};

enum class TraceEncoding { kText, kBinary };

/// Streaming writer: header on construction, one record per write(),
/// finish() emits the terminator (binary end sentinel / text "end" line)
/// and flushes. Records are validated on the way out, so a writer cannot
/// produce a stream its reader would reject.
class TraceWriter {
 public:
  TraceWriter(std::ostream& out, const TraceHeader& header,
              TraceEncoding encoding);
  void write(const TraceRecord& record);
  void finish();

 private:
  std::ostream& out_;
  TraceHeader header_;
  TraceEncoding encoding_;
  TraceValidator validator_;
  bool finished_ = false;
};

/// Streaming reader: sniffs the encoding from the first byte ('R' of the
/// binary magic vs. anything textual), parses and validates the header,
/// then yields one validated record per next() until the terminator.
/// Errors carry the 1-based line number (text) or byte offset (binary).
class TraceReader {
 public:
  explicit TraceReader(std::istream& in);
  [[nodiscard]] const TraceHeader& header() const noexcept { return header_; }
  [[nodiscard]] TraceEncoding encoding() const noexcept { return encoding_; }
  /// The next record, or nullopt after the stream terminator (at which
  /// point trailing garbage has already been rejected).
  std::optional<TraceRecord> next();

 private:
  std::istream& in_;
  TraceHeader header_;
  TraceEncoding encoding_ = TraceEncoding::kText;
  TraceValidator validator_;
  std::size_t line_ = 0;    // text: lines consumed so far
  std::size_t offset_ = 0;  // binary: bytes consumed so far
  bool done_ = false;

  void parse_text_header();
  void parse_binary_header();
  std::optional<TraceRecord> next_text();
  std::optional<TraceRecord> next_binary();
};

// Whole-trace conveniences over the streaming classes.
[[nodiscard]] std::string to_text(const AccessTrace& trace);
[[nodiscard]] std::string to_binary(const AccessTrace& trace);
[[nodiscard]] AccessTrace parse_trace(std::istream& in);
[[nodiscard]] AccessTrace parse_trace(const std::string& bytes);

/// Read a trace file (either encoding, sniffed). Throws
/// std::runtime_error when the file cannot be opened.
[[nodiscard]] AccessTrace load_trace(const std::string& path);
/// Write a trace file in the requested encoding (atomically: tmp +
/// rename, so a killed writer never leaves a torn file behind).
void save_trace(const AccessTrace& trace, const std::string& path,
                TraceEncoding encoding);

/// FNV-1a 64 over the canonical binary encoding — the cache identity of
/// the stream, independent of the encoding it was loaded from.
[[nodiscard]] std::uint64_t content_hash(const AccessTrace& trace);

}  // namespace rapsim::replay
