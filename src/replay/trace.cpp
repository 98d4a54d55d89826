#include "replay/trace.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/hash.hpp"

namespace rapsim::replay {

namespace {

constexpr char kBinaryMagic[4] = {'R', 'A', 'P', 'T'};
constexpr std::uint8_t kBinaryEnd = 0xFF;
constexpr const char* kTextMagic = "rapsim-trace";

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("trace: " + what);
}

[[noreturn]] void fail_line(std::size_t line, const std::string& what) {
  fail("line " + std::to_string(line) + ": " + what);
}

[[noreturn]] void fail_offset(std::size_t offset, const std::string& what) {
  fail("byte " + std::to_string(offset) + ": " + what);
}

bool has_addrs(RecordKind kind) {
  return kind == RecordKind::kRead || kind == RecordKind::kWrite ||
         kind == RecordKind::kAtomic;
}

std::optional<RecordKind> kind_from_name(const std::string& name) {
  if (name == "read") return RecordKind::kRead;
  if (name == "write") return RecordKind::kWrite;
  if (name == "atomic") return RecordKind::kAtomic;
  if (name == "reg") return RecordKind::kRegister;
  return std::nullopt;
}

// --- little-endian binary primitives -----------------------------------

/// Append `v` as one little-endian word.
template <typename Word>
void put_le(std::string& out, Word v) {
  char bytes[sizeof(Word)];
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(bytes, &v, sizeof(Word));
  } else {
    for (std::size_t i = 0; i < sizeof(Word); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  }
  out.append(bytes, sizeof(Word));
}

void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }

// --- binary encoding ----------------------------------------------------
// Header: magic, version, width, num_threads (u32 each) and memory_size
// (u64). Record: kind (1 byte) and instr (u32); all but barriers then
// carry warp (u32), lane_mask (u64) and one u64 per address. A single
// kBinaryEnd byte ends the stream.

constexpr std::size_t kBinaryHeaderBytes = sizeof(kBinaryMagic) + 3 * 4 + 8;

std::size_t binary_record_bytes(const TraceRecord& record) {
  return record.kind == RecordKind::kBarrier
             ? 1 + 4
             : 1 + 4 + 4 + 8 + 8 * record.addrs.size();
}

void encode_header(std::string& out, const TraceHeader& header) {
  out.append(kBinaryMagic, sizeof(kBinaryMagic));
  put_u32(out, header.version);
  put_u32(out, header.width);
  put_u32(out, header.num_threads);
  put_u64(out, header.memory_size);
}

void encode_record(std::string& out, const TraceRecord& record) {
  out.push_back(static_cast<char>(record.kind));
  put_u32(out, record.instr);
  if (record.kind == RecordKind::kBarrier) return;
  put_u32(out, record.warp);
  put_u64(out, record.lane_mask);
  for (const std::uint64_t addr : record.addrs) put_u64(out, addr);
}

/// The little-endian word at `p`; the caller has checked the bytes exist.
template <typename Word>
Word load_le(const char* p) {
  Word v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(Word));
  } else {
    for (std::size_t i = 0; i < sizeof(Word); ++i) {
      v |= static_cast<Word>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
  }
  return v;
}

/// Decodes a binary trace held in memory. `offset` is the next byte to
/// decode, and the position errors cite; every read checks the bytes
/// that remain before it touches them.
struct BinaryDecoder {
  std::string_view bytes;
  std::size_t& offset;

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes.size() - offset;
  }

  TraceHeader header() {
    if (bytes.substr(0, 4) != std::string_view(kBinaryMagic, 4)) {
      fail_offset(0, "bad magic (expected RAPT)");
    }
    offset = 4;
    TraceHeader header;
    header.version = header_field<std::uint32_t>("version");
    if (header.version != kTraceVersion) {
      fail_offset(4, "unsupported version " + std::to_string(header.version) +
                         " (expected " + std::to_string(kTraceVersion) + ")");
    }
    header.width = header_field<std::uint32_t>("width");
    header.num_threads = header_field<std::uint32_t>("threads");
    header.memory_size = header_field<std::uint64_t>("size");
    try {
      header.validate();
    } catch (const std::invalid_argument& e) {
      fail_offset(offset, e.what());
    }
    return header;
  }

  /// Decode the next record into `record` (a fresh one); false at the
  /// end sentinel, once no byte follows it.
  bool next(TraceRecord& record) {
    if (remaining() == 0) {
      fail_offset(offset, "truncated stream (missing end sentinel)");
    }
    const auto tag = static_cast<std::uint8_t>(bytes[offset++]);
    if (tag == kBinaryEnd) {
      if (remaining() != 0) {
        fail_offset(offset, "trailing bytes after end sentinel");
      }
      return false;
    }
    if (tag < static_cast<std::uint8_t>(RecordKind::kRead) ||
        tag > static_cast<std::uint8_t>(RecordKind::kBarrier)) {
      fail_offset(offset, "unknown record tag " + std::to_string(tag));
    }
    record.kind = static_cast<RecordKind>(tag);
    record.instr = word<std::uint32_t>();
    if (record.kind == RecordKind::kBarrier) return true;
    record.warp = word<std::uint32_t>();
    record.lane_mask = word<std::uint64_t>();
    if (has_addrs(record.kind)) {
      // The declared addresses must all be there before the vector is
      // sized for them; a short stream fails at its first partial word.
      const auto active =
          static_cast<std::size_t>(std::popcount(record.lane_mask));
      if (remaining() / 8 < active) {
        fail_offset(offset + remaining() / 8 * 8, "truncated record");
      }
      record.addrs.resize(active);
      for (std::uint64_t& addr : record.addrs) addr = take<std::uint64_t>();
    }
    return true;
  }

  /// A header field; a truncated one is reported 4 bytes past its start.
  template <typename Word>
  Word header_field(const char* what) {
    if (remaining() < sizeof(Word)) {
      fail_offset(offset + 4, std::string("truncated header (") + what + ")");
    }
    return take<Word>();
  }

  /// A record field.
  template <typename Word>
  Word word() {
    if (remaining() < sizeof(Word)) fail_offset(offset, "truncated record");
    return take<Word>();
  }

  /// The next word; the caller has checked that it is there.
  template <typename Word>
  Word take() {
    const Word v = load_le<Word>(bytes.data() + offset);
    offset += sizeof(Word);
    return v;
  }
};

/// validator.check(record), its error prefixed with the byte offset.
void check_at_offset(TraceValidator& validator, const TraceRecord& record,
                     std::size_t offset) {
  try {
    validator.check(record);
  } catch (const std::invalid_argument& e) {
    fail_offset(offset, e.what());
  }
}

}  // namespace

const char* record_kind_name(RecordKind kind) noexcept {
  switch (kind) {
    case RecordKind::kRead: return "read";
    case RecordKind::kWrite: return "write";
    case RecordKind::kAtomic: return "atomic";
    case RecordKind::kRegister: return "reg";
    case RecordKind::kBarrier: return "barrier";
  }
  return "?";
}

void TraceHeader::validate() const {
  if (version != kTraceVersion) {
    fail("unsupported version " + std::to_string(version) + " (expected " +
         std::to_string(kTraceVersion) + ")");
  }
  if (width == 0 || width > kMaxTraceWidth) {
    fail("width must be in [1, " + std::to_string(kMaxTraceWidth) + "], got " +
         std::to_string(width));
  }
  if (num_threads == 0) fail("num_threads must be > 0");
  if (num_threads > kMaxTraceThreads) {
    fail("num_threads " + std::to_string(num_threads) + " exceeds the cap of " +
         std::to_string(kMaxTraceThreads));
  }
  if (memory_size == 0) fail("memory_size must be > 0");
}

TraceValidator::TraceValidator(const TraceHeader& header,
                               std::size_t expected_records)
    : header_(header) {
  // Each record adds at most two keys (its own and its instruction's),
  // and the table stays at most half full.
  if (expected_records > 0) {
    rehash(std::bit_ceil(std::max<std::size_t>(64, 4 * expected_records)));
  }
}

std::pair<std::uint64_t, bool> TraceValidator::insert(std::uint64_t key,
                                                      bool barrier) {
  if (2 * (used_ + 1) > slots_.size()) {
    rehash(slots_.empty() ? 64 : 2 * slots_.size());
  }
  const std::size_t mask = slots_.size() - 1;
  // Fibonacci hashing, linear probing (as in core::BankTally).
  for (std::size_t s = static_cast<std::size_t>(
           (key * 0x9e3779b97f4a7c15ull) >> shift_);
       ; s = (s + 1) & mask) {
    std::uint64_t& slot = slots_[s];
    if (slot == kEmpty) {
      slot = barrier ? key | kBarrierBit : key;
      ++used_;
      return {slot, true};
    }
    if ((slot & ~kBarrierBit) == key) return {slot, false};
  }
}

void TraceValidator::rehash(std::size_t size) {
  std::vector<std::uint64_t> old =
      std::exchange(slots_, std::vector<std::uint64_t>(size, kEmpty));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  used_ = 0;
  for (const std::uint64_t slot : old) {
    if (slot != kEmpty) insert(slot & ~kBarrierBit, (slot & kBarrierBit) != 0);
  }
}

void TraceValidator::check(const TraceRecord& record) {
  // The "record (instr i, warp w): " prefix is built only on failure.
  const auto reject = [&record](const std::string& what) {
    fail("record (instr " + std::to_string(record.instr) + ", warp " +
         std::to_string(record.warp) + "): " + what);
  };
  if (record.instr >= kMaxTraceInstructions) {
    reject("instruction index exceeds the cap of " +
           std::to_string(kMaxTraceInstructions));
  }
  // Lowering makes one op per active lane of an access or register
  // record and one per thread of a barrier.
  const auto count_ops = [&](std::uint64_t ops) {
    ops_ += ops;
    if (ops_ > kMaxTraceOps) {
      reject("lowered op count exceeds the cap of " +
             std::to_string(kMaxTraceOps));
    }
  };
  const std::uint64_t instr_key =
      static_cast<std::uint64_t>(record.instr) << 32;
  if (record.kind == RecordKind::kBarrier) {
    if (record.warp != 0 || record.lane_mask != 0 || !record.addrs.empty()) {
      reject("barrier records carry no warp/mask/addresses");
    }
    const auto [slot, inserted] = insert(instr_key | kInstrKey, true);
    if (!inserted) {
      reject((slot & kBarrierBit) != 0
                 ? "duplicate barrier marker"
                 : "instruction already has access records");
    }
    count_ops(header_.num_threads);
    return;
  }

  if (record.warp >= header_.num_warps()) {
    reject("warp id out of range (trace has " +
           std::to_string(header_.num_warps()) + " warps)");
  }
  if (record.lane_mask == 0) reject("lane mask must be non-zero");
  // Lanes must exist: inside the warp width, and inside the (possibly
  // partial) last warp.
  const std::uint32_t first_thread = record.warp * header_.width;
  const std::uint32_t lanes_in_warp =
      std::min(header_.width, header_.num_threads - first_thread);
  if (lanes_in_warp < 64 && (record.lane_mask >> lanes_in_warp) != 0) {
    reject("lane mask has bits beyond lane " +
           std::to_string(lanes_in_warp - 1));
  }
  const auto active =
      static_cast<std::size_t>(std::popcount(record.lane_mask));
  if (has_addrs(record.kind)) {
    if (record.addrs.size() != active) {
      reject("expected " + std::to_string(active) + " addresses (mask " +
             "popcount), got " + std::to_string(record.addrs.size()));
    }
    for (const std::uint64_t addr : record.addrs) {
      if (addr >= header_.memory_size) {
        reject("address " + std::to_string(addr) + " outside memory of size " +
               std::to_string(header_.memory_size));
      }
    }
  } else if (!record.addrs.empty()) {
    reject("register records carry no addresses");
  }

  if (!insert(instr_key | record.warp, false).second) {
    reject("duplicate (instruction, warp) record");
  }
  const auto [slot, inserted] = insert(instr_key | kInstrKey, false);
  if (!inserted && (slot & kBarrierBit) != 0) {
    reject("instruction already marked as a barrier");
  }
  count_ops(active);
}

void AccessTrace::validate() const {
  header.validate();
  TraceValidator validator(header, records.size());
  for (const TraceRecord& record : records) validator.check(record);
}

// --- writer ------------------------------------------------------------

TraceWriter::TraceWriter(std::ostream& out, const TraceHeader& header,
                         TraceEncoding encoding)
    : out_(out), header_(header), encoding_(encoding), validator_(header) {
  header_.validate();
  if (encoding_ == TraceEncoding::kText) {
    out_ << kTextMagic << " v" << header_.version << '\n'
         << "width " << header_.width << '\n'
         << "threads " << header_.num_threads << '\n'
         << "size " << header_.memory_size << '\n';
  } else {
    std::string buf;
    encode_header(buf, header_);
    out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
}

void TraceWriter::write(const TraceRecord& record) {
  if (finished_) throw std::logic_error("TraceWriter: write after finish");
  validator_.check(record);
  if (encoding_ == TraceEncoding::kText) {
    if (record.kind == RecordKind::kBarrier) {
      out_ << "barrier " << record.instr << '\n';
      return;
    }
    char mask[32];
    std::snprintf(mask, sizeof(mask), "%llx",
                  static_cast<unsigned long long>(record.lane_mask));
    out_ << record_kind_name(record.kind) << ' ' << record.instr << ' '
         << record.warp << ' ' << mask;
    for (const std::uint64_t addr : record.addrs) out_ << ' ' << addr;
    out_ << '\n';
    return;
  }
  std::string buf;
  buf.reserve(binary_record_bytes(record));
  encode_record(buf, record);
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void TraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  if (encoding_ == TraceEncoding::kText) {
    out_ << "end\n";
  } else {
    const char end = static_cast<char>(kBinaryEnd);
    out_.write(&end, 1);
  }
  out_.flush();
}

// --- reader ------------------------------------------------------------

TraceReader::TraceReader(std::istream& in)
    : in_(in), validator_(TraceHeader{}) {
  const int first = in_.peek();
  if (first == std::char_traits<char>::eof()) fail("empty input");
  encoding_ = first == kBinaryMagic[0] ? TraceEncoding::kBinary
                                       : TraceEncoding::kText;
  if (encoding_ == TraceEncoding::kText) {
    parse_text_header();
  } else {
    std::ostringstream whole;
    whole << in_.rdbuf();
    bytes_ = std::move(whole).str();
    header_ = BinaryDecoder{bytes_, offset_}.header();
  }
  validator_ = TraceValidator(header_);
}

void TraceReader::parse_text_header() {
  // Expected prologue (comments / blank lines allowed between fields):
  //   rapsim-trace v<version>
  //   width <w> / threads <p> / size <m>   in any order, each exactly once
  bool saw_magic = false;
  bool saw_width = false, saw_threads = false, saw_size = false;
  std::string line;
  while (!(saw_magic && saw_width && saw_threads && saw_size)) {
    if (!std::getline(in_, line)) {
      fail_line(line_ + 1, "unexpected end of input inside the header");
    }
    ++line_;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word)) continue;  // blank / comment-only line
    if (!saw_magic) {
      std::string version;
      if (word != kTextMagic || !(fields >> version) ||
          version.size() < 2 || version[0] != 'v') {
        fail_line(line_, std::string("expected '") + kTextMagic +
                             " v<version>' first");
      }
      try {
        header_.version =
            static_cast<std::uint32_t>(std::stoul(version.substr(1)));
      } catch (const std::exception&) {
        fail_line(line_, "malformed version '" + version + "'");
      }
      if (header_.version != kTraceVersion) {
        fail_line(line_, "unsupported version " +
                             std::to_string(header_.version) + " (expected " +
                             std::to_string(kTraceVersion) + ")");
      }
      saw_magic = true;
    } else if (word == "width" || word == "threads" || word == "size") {
      std::uint64_t value = 0;
      if (!(fields >> value)) {
        fail_line(line_, "expected a number after '" + word + "'");
      }
      bool& seen = word == "width" ? saw_width
                   : word == "threads" ? saw_threads
                                       : saw_size;
      if (seen) fail_line(line_, "duplicate header field '" + word + "'");
      seen = true;
      if (word != "size" && value > std::numeric_limits<std::uint32_t>::max()) {
        fail_line(line_, "'" + word + "' value " + std::to_string(value) +
                             " out of range");
      }
      if (word == "width") {
        header_.width = static_cast<std::uint32_t>(value);
      } else if (word == "threads") {
        header_.num_threads = static_cast<std::uint32_t>(value);
      } else {
        header_.memory_size = value;
      }
    } else {
      fail_line(line_, "expected a header field (width/threads/size), got '" +
                           word + "'");
    }
    std::string extra;
    if (fields >> extra) {
      fail_line(line_, "trailing tokens after '" + word + "'");
    }
  }
  try {
    header_.validate();
  } catch (const std::invalid_argument& e) {
    fail_line(line_, e.what());
  }
}

std::optional<TraceRecord> TraceReader::next() {
  if (done_) return std::nullopt;
  if (encoding_ == TraceEncoding::kBinary) {
    TraceRecord record;
    if (!BinaryDecoder{bytes_, offset_}.next(record)) {
      done_ = true;
      return std::nullopt;
    }
    check_at_offset(validator_, record, offset_);
    return record;
  }
  auto record = next_text();
  if (record) {
    try {
      validator_.check(*record);
    } catch (const std::invalid_argument& e) {
      fail_line(line_, e.what());
    }
  }
  return record;
}

std::optional<TraceRecord> TraceReader::next_text() {
  std::string line;
  while (std::getline(in_, line)) {
    ++line_;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word)) continue;

    if (word == "end") {
      std::string extra;
      if (fields >> extra) fail_line(line_, "trailing tokens after 'end'");
      while (std::getline(in_, line)) {
        ++line_;
        if (const auto hash = line.find('#'); hash != std::string::npos) {
          line.resize(hash);
        }
        std::istringstream rest(line);
        if (rest >> word) fail_line(line_, "content after 'end'");
      }
      done_ = true;
      return std::nullopt;
    }

    TraceRecord record;
    if (word == "barrier") {
      record.kind = RecordKind::kBarrier;
      if (!(fields >> record.instr)) {
        fail_line(line_, "expected 'barrier <instr>'");
      }
      std::string extra;
      if (fields >> extra) fail_line(line_, "trailing tokens after barrier");
      return record;
    }

    const auto kind = kind_from_name(word);
    if (!kind) {
      fail_line(line_, "unknown record kind '" + word +
                           "' (read/write/atomic/reg/barrier/end)");
    }
    record.kind = *kind;
    std::string mask;
    if (!(fields >> record.instr >> record.warp >> mask)) {
      fail_line(line_, "expected '" + word + " <instr> <warp> <mask-hex> "
                       "[addr ...]'");
    }
    try {
      std::size_t used = 0;
      record.lane_mask = std::stoull(mask, &used, 16);
      if (used != mask.size()) throw std::invalid_argument(mask);
    } catch (const std::exception&) {
      fail_line(line_, "malformed hex lane mask '" + mask + "'");
    }
    std::uint64_t addr = 0;
    while (fields >> addr) record.addrs.push_back(addr);
    if (!fields.eof()) fail_line(line_, "malformed address list");
    return record;
  }
  fail_line(line_ + 1, "unexpected end of input (missing 'end' line)");
}

// --- whole-trace conveniences ------------------------------------------

std::string to_text(const AccessTrace& trace) {
  std::ostringstream out;
  TraceWriter writer(out, trace.header, TraceEncoding::kText);
  for (const TraceRecord& record : trace.records) writer.write(record);
  writer.finish();
  return out.str();
}

std::string to_binary(const AccessTrace& trace) {
  // TraceWriter's checks in its order (header, then each record before
  // its bytes), encoding straight into one buffer of the exact size.
  TraceValidator validator(trace.header);
  trace.header.validate();
  std::size_t bytes = kBinaryHeaderBytes + 1;
  for (const TraceRecord& record : trace.records) {
    bytes += binary_record_bytes(record);
  }
  std::string out;
  out.reserve(bytes);
  encode_header(out, trace.header);
  for (const TraceRecord& record : trace.records) {
    validator.check(record);
    encode_record(out, record);
  }
  out.push_back(static_cast<char>(kBinaryEnd));
  return out;
}

AccessTrace parse_trace(std::istream& in) {
  TraceReader reader(in);
  AccessTrace trace;
  trace.header = reader.header();
  while (auto record = reader.next()) {
    trace.records.push_back(std::move(*record));
  }
  return trace;
}

AccessTrace parse_trace(const std::string& bytes) {
  if (bytes.empty() || bytes[0] != kBinaryMagic[0]) {
    std::istringstream in(bytes);
    return parse_trace(in);
  }
  std::size_t offset = 0;
  BinaryDecoder decoder{bytes, offset};
  AccessTrace trace;
  trace.header = decoder.header();
  TraceValidator validator(trace.header);
  for (TraceRecord record; decoder.next(record); record = TraceRecord{}) {
    check_at_offset(validator, record, offset);
    trace.records.push_back(std::move(record));
  }
  return trace;
}

AccessTrace load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  try {
    return parse_trace(in);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void save_trace(const AccessTrace& trace, const std::string& path,
                TraceEncoding encoding) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("trace: cannot write " + tmp);
    TraceWriter writer(out, trace.header, encoding);
    for (const TraceRecord& record : trace.records) writer.write(record);
    writer.finish();
    if (!out) throw std::runtime_error("trace: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("trace: cannot rename " + tmp + " to " + path);
  }
}

std::uint64_t content_hash(const AccessTrace& trace) {
  return util::fnv1a(to_binary(trace));
}

}  // namespace rapsim::replay
