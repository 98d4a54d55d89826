#include "dmm/trace.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "telemetry/json.hpp"
#include "util/stats.hpp"

namespace rapsim::dmm {

namespace {

constexpr const char* kCsvHeader =
    "warp,instruction,start,stages,completion,active_threads,"
    "unique_requests";

[[noreturn]] void fail_csv(std::size_t line, const std::string& what) {
  throw std::invalid_argument("trace csv: line " + std::to_string(line) +
                              ": " + what);
}

std::uint64_t parse_field(const std::string& field, std::size_t line) {
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(field, &used, 10);
    if (used != field.size()) throw std::invalid_argument(field);
    return value;
  } catch (const std::exception&) {
    fail_csv(line, "malformed number '" + field + "'");
  }
}

/// Fold one dispatch of the phase's instruction into its stats.
void add_dispatch(PhaseStats& phase, const DispatchRecord& d) {
  if (phase.dispatches == 0) {
    phase.first_start = d.start;
    phase.last_completion = d.completion;
  } else {
    phase.first_start = std::min(phase.first_start, d.start);
    phase.last_completion = std::max(phase.last_completion, d.completion);
  }
  ++phase.dispatches;
  phase.slots += d.stages;
  phase.max_congestion = std::max(phase.max_congestion, d.stages);
  phase.avg_congestion = static_cast<double>(phase.slots) /
                         static_cast<double>(phase.dispatches);
}

}  // namespace

std::string Trace::to_csv() const {
  std::ostringstream out;
  out << "warp,instruction,start,stages,completion,active_threads,"
         "unique_requests\n";
  for (const auto& d : dispatches) {
    out << d.warp << ',' << d.instruction << ',' << d.start << ','
        << d.stages << ',' << d.completion << ',' << d.active_threads << ','
        << d.unique_requests << '\n';
  }
  return out.str();
}

Trace Trace::from_csv(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  std::size_t line_no = 0;

  if (!std::getline(in, line)) fail_csv(1, "empty input");
  ++line_no;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != kCsvHeader) {
    fail_csv(line_no, std::string("expected header '") + kCsvHeader + "'");
  }

  Trace trace;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    std::array<std::uint64_t, 7> fields{};
    std::size_t field = 0, begin = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i < line.size() && line[i] != ',') continue;
      if (field == fields.size()) fail_csv(line_no, "too many fields");
      fields[field++] = parse_field(line.substr(begin, i - begin), line_no);
      begin = i + 1;
    }
    if (field != fields.size()) {
      fail_csv(line_no, "expected " + std::to_string(fields.size()) +
                            " fields, got " + std::to_string(field));
    }
    DispatchRecord record;
    record.warp = static_cast<std::uint32_t>(fields[0]);
    record.instruction = static_cast<std::uint32_t>(fields[1]);
    record.start = fields[2];
    record.stages = static_cast<std::uint32_t>(fields[3]);
    record.completion = fields[4];
    record.active_threads = static_cast<std::uint32_t>(fields[5]);
    record.unique_requests = static_cast<std::uint32_t>(fields[6]);
    trace.dispatches.push_back(record);
  }
  return trace;
}

std::string Trace::to_string() const {
  std::ostringstream out;
  for (const auto& d : dispatches) {
    out << "warp " << d.warp << " instr " << d.instruction << ": stages ["
        << d.start << ", " << d.start + d.stages - 1 << "] congestion "
        << d.stages << " completes at t=" << d.completion << " ("
        << d.unique_requests << " unique requests, " << d.active_threads
        << " active threads)\n";
  }
  return out.str();
}

PhaseStats phase_stats(const Trace& trace, std::uint32_t instruction) {
  PhaseStats phase;
  phase.instruction = instruction;
  for (const auto& d : trace.dispatches) {
    if (d.instruction == instruction) add_dispatch(phase, d);
  }
  return phase;
}

std::vector<PhaseStats> per_instruction_stats(const Trace& trace) {
  std::map<std::uint32_t, PhaseStats> by_instruction;
  for (const auto& d : trace.dispatches) {
    PhaseStats& phase = by_instruction[d.instruction];
    phase.instruction = d.instruction;
    add_dispatch(phase, d);
  }
  std::vector<PhaseStats> phases;
  phases.reserve(by_instruction.size());
  for (const auto& [instruction, phase] : by_instruction) {
    phases.push_back(phase);
  }
  return phases;
}

std::string render_phase_timeline(const Trace& trace) {
  std::ostringstream out;
  for (const auto& phase : per_instruction_stats(trace)) {
    out << "instr " << phase.instruction << ": [" << phase.first_start << ", "
        << phase.last_completion << "]  dispatches " << phase.dispatches
        << "  slots " << phase.slots << "  congestion avg "
        << util::format_fixed(phase.avg_congestion, 2) << " max "
        << phase.max_congestion << '\n';
  }
  return out.str();
}

std::string to_chrome_trace(const Trace& trace,
                            const ChromeTraceOptions& options) {
  telemetry::JsonWriter json;
  json.begin_object();
  json.key("traceEvents").begin_array();

  // Metadata: name the process and one thread per warp so Perfetto shows
  // "warp N" track titles instead of bare tids.
  json.begin_object();
  json.kv("name", "process_name").kv("ph", "M").kv("pid", 0).kv("tid", 0);
  json.key("args").begin_object();
  json.kv("name", std::string_view(options.process_name));
  json.end_object();
  json.end_object();

  std::set<std::uint32_t> warps;
  for (const auto& d : trace.dispatches) warps.insert(d.warp);
  for (const std::uint32_t warp : warps) {
    json.begin_object();
    json.kv("name", "thread_name").kv("ph", "M").kv("pid", 0).kv("tid", warp);
    json.key("args").begin_object();
    json.kv("name", std::string_view("warp " + std::to_string(warp)));
    json.end_object();
    json.end_object();
  }

  for (const auto& d : trace.dispatches) {
    // Pipeline occupancy: slots [start, start + stages).
    json.begin_object();
    json.kv("name", std::string_view("i" + std::to_string(d.instruction) +
                                     " c" + std::to_string(d.stages)));
    json.kv("cat", "dispatch").kv("ph", "X").kv("pid", 0).kv("tid", d.warp);
    json.kv("ts", d.start).kv("dur", static_cast<std::uint64_t>(d.stages));
    json.key("args").begin_object();
    json.kv("instruction", d.instruction);
    json.kv("congestion", d.stages);
    json.kv("unique_requests", d.unique_requests);
    json.kv("active_threads", d.active_threads);
    json.kv("completion", d.completion);
    json.end_object();
    json.end_object();

    // Memory latency tail: the last request enters the pipeline at slot
    // start + stages - 1 and completes at `completion`, so the in-flight
    // window after the pipeline slots is [start + stages, completion].
    const std::uint64_t tail_start = d.start + d.stages;
    if (options.latency_spans && d.completion > tail_start) {
      json.begin_object();
      json.kv("name", "latency");
      json.kv("cat", "latency").kv("ph", "X").kv("pid", 0).kv("tid", d.warp);
      json.kv("ts", tail_start).kv("dur", d.completion - tail_start);
      json.end_object();
    }

    if (options.congestion_counter) {
      json.begin_object();
      json.kv("name", "congestion").kv("ph", "C").kv("pid", 0);
      json.kv("ts", d.start);
      json.key("args").begin_object();
      json.kv("slots", d.stages);
      json.end_object();
      json.end_object();
    }
  }

  json.end_array();
  json.kv("displayTimeUnit", "ms");
  json.end_object();
  return json.str();
}

}  // namespace rapsim::dmm
