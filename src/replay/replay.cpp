#include "replay/replay.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace rapsim::replay {

namespace {

RecordKind to_record_kind(dmm::CapturedOpClass op) {
  switch (op) {
    case dmm::CapturedOpClass::kRead: return RecordKind::kRead;
    case dmm::CapturedOpClass::kWrite: return RecordKind::kWrite;
    case dmm::CapturedOpClass::kAtomic: return RecordKind::kAtomic;
    case dmm::CapturedOpClass::kRegister: return RecordKind::kRegister;
  }
  throw std::logic_error("replay: unknown captured op class");
}

}  // namespace

void TraceCaptureSink::begin_kernel(std::uint32_t num_threads,
                                    std::uint32_t width,
                                    std::uint64_t memory_size) {
  trace_ = AccessTrace{};
  trace_.header.width = width;
  trace_.header.num_threads = num_threads;
  trace_.header.memory_size = memory_size;
}

void TraceCaptureSink::on_warp_access(std::uint32_t instr, std::uint32_t warp,
                                      dmm::CapturedOpClass op,
                                      std::uint64_t lane_mask,
                                      std::span<const std::uint64_t> addrs) {
  TraceRecord record;
  record.kind = to_record_kind(op);
  record.instr = instr;
  record.warp = warp;
  record.lane_mask = lane_mask;
  if (record.kind != RecordKind::kRegister) {
    record.addrs.assign(addrs.begin(), addrs.end());
  }
  trace_.records.push_back(std::move(record));
}

void TraceCaptureSink::on_barrier(std::uint32_t instr) {
  TraceRecord record;
  record.kind = RecordKind::kBarrier;
  record.instr = instr;
  trace_.records.push_back(std::move(record));
}

AccessTrace TraceCaptureSink::take() {
  AccessTrace out = std::move(trace_);
  trace_ = AccessTrace{};
  return out;
}

AccessTrace capture_run(dmm::Dmm& machine, const dmm::Kernel& kernel,
                        dmm::RunStats* stats) {
  TraceCaptureSink sink;
  dmm::AccessCapture* previous = machine.capture();
  machine.set_capture(&sink);
  try {
    const dmm::RunStats run_stats = machine.run(kernel);
    if (stats) *stats = run_stats;
  } catch (...) {
    machine.set_capture(previous);
    throw;
  }
  machine.set_capture(previous);
  return sink.take();
}

dmm::Kernel lower_to_kernel(const AccessTrace& trace) {
  trace.validate();

  // validate() bounds every instr below kMaxTraceInstructions, but keep
  // the sizing arithmetic 64-bit so a future relaxation cannot wrap it.
  std::uint64_t num_instr = 0;
  for (const TraceRecord& record : trace.records) {
    num_instr = std::max(num_instr, std::uint64_t{record.instr} + 1);
  }
  if (num_instr > kMaxTraceInstructions) {
    throw std::invalid_argument(
        "replay: trace needs " + std::to_string(num_instr) +
        " instructions, above the cap of " +
        std::to_string(kMaxTraceInstructions));
  }

  const auto count = static_cast<std::size_t>(num_instr);
  dmm::Kernel kernel;
  kernel.num_threads = trace.header.num_threads;
  kernel.instructions.assign(
      count, dmm::Instruction(kernel.num_threads, dmm::ThreadOp::none()));

  // The active-thread index comes straight from the lane masks, never
  // from a rescan of the dense rows: count each instruction's threads
  // (validate() rules out duplicate records, so the counts are exact),
  // turn the counts into start offsets, then fill — each fill advances
  // its instruction's offset, which leaves it at the instruction's end.
  std::vector<std::size_t> ends(count, 0);
  for (const TraceRecord& record : trace.records) {
    ends[record.instr] += record.kind == RecordKind::kBarrier
                              ? kernel.num_threads
                              : static_cast<std::size_t>(
                                    std::popcount(record.lane_mask));
  }
  std::size_t total = 0;
  for (std::size_t& end : ends) {
    const std::size_t threads_here = end;
    end = total;
    total += threads_here;
  }
  std::vector<std::uint32_t> threads(total);

  const std::uint32_t w = trace.header.width;
  for (const TraceRecord& record : trace.records) {
    dmm::Instruction& instr = kernel.instructions[record.instr];
    std::size_t& fill = ends[record.instr];
    if (record.kind == RecordKind::kBarrier) {
      for (std::uint32_t t = 0; t < kernel.num_threads; ++t) {
        instr[t] = dmm::ThreadOp::barrier();
        threads[fill++] = t;
      }
      continue;
    }
    std::size_t next_addr = 0;
    for (std::uint64_t mask = record.lane_mask; mask != 0; mask &= mask - 1) {
      const auto lane = static_cast<std::uint32_t>(std::countr_zero(mask));
      const std::uint32_t thread = record.warp * w + lane;
      threads[fill++] = thread;
      switch (record.kind) {
        case RecordKind::kRead:
          instr[thread] = dmm::ThreadOp::load(record.addrs[next_addr++]);
          break;
        case RecordKind::kWrite:
          // Congestion is value-independent; stores replay as immediate
          // zeros so replay needs no register state reconstruction.
          instr[thread] =
              dmm::ThreadOp::store_imm(record.addrs[next_addr++], 0);
          break;
        case RecordKind::kAtomic:
          instr[thread] = dmm::ThreadOp::atomic_add(record.addrs[next_addr++]);
          break;
        case RecordKind::kRegister:
          instr[thread] = dmm::ThreadOp::min_max(0, 1);
          break;
        case RecordKind::kBarrier:
          break;  // unreachable: handled above
      }
    }
  }
  // Records of one instruction may arrive out of warp order (a trace
  // keeps dispatch order); their threads must still ascend.
  for (std::size_t i = 0; i < count; ++i) {
    const auto first = threads.begin() +
                       static_cast<std::ptrdiff_t>(i == 0 ? 0 : ends[i - 1]);
    const auto last = threads.begin() + static_cast<std::ptrdiff_t>(ends[i]);
    if (!std::is_sorted(first, last)) std::sort(first, last);
  }
  kernel.set_active_index(std::move(ends), std::move(threads));
  return kernel;
}

ReplayResult replay_trace(const AccessTrace& trace,
                          const core::AddressMap& map,
                          const ReplayOptions& options) {
  if (map.width() != trace.header.width) {
    throw std::invalid_argument(
        "replay_trace: map width " + std::to_string(map.width()) +
        " does not match trace width " + std::to_string(trace.header.width));
  }
  if (map.size() < trace.header.memory_size) {
    throw std::invalid_argument(
        "replay_trace: map size " + std::to_string(map.size()) +
        " smaller than trace memory " +
        std::to_string(trace.header.memory_size));
  }

  telemetry::SpanTracer* const tracer = options.tracer;
  const std::uint64_t lower_span =
      tracer ? tracer->begin("replay:lower", options.trace_parent)
             : telemetry::kNoSpan;
  const dmm::Kernel kernel = lower_to_kernel(trace);
  if (tracer) tracer->end(lower_span);

  dmm::DmmConfig config{trace.header.width, options.latency, options.kind};
  ReplayResult result;
  dmm::Dmm machine(config, map);
  machine.set_telemetry(&result.telemetry);
  if (options.sanitizer) {
    machine.set_sanitizer(options.sanitizer);
    // A trace carries addresses, not data: mark every word initialized
    // so the sanitizer screens races without uninitialized-read noise.
    machine.fill_identity();
  }
  const std::uint64_t execute_span =
      tracer ? tracer->begin("replay:execute", options.trace_parent)
             : telemetry::kNoSpan;
  result.stats = machine.run(kernel, &result.dispatches);
  if (tracer) tracer->end(execute_span);
  return result;
}

AccessTrace trace_from_kernel(const analyze::KernelDesc& kernel,
                              std::uint64_t max_records) {
  const auto errors = analyze::validate_kernel(kernel);
  if (!errors.empty()) {
    throw std::invalid_argument("trace_from_kernel: kernel '" + kernel.name +
                                "' is invalid: " + errors.front());
  }
  if (kernel.width > kMaxTraceWidth) {
    throw std::invalid_argument(
        "trace_from_kernel: width exceeds the trace format cap");
  }
  const std::uint64_t cap =
      std::min<std::uint64_t>(std::max<std::uint64_t>(max_records, 1),
                              kMaxTraceInstructions);

  AccessTrace trace;
  trace.header.width = kernel.width;
  trace.header.num_threads = kernel.width;
  trace.header.memory_size = kernel.size();

  std::vector<std::uint64_t> binding(kernel.vars.size(), 0);
  bool done = false;
  while (!done && trace.records.size() < cap) {
    for (const analyze::AccessSite& site : kernel.sites) {
      if (trace.records.size() >= cap) break;
      const std::vector<std::int64_t> addrs =
          analyze::materialize_site(kernel, site, binding);
      TraceRecord record;
      switch (site.dir) {
        case analyze::AccessDir::kLoad:
          record.kind = RecordKind::kRead;
          break;
        case analyze::AccessDir::kStore:
          record.kind = RecordKind::kWrite;
          break;
        case analyze::AccessDir::kAtomic:
          record.kind = RecordKind::kAtomic;
          break;
      }
      record.instr = static_cast<std::uint32_t>(trace.records.size());
      record.warp = 0;
      const std::size_t n = addrs.size();
      record.lane_mask =
          n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
      record.addrs.reserve(n);
      for (const std::int64_t addr : addrs) {
        record.addrs.push_back(static_cast<std::uint64_t>(addr));
      }
      trace.records.push_back(std::move(record));
    }
    // Advance the binding odometer (innermost variable fastest).
    std::size_t v = 0;
    for (; v < binding.size(); ++v) {
      if (++binding[v] < kernel.vars[v].count) break;
      binding[v] = 0;
    }
    done = v == binding.size();
  }
  trace.validate();
  return trace;
}

analyze::CongestionCertificate certify_trace(const AccessTrace& trace,
                                             core::Scheme scheme) {
  trace.validate();
  std::vector<std::vector<std::uint64_t>> streams;
  streams.reserve(trace.records.size());
  for (const TraceRecord& record : trace.records) {
    if (record.addrs.empty()) continue;  // register / barrier records
    streams.push_back(record.addrs);
  }
  if (streams.empty()) {
    throw std::invalid_argument(
        "certify_trace: trace has no memory records");
  }
  return analyze::prove_worst_warp(streams, trace.header.width,
                                   trace.header.memory_size, scheme);
}

}  // namespace rapsim::replay
