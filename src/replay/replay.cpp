#include "replay/replay.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

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

/// The machine's op class of an issued (non-barrier) record.
dmm::CapturedOpClass to_op_class(RecordKind kind) {
  switch (kind) {
    case RecordKind::kRead: return dmm::CapturedOpClass::kRead;
    case RecordKind::kWrite: return dmm::CapturedOpClass::kWrite;
    case RecordKind::kAtomic: return dmm::CapturedOpClass::kAtomic;
    case RecordKind::kRegister: return dmm::CapturedOpClass::kRegister;
    case RecordKind::kBarrier: break;
  }
  throw std::logic_error("replay: a barrier record reached the access path");
}

/// Fill `ops` with the ops of `record`'s active lanes, one per lane in
/// ascending lane order, for lower_to_kernel. Congestion is
/// value-independent: reads become kLoad, writes kStoreImm of zero (so no
/// register state is rebuilt), atomics kAtomicAdd and register records
/// kMinMax.
void replay_ops(const TraceRecord& record, std::span<dmm::ThreadOp> ops) {
  const std::vector<std::uint64_t>& addrs = record.addrs;
  switch (record.kind) {
    case RecordKind::kRead:
      for (std::size_t k = 0; k < ops.size(); ++k) {
        ops[k] = dmm::ThreadOp::load(addrs[k]);
      }
      break;
    case RecordKind::kWrite:
      for (std::size_t k = 0; k < ops.size(); ++k) {
        ops[k] = dmm::ThreadOp::store_imm(addrs[k], 0);
      }
      break;
    case RecordKind::kAtomic:
      for (std::size_t k = 0; k < ops.size(); ++k) {
        ops[k] = dmm::ThreadOp::atomic_add(addrs[k]);
      }
      break;
    case RecordKind::kRegister:
      std::fill(ops.begin(), ops.end(), dmm::ThreadOp::min_max(0, 1));
      break;
    case RecordKind::kBarrier:
      std::fill(ops.begin(), ops.end(), dmm::ThreadOp::barrier());
      break;
  }
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

  // validate() bounds every instr below kMaxTraceInstructions and the op
  // total below kMaxTraceOps; keep the sizing arithmetic 64-bit so a
  // future relaxation cannot wrap it.
  const std::vector<TraceRecord>& records = trace.records;
  const std::uint32_t num_threads = trace.header.num_threads;
  const std::uint32_t num_warps = trace.header.num_warps();
  std::uint64_t num_instr = 0;
  std::uint64_t total = 0;
  for (const TraceRecord& record : records) {
    num_instr = std::max(num_instr, std::uint64_t{record.instr} + 1);
    total += record.kind == RecordKind::kBarrier
                 ? num_threads
                 : static_cast<std::uint64_t>(std::popcount(record.lane_mask));
  }
  if (num_instr > kMaxTraceInstructions) {
    throw std::invalid_argument(
        "replay: trace needs " + std::to_string(num_instr) +
        " instructions, above the cap of " +
        std::to_string(kMaxTraceInstructions));
  }
  const auto count = static_cast<std::size_t>(num_instr);

  std::vector<std::size_t> ends(count);
  std::vector<std::uint32_t> threads(static_cast<std::size_t>(total));
  std::vector<dmm::ThreadOp> ops(static_cast<std::size_t>(total));

  // The record indices in (instr, warp) order: a stable counting sort by
  // warp, then one by instruction. A trace keeps dispatch order, so the
  // records of one instruction may arrive out of warp order; in this
  // order their threads ascend, which is the order the store needs.
  // validate() rules out duplicate (instr, warp) pairs and a barrier
  // sharing its instruction, so the order is total.
  std::vector<std::uint32_t> order(records.size());
  {
    std::vector<std::uint32_t> by_warp(records.size());
    std::vector<std::uint32_t> starts(std::max<std::size_t>(num_warps, count) +
                                      1);
    const auto counting_sort = [&](std::span<const std::uint32_t> in,
                                   std::span<std::uint32_t> out,
                                   std::size_t buckets, auto key) {
      std::fill_n(starts.begin(), buckets + 1, 0u);
      for (const std::uint32_t r : in) ++starts[key(records[r]) + 1];
      for (std::size_t b = 1; b <= buckets; ++b) starts[b] += starts[b - 1];
      for (const std::uint32_t r : in) out[starts[key(records[r])]++] = r;
    };
    std::iota(order.begin(), order.end(), 0u);
    counting_sort(order, by_warp, num_warps,
                  [](const TraceRecord& record) { return record.warp; });
    counting_sort(by_warp, order, count,
                  [](const TraceRecord& record) { return record.instr; });
  }

  // One pass in that order fills the sparse store and closes each
  // instruction's end offset as the pass moves past it.
  const std::uint32_t w = trace.header.width;
  std::size_t fill = 0;
  std::size_t instr = 0;
  for (const std::uint32_t r : order) {
    const TraceRecord& record = records[r];
    for (; instr < record.instr; ++instr) ends[instr] = fill;
    if (record.kind == RecordKind::kBarrier) {
      for (std::uint32_t t = 0; t < num_threads; ++t) {
        threads[fill] = t;
        ops[fill++] = dmm::ThreadOp::barrier();
      }
      continue;
    }
    const std::size_t first = fill;
    for (std::uint64_t mask = record.lane_mask; mask != 0; mask &= mask - 1) {
      threads[fill++] =
          record.warp * w + static_cast<std::uint32_t>(std::countr_zero(mask));
    }
    replay_ops(record, std::span(ops).subspan(first, fill - first));
  }
  for (; instr < count; ++instr) ends[instr] = fill;
  return dmm::Kernel::from_sparse(num_threads, std::move(ends),
                                  std::move(threads), std::move(ops));
}

TraceWarpSource::TraceWarpSource(const AccessTrace& trace) : trace_(&trace) {
  trace.validate();

  // Each warp runs its own records and every barrier. A counting pass
  // sizes each warp's slice of the one step array; validate() keeps warp
  // ids in range and every count below kMaxTraceOps.
  const std::vector<TraceRecord>& records = trace.records;
  const std::uint32_t num_warps = trace.header.num_warps();
  begins_.assign(std::size_t{num_warps} + 1, 0);
  std::uint32_t barriers = 0;
  for (const TraceRecord& record : records) {
    num_instr_ = std::max(num_instr_, record.instr + 1);
    if (record.kind == RecordKind::kBarrier) {
      ++barriers;
    } else {
      ++begins_[record.warp + 1];
    }
  }
  for (std::uint32_t warp = 0; warp < num_warps; ++warp) {
    begins_[warp + 1] += begins_[warp] + barriers;
  }
  steps_.resize(begins_[num_warps]);
  next_.assign(begins_.begin(), begins_.end() - 1);  // fill cursors
  for (std::uint32_t r = 0; r < records.size(); ++r) {
    if (records[r].kind == RecordKind::kBarrier) {
      for (std::uint32_t& fill : next_) steps_[fill++] = r;
    } else {
      steps_[next_[records[r].warp]++] = r;
    }
  }

  // A warp dispatches its instructions in order, so a captured trace
  // already lists each warp's records, and the barriers between them, in
  // instruction order; a hand-written one need not. validate() rules out
  // two records of one instruction in one warp, so the order is total.
  const auto by_instr = [&records](std::uint32_t a, std::uint32_t b) {
    return records[a].instr < records[b].instr;
  };
  for (std::uint32_t warp = 0; warp < num_warps; ++warp) {
    const auto first = steps_.begin() + begins_[warp];
    const auto last = steps_.begin() + begins_[warp + 1];
    if (!std::is_sorted(first, last, by_instr)) {
      std::sort(first, last, by_instr);
    }
  }
}

void TraceWarpSource::rewind(dmm::Dmm& machine) {
  if (machine.config().width != trace_->header.width) {
    throw std::invalid_argument(
        "TraceWarpSource: machine width " +
        std::to_string(machine.config().width) +
        " does not match trace width " +
        std::to_string(trace_->header.width));
  }
  machine_ = &machine;
  machine.begin_run(trace_->header.num_threads);
  std::copy(begins_.begin(), begins_.end() - 1, next_.begin());
}

bool TraceWarpSource::at_barrier(std::uint32_t warp) const {
  return !done(warp) && current(warp).kind == RecordKind::kBarrier;
}

std::size_t TraceWarpSource::pc(std::uint32_t warp) const {
  return done(warp) ? num_instr_ : current(warp).instr;
}

hier::IssueResult TraceWarpSource::issue(std::uint32_t warp) {
  const TraceRecord& record = current(warp);
  const std::uint32_t first = warp * trace_->header.width;
  std::size_t count = 0;
  for (std::uint64_t mask = record.lane_mask; mask != 0; mask &= mask - 1) {
    lanes_[count++] =
        first + static_cast<std::uint32_t>(std::countr_zero(mask));
  }
  const dmm::Dmm::WarpAccess access = machine_->perform_warp_access(
      to_op_class(record.kind), {lanes_.data(), count}, record.addrs,
      record.instr, warp);
  return {access.congestion, access.active_threads, access.unique_requests,
          0};
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
  TraceWarpSource source(trace);
  if (tracer) tracer->end(lower_span);

  dmm::DmmConfig config{trace.header.width, options.latency, options.kind};
  ReplayResult result;
  dmm::Dmm machine(config, map);
  machine.set_telemetry(&result.telemetry);
  if (options.sanitizer) {
    machine.set_sanitizer(options.sanitizer);
    // A trace carries addresses, not data: mark every word initialized
    // so the sanitizer screens races without uninitialized-read noise.
    options.sanitizer->note_host_fill();
  }
  const std::uint64_t execute_span =
      tracer ? tracer->begin("replay:execute", options.trace_parent)
             : telemetry::kNoSpan;
  source.rewind(machine);
  result.stats = machine.run(source, &result.dispatches);
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
