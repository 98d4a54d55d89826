#include "dmm/machine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "dmm/sanitizer.hpp"
#include "hier/scheduler.hpp"
#include "telemetry/run_telemetry.hpp"

namespace rapsim::dmm {

Kernel::Kernel(std::uint32_t num_threads_in, const std::vector<Row>& rows,
               std::vector<std::string> labels_in)
    : num_threads(num_threads_in) {
  for (const Row& row : rows) push(row);
  labels = std::move(labels_in);
}

void Kernel::push(const Row& row, std::string label) {
  if (row.size() != num_threads) {
    throw std::invalid_argument(
        "Kernel: instruction must have one ThreadOp per thread");
  }
  InstructionTable& table = instructions;
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    if (row[t].kind == OpKind::kNone) continue;
    table.threads_.push_back(t);
    table.ops_.push_back(row[t]);
  }
  table.ends_.push_back(table.ops_.size());
  labels.push_back(std::move(label));
}

void Kernel::push_barrier() {
  InstructionTable& table = instructions;
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    table.threads_.push_back(t);
    table.ops_.push_back(ThreadOp::barrier());
  }
  table.ends_.push_back(table.ops_.size());
  labels.emplace_back();
}

Kernel Kernel::from_sparse(std::uint32_t num_threads,
                           std::vector<std::size_t> ends,
                           std::vector<std::uint32_t> threads,
                           std::vector<ThreadOp> ops) {
  if (threads.size() != ops.size() ||
      (ends.empty() ? !threads.empty() : ends.back() != threads.size())) {
    throw std::invalid_argument(
        "Kernel::from_sparse: ends, threads and ops do not have matching "
        "shapes");
  }
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    if (end < begin) {
      throw std::invalid_argument(
          "Kernel::from_sparse: instruction ends must not decrease");
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (threads[i] >= num_threads ||
          (i > begin && threads[i] <= threads[i - 1])) {
        throw std::invalid_argument(
            "Kernel::from_sparse: thread ids must ascend below "
            "num_threads");
      }
      if (ops[i].kind == OpKind::kNone) {
        throw std::invalid_argument(
            "Kernel::from_sparse: the store holds active ops only, not "
            "kNone");
      }
    }
    begin = end;
  }
  Kernel kernel;
  kernel.num_threads = num_threads;
  kernel.instructions.ends_ = std::move(ends);
  kernel.instructions.threads_ = std::move(threads);
  kernel.instructions.ops_ = std::move(ops);
  return kernel;
}

Dmm::Dmm(DmmConfig config, const core::AddressMap& map)
    : config_(config), map_(map) {
  config_.validate();
  if (config_.width != map.width()) {
    throw std::invalid_argument("Dmm: config width must match map width");
  }
}

void Dmm::allocate_memory() {
  if (memory_.empty()) memory_.assign(memory_size(), 0);
}

std::uint64_t Dmm::load(std::uint64_t logical) const {
  const std::uint64_t phys = map_.translate(logical);
  if (phys >= memory_size()) {
    throw std::out_of_range("Dmm: load beyond memory size");
  }
  // No image yet: nothing has stored, so every word still reads 0.
  return memory_.empty() ? 0 : memory_[phys];
}

void Dmm::store(std::uint64_t logical, std::uint64_t value) {
  allocate_memory();
  const std::uint64_t phys = map_.translate(logical);
  memory_.at(phys) = value;
  if (sanitizer_) sanitizer_->note_host_write(phys);
}

void Dmm::fill_identity() {
  allocate_memory();
  for (std::uint64_t a = 0; a < memory_size(); ++a) {
    const std::uint64_t phys = map_.translate(a);
    memory_[phys] = a;
    if (sanitizer_) sanitizer_->note_host_write(phys);
  }
}

void Dmm::set_sanitizer(ShmemSanitizer* sanitizer) {
  sanitizer_ = sanitizer;
  if (sanitizer_) sanitizer_->attach(config_.width, memory_size());
}

namespace {

bool is_write(OpKind kind) {
  return kind == OpKind::kStore || kind == OpKind::kStoreImm;
}

bool is_read(OpKind kind) {
  return kind == OpKind::kLoad || kind == OpKind::kLoadAdd ||
         kind == OpKind::kLoadMulAdd;
}

std::uint64_t logical_of(const ThreadOp& op) { return op.logical; }
std::uint64_t logical_of(std::uint64_t logical) { return logical; }

/// The value kernel store `op` of `thread` writes: its immediate or its
/// register.
std::uint64_t store_value(const ThreadOp& op, std::uint32_t thread,
                          const std::vector<std::uint64_t>& registers) {
  return op.kind == OpKind::kStoreImm
             ? op.immediate
             : registers[static_cast<std::size_t>(thread) *
                             kRegistersPerThread +
                         op.reg];
}

}  // namespace

// Inlined into each entry point below, so a warp access pays no second
// call.
template <typename Op>
[[gnu::always_inline]] inline Dmm::WarpAccess Dmm::access(
    CapturedOpClass op_class, std::span<const std::uint32_t> lanes,
    std::span<const Op> ops, std::uint32_t instr_idx, std::uint32_t warp_id) {
  // Kernel ops move data through the register file and the memory image;
  // a trace's bare addresses stop at the bank tally.
  constexpr bool kMovesData = std::is_same_v<Op, ThreadOp>;
  WarpAccess result;
  result.active_threads = static_cast<std::uint32_t>(lanes.size());
  if (result.active_threads == 0) return result;

  if (capture_) {
    // Report the logical (pre-mapping) stream: active-lane mask plus the
    // memory ops' addresses in ascending lane order.
    const std::uint32_t warp_begin = warp_id * config_.width;
    std::uint64_t lane_mask = 0;
    for (const std::uint32_t t : lanes) {
      lane_mask |= std::uint64_t{1} << (t - warp_begin);
    }
    std::span<const std::uint64_t> addrs;
    if (op_class != CapturedOpClass::kRegister) {
      if constexpr (kMovesData) {
        capture_addrs_.clear();
        for (const ThreadOp& op : ops) capture_addrs_.push_back(op.logical);
        addrs = capture_addrs_;
      } else {
        addrs = ops;
      }
    }
    capture_->on_warp_access(instr_idx, warp_id, op_class, lane_mask, addrs);
  }

  if (op_class == CapturedOpClass::kAtomic) {
    // Atomics: every request needs its own bank cycle — same-address
    // requests serialize instead of merging. The adds themselves commute,
    // so the data effect is order-independent.
    tally_.begin(config_.width, config_.width);
    std::uint64_t rows_touched = 0;
    std::uint64_t prev_row = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const std::uint32_t t = lanes[k];
      const std::uint64_t logical = logical_of(ops[k]);
      const std::uint64_t phys = map_.translate(logical);
      if (phys >= memory_size()) {
        if (sanitizer_) {
          // Record and skip the faulting lane so one run collects every
          // finding instead of dying on the first.
          sanitizer_->record_out_of_bounds(warp_id, t, instr_idx, logical,
                                           phys);
          continue;
        }
        throw std::out_of_range("Dmm: access beyond memory size");
      }
      if (sanitizer_) {
        // An atomic add reads the cell before writing it back.
        sanitizer_->check_read(warp_id, t, instr_idx, logical, phys,
                               /*atomic=*/true);
        sanitizer_->note_write(warp_id, t, instr_idx, logical, phys,
                               /*atomic=*/true);
      }
      if constexpr (kMovesData) {
        memory_[phys] += registers_[static_cast<std::size_t>(t) *
                                        kRegistersPerThread +
                                    ops[k].reg];
      }
      ++result.unique_requests;
      if (telemetry_) {
        ++telemetry_->bank_requests[static_cast<std::size_t>(phys %
                                                             config_.width)];
      }
      if (config_.kind == MachineKind::kDmm) {
        tally_.add_unmerged(phys);
        if (telemetry_) {
          // The bank's count only grows during the access, so the peak
          // it reaches here is its count for the whole access.
          const auto bank = static_cast<std::uint32_t>(phys % config_.width);
          std::uint64_t& peak = telemetry_->bank_peak[bank];
          peak = std::max<std::uint64_t>(peak, tally_.bank_count(bank));
        }
      } else {
        const std::uint64_t row = phys / config_.width;
        if (row != prev_row) {
          ++rows_touched;
          prev_row = row;
        }
      }
    }
    if (config_.kind == MachineKind::kUmm) {
      // Conservative UMM accounting: serial atomics over the rows in
      // issue order (no row sorting — atomics are not broadcastable).
      result.congestion = static_cast<std::uint32_t>(
          std::max<std::uint64_t>(rows_touched, result.active_threads));
    } else {
      result.congestion = tally_.congestion();
    }
    return result;
  }

  if (op_class == CapturedOpClass::kRegister) {
    // Register-only instruction: executes without touching the memory
    // pipeline (congestion stays 0; arithmetic is free in this model).
    if constexpr (kMovesData) {
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        const ThreadOp& op = ops[k];
        if (op.kind != OpKind::kMinMax) continue;
        const std::size_t base =
            static_cast<std::size_t>(lanes[k]) * kRegistersPerThread;
        auto& lo = registers_[base + op.reg];
        auto& hi = registers_[base + op.reg2];
        if (lo > hi) std::swap(lo, hi);
      }
    }
    return result;
  }

  // Translate, merge duplicates (CRCW), count per-bank unique requests.
  // The map preserves bank counts only through translate(); we group by
  // physical address. Lanes are added in ascending order, so the tally's
  // first writer is the lowest lane.
  const bool writes = op_class == CapturedOpClass::kWrite;
  tally_.begin(config_.width, config_.width);
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    const std::uint32_t t = lanes[k];
    const std::uint64_t logical = logical_of(ops[k]);
    const std::uint64_t phys = map_.translate(logical);
    if (phys >= memory_size()) {
      if (sanitizer_) {
        sanitizer_->record_out_of_bounds(warp_id, t, instr_idx, logical,
                                         phys);
        continue;
      }
      throw std::out_of_range("Dmm: access beyond memory size");
    }
    const std::uint32_t winner = tally_.add(phys, t);
    if (!writes) {
      if (sanitizer_) {
        sanitizer_->check_read(warp_id, t, instr_idx, logical, phys);
      }
      if constexpr (kMovesData) {
        const ThreadOp& op = ops[k];
        const std::size_t base =
            static_cast<std::size_t>(t) * kRegistersPerThread;
        auto& reg = registers_[base + op.reg];
        switch (op.kind) {
          case OpKind::kLoad:
            reg = memory_[phys];
            break;
          case OpKind::kLoadAdd:
            reg += memory_[phys];
            break;
          case OpKind::kLoadMulAdd:
            reg += registers_[base + op.reg2] * memory_[phys];
            break;
          default:
            break;  // unreachable: the class check admits reads only
        }
      }
    } else if (winner == t) {
      // CRCW arbitrary write: the first (lowest-id) thread wins; later
      // writes to the same merged address are ignored.
      if constexpr (kMovesData) {
        memory_[phys] = store_value(ops[k], t, registers_);
      }
      if (sanitizer_) {
        sanitizer_->note_write(warp_id, t, instr_idx, logical, phys);
      }
    } else if constexpr (kMovesData) {
      // The winner already stored; a losing lane carrying a DIFFERENT
      // value is a genuine CRCW write-write race. A trace carries no
      // values, so all its writes store one value and the compare could
      // never fire: the address body has no such branch.
      if (sanitizer_) {
        sanitizer_->check_write_conflict(warp_id, winner, t, instr_idx,
                                         logical, phys, memory_[phys],
                                         store_value(ops[k], t, registers_));
      }
    }
  }

  result.unique_requests = tally_.unique_requests();
  if (telemetry_) {
    // Only the banks this access touched can raise a peak (DMM only: a
    // UMM has no per-bank address lines).
    const bool peaks = config_.kind == MachineKind::kDmm;
    for (const std::uint64_t addr : tally_.unique_addresses()) {
      const auto bank = static_cast<std::uint32_t>(addr % config_.width);
      ++telemetry_->bank_requests[bank];
      if (peaks) {
        std::uint64_t& peak = telemetry_->bank_peak[bank];
        peak = std::max<std::uint64_t>(peak, tally_.bank_count(bank));
      }
    }
  }
  if (config_.kind == MachineKind::kDmm) {
    // DMM: one pipeline slot carries at most one request per bank.
    result.congestion = tally_.congestion();
  } else {
    // UMM: one pipeline slot broadcasts one memory row to all banks.
    const auto unique = tally_.unique_addresses();
    umm_rows_.assign(unique.begin(), unique.end());
    std::sort(umm_rows_.begin(), umm_rows_.end());
    std::uint64_t prev_row = std::numeric_limits<std::uint64_t>::max();
    for (const std::uint64_t addr : umm_rows_) {
      const std::uint64_t row = addr / config_.width;
      if (row != prev_row) {
        ++result.congestion;
        prev_row = row;
      }
    }
  }
  return result;
}

Dmm::WarpAccess Dmm::perform_warp_access(std::span<const std::uint32_t> lanes,
                                         std::span<const ThreadOp> ops,
                                         std::uint32_t instr_idx,
                                         std::uint32_t warp_id) {
  // SIMD check: a warp executes one instruction, so active ops must be of
  // one class — all reads, all writes, or all register ops (Section II:
  // "if one of them sends a memory read request, none of the others can
  // send memory write request").
  bool saw_read = false;
  bool saw_write = false;
  bool saw_atomic = false;
  bool saw_register = false;
  for (const ThreadOp& op : ops) {
    if (op.kind == OpKind::kBarrier) {
      throw std::logic_error(
          "Dmm: barrier instruction reached the access path (scheduler bug)");
    }
    if (op.kind == OpKind::kAtomicAdd) {
      saw_atomic = true;
    } else if (is_write(op.kind)) {
      saw_write = true;
    } else if (is_read(op.kind)) {
      saw_read = true;
    } else {
      saw_register = true;
    }
    if (op.reg >= kRegistersPerThread || op.reg2 >= kRegistersPerThread) {
      throw std::out_of_range("Dmm: register index out of range");
    }
  }
  if (saw_read + saw_write + saw_atomic + saw_register > 1) {
    throw std::invalid_argument(
        "Dmm: a warp cannot mix reads, writes, atomics and register ops in "
        "one SIMD instruction");
  }
  if (!lanes.empty() &&
      registers_.size() <
          (std::size_t{lanes.back()} + 1) * kRegistersPerThread) {
    throw std::logic_error(
        "Dmm: a kernel access needs its run opened by begin_run(kernel)");
  }
  const CapturedOpClass op_class = saw_atomic  ? CapturedOpClass::kAtomic
                                   : saw_write ? CapturedOpClass::kWrite
                                   : saw_read  ? CapturedOpClass::kRead
                                               : CapturedOpClass::kRegister;
  return access(op_class, lanes, ops, instr_idx, warp_id);
}

Dmm::WarpAccess Dmm::perform_warp_access(CapturedOpClass op,
                                         std::span<const std::uint32_t> lanes,
                                         std::span<const std::uint64_t> addrs,
                                         std::uint32_t instr_idx,
                                         std::uint32_t warp_id) {
  if (op != CapturedOpClass::kRegister && addrs.size() != lanes.size()) {
    throw std::invalid_argument(
        "Dmm: an address access needs one address per active lane");
  }
  return access(op, lanes, addrs, instr_idx, warp_id);
}

void Dmm::begin_run(std::uint32_t num_threads,
                    std::span<const std::string> labels) {
  run_warps_ = (num_threads + config_.width - 1) / config_.width;
  if (telemetry_) telemetry_->reset(config_.width);
  if (sanitizer_) sanitizer_->begin_run(labels);
  if (capture_) {
    if (config_.width > 64) {
      // The capture lane mask is one 64-bit word; wider machines have no
      // real-hardware counterpart and no portable trace encoding.
      throw std::invalid_argument(
          "Dmm: access capture supports width <= 64 only");
    }
    capture_->begin_kernel(num_threads, config_.width, memory_size());
  }
}

void Dmm::begin_run(const Kernel& kernel) {
  allocate_memory();
  registers_.assign(
      static_cast<std::size_t>(kernel.num_threads) * kRegistersPerThread, 0);
  begin_run(kernel.num_threads, kernel.labels);
}

void Dmm::finish_barrier(std::uint32_t instr_idx) {
  if (capture_) capture_->on_barrier(instr_idx);
  // The barrier orders all earlier accesses before all later ones:
  // advance the race-detection epoch.
  if (sanitizer_) sanitizer_->note_barrier();
}

// --- KernelWarpSource ------------------------------------------------------

KernelWarpSource::KernelWarpSource(Dmm& machine, const Kernel& kernel)
    : machine_(&machine),
      kernel_(&kernel),
      num_warps_((kernel.num_threads + machine.config().width - 1) /
                 machine.config().width),
      cursors_(num_warps_) {
  // One pass over the store cuts each instruction's ascending thread ids
  // into per-warp runs: a warp's steps are exactly the instructions in
  // which it has an active lane, so idle instructions are never visited
  // (no cost: warps with no pending request are not dispatched). A
  // counting pass first sizes each warp's slice of the one step array.
  const std::uint32_t width = machine.config().width;
  const std::span<const std::size_t> ends = kernel.instructions.ends();
  const std::span<const std::uint32_t> threads =
      kernel.instructions.threads();
  const auto for_each_run = [&](auto&& emit) {
    std::size_t k = 0;
    for (std::size_t pc = 0; pc < ends.size(); ++pc) {
      while (k < ends[pc]) {
        const std::uint32_t warp = threads[k] / width;
        const std::uint32_t last = (warp + 1) * width;
        const std::size_t offset = k;
        while (k < ends[pc] && threads[k] < last) ++k;
        emit(warp, Step{offset, static_cast<std::uint32_t>(pc),
                        static_cast<std::uint32_t>(k - offset)});
      }
    }
  };
  for_each_run([&](std::uint32_t warp, const Step&) { ++cursors_[warp].end; });
  std::size_t total = 0;
  for (Cursor& cursor : cursors_) {
    cursor.next = total;
    total += cursor.end;
    cursor.end = cursor.next;  // the fill below moves it to the real end
  }
  steps_.resize(total);
  for_each_run([&](std::uint32_t warp, const Step& step) {
    steps_[cursors_[warp].end++] = step;
  });
}

bool KernelWarpSource::done(std::uint32_t warp) const {
  return cursors_[warp].next == cursors_[warp].end;
}

bool KernelWarpSource::at_barrier(std::uint32_t warp) const {
  return !done(warp) &&
         kernel_->instructions.ops()[steps_[cursors_[warp].next].offset]
                 .kind == OpKind::kBarrier;
}

std::size_t KernelWarpSource::pc(std::uint32_t warp) const {
  return done(warp) ? kernel_->instructions.size()
                    : steps_[cursors_[warp].next].pc;
}

hier::IssueResult KernelWarpSource::issue(std::uint32_t warp) {
  const Step& step = steps_[cursors_[warp].next];
  const Dmm::WarpAccess access = machine_->perform_warp_access(
      kernel_->instructions.threads().subspan(step.offset, step.count),
      kernel_->instructions.ops().subspan(step.offset, step.count), step.pc,
      warp);
  return {access.congestion, access.active_threads, access.unique_requests,
          0};
}

void KernelWarpSource::advance(std::uint32_t warp) { ++cursors_[warp].next; }

// --- Dmm::run on the event core --------------------------------------------

namespace {

/// Trace + telemetry + barrier side effects of one Dmm::run.
class DmmRunHooks final : public hier::CoreHooks {
 public:
  DmmRunHooks(Dmm& machine, telemetry::RunTelemetry* telemetry, Trace* trace)
      : machine_(machine), telemetry_(telemetry), trace_(trace) {}

  void on_idle(std::uint64_t slots) override {
    if (telemetry_) telemetry_->pipeline_idle_slots += slots;
  }

  void on_dispatch(const hier::DispatchEvent& event) override {
    if (trace_) {
      trace_->dispatches.push_back({event.warp,
                                    static_cast<std::uint32_t>(event.pc),
                                    event.start, event.stages,
                                    event.completion, event.active_threads,
                                    event.unique_requests});
    }
    if (telemetry_) {
      telemetry_->congestion.add(event.stages);
      ++telemetry_->dispatches;
      telemetry_->total_slots += event.stages;
      // The warp was eligible from its ready slot; any gap to the
      // dispatch slot is scheduler queueing delay.
      telemetry_->warp_stall_slots += event.stall_slots;
    }
  }

  void on_barrier_release(std::size_t pc) override {
    machine_.finish_barrier(static_cast<std::uint32_t>(pc));
  }

 private:
  Dmm& machine_;
  telemetry::RunTelemetry* telemetry_;
  Trace* trace_;
};

}  // namespace

RunStats Dmm::run(const Kernel& kernel, Trace* trace) {
  if (kernel.num_threads == 0) return {};
  begin_run(kernel);
  KernelWarpSource source(*this, kernel);
  return run(source, trace);
}

RunStats Dmm::run(hier::WarpSource& source, Trace* trace) {
  if (trace) trace->clear();
  hier::RoundRobinScheduler scheduler;
  scheduler.reset(run_warps_);
  hier::EventCore core(run_warps_, config_.latency);
  DmmRunHooks hooks(*this, telemetry_, trace);
  const hier::DispatchTotals& totals = core.run(source, scheduler, &hooks);

  RunStats stats;
  stats.time = totals.last_completion;
  stats.total_stages = totals.total_stages;
  stats.dispatches = totals.dispatches;
  stats.max_congestion = totals.max_congestion;
  stats.avg_congestion = totals.avg_congestion();
  return stats;
}

}  // namespace rapsim::dmm
