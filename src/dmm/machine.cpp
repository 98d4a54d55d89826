#include "dmm/machine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "analyze/sanitizer.hpp"
#include "hier/scheduler.hpp"
#include "telemetry/run_telemetry.hpp"

namespace rapsim::dmm {

void Kernel::push(Instruction instr, std::string label) {
  if (instr.size() != num_threads) {
    throw std::invalid_argument(
        "Kernel::push: instruction must have one ThreadOp per thread");
  }
  instructions.push_back(std::move(instr));
  labels.push_back(std::move(label));
}

void Kernel::push_barrier() {
  instructions.emplace_back(num_threads, ThreadOp::barrier());
  labels.emplace_back();
}

Dmm::Dmm(DmmConfig config, const core::AddressMap& map)
    : config_(config), map_(map), memory_(map.size(), 0) {
  config_.validate();
  if (config_.width != map.width()) {
    throw std::invalid_argument("Dmm: config width must match map width");
  }
}

std::uint64_t Dmm::load(std::uint64_t logical) const {
  return memory_.at(map_.translate(logical));
}

void Dmm::store(std::uint64_t logical, std::uint64_t value) {
  const std::uint64_t phys = map_.translate(logical);
  memory_.at(phys) = value;
  if (sanitizer_) sanitizer_->note_host_write(phys);
}

void Dmm::fill_identity() {
  for (std::uint64_t a = 0; a < memory_.size(); ++a) {
    const std::uint64_t phys = map_.translate(a);
    memory_[phys] = a;
    if (sanitizer_) sanitizer_->note_host_write(phys);
  }
}

void Dmm::set_sanitizer(analyze::ShmemSanitizer* sanitizer) {
  sanitizer_ = sanitizer;
  if (sanitizer_) sanitizer_->attach(config_.width, memory_.size());
}

namespace {

bool is_write(OpKind kind) {
  return kind == OpKind::kStore || kind == OpKind::kStoreImm;
}

bool is_read(OpKind kind) {
  return kind == OpKind::kLoad || kind == OpKind::kLoadAdd ||
         kind == OpKind::kLoadMulAdd;
}

}  // namespace

void Dmm::note_bank_peaks() {
  if (!telemetry_) return;
  for (std::uint32_t b = 0; b < config_.width; ++b) {
    telemetry_->bank_peak[b] =
        std::max<std::uint64_t>(telemetry_->bank_peak[b], tally_.bank_count(b));
  }
}

Dmm::WarpAccess Dmm::perform_warp_access(const Instruction& instr,
                                         std::uint32_t instr_idx,
                                         std::uint32_t warp_begin,
                                         std::uint32_t warp_end) {
  WarpAccess result;
  const std::uint32_t warp_id = warp_begin / config_.width;

  // SIMD check: a warp executes one instruction, so active ops must be of
  // one class — all reads, all writes, or all register ops (Section II:
  // "if one of them sends a memory read request, none of the others can
  // send memory write request").
  bool saw_read = false;
  bool saw_write = false;
  bool saw_atomic = false;
  bool saw_register = false;
  for (std::uint32_t t = warp_begin; t < warp_end; ++t) {
    const ThreadOp& op = instr[t];
    if (op.kind == OpKind::kNone) continue;
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
    ++result.active_threads;
  }
  if (saw_read + saw_write + saw_atomic + saw_register > 1) {
    throw std::invalid_argument(
        "Dmm: a warp cannot mix reads, writes, atomics and register ops in "
        "one SIMD instruction");
  }
  if (result.active_threads == 0) return result;

  if (capture_) {
    // Report the logical (pre-mapping) stream: active-lane mask plus the
    // memory ops' addresses in ascending lane order.
    std::uint64_t lane_mask = 0;
    std::vector<std::uint64_t> logical;
    if (!saw_register) logical.reserve(result.active_threads);
    for (std::uint32_t t = warp_begin; t < warp_end; ++t) {
      const ThreadOp& op = instr[t];
      if (op.kind == OpKind::kNone) continue;
      lane_mask |= std::uint64_t{1} << (t - warp_begin);
      if (!saw_register) logical.push_back(op.logical);
    }
    const CapturedOpClass cls = saw_atomic    ? CapturedOpClass::kAtomic
                                : saw_write   ? CapturedOpClass::kWrite
                                : saw_read    ? CapturedOpClass::kRead
                                              : CapturedOpClass::kRegister;
    capture_->on_warp_access(instr_idx, warp_id, cls, lane_mask, logical);
  }

  if (saw_atomic) {
    // Atomics: every request needs its own bank cycle — same-address
    // requests serialize instead of merging. The adds themselves commute,
    // so the data effect is order-independent.
    tally_.begin(config_.width, warp_end - warp_begin);
    std::uint64_t rows_touched = 0;
    std::uint64_t prev_row = std::numeric_limits<std::uint64_t>::max();
    for (std::uint32_t t = warp_begin; t < warp_end; ++t) {
      const ThreadOp& op = instr[t];
      if (op.kind == OpKind::kNone) continue;
      const std::uint64_t phys = map_.translate(op.logical);
      if (phys >= memory_.size()) {
        if (sanitizer_) {
          // Record and skip the faulting lane so one run collects every
          // finding instead of dying on the first.
          sanitizer_->record_out_of_bounds(warp_id, t, instr_idx, op.logical,
                                           phys);
          continue;
        }
        throw std::out_of_range("Dmm: access beyond memory size");
      }
      if (sanitizer_) {
        // An atomic add reads the cell before writing it back.
        sanitizer_->check_read(warp_id, t, instr_idx, op.logical, phys,
                               /*atomic=*/true);
        sanitizer_->note_write(warp_id, t, instr_idx, op.logical, phys,
                               /*atomic=*/true);
      }
      memory_[phys] += registers_[static_cast<std::size_t>(t) *
                                      kRegistersPerThread +
                                  op.reg];
      ++result.unique_requests;
      if (telemetry_) {
        ++telemetry_->bank_requests[static_cast<std::size_t>(phys %
                                                             config_.width)];
      }
      if (config_.kind == MachineKind::kDmm) {
        tally_.add_unmerged(phys);
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
      note_bank_peaks();
    }
    return result;
  }

  if (saw_register) {
    // Register-only instruction: executes without touching the memory
    // pipeline (congestion stays 0; arithmetic is free in this model).
    for (std::uint32_t t = warp_begin; t < warp_end; ++t) {
      const ThreadOp& op = instr[t];
      if (op.kind != OpKind::kMinMax) continue;
      auto& lo = registers_[static_cast<std::size_t>(t) *
                                kRegistersPerThread + op.reg];
      auto& hi = registers_[static_cast<std::size_t>(t) *
                                kRegistersPerThread + op.reg2];
      if (lo > hi) std::swap(lo, hi);
    }
    return result;
  }

  // Translate, merge duplicates (CRCW), count per-bank unique requests.
  // The map preserves bank counts only through translate(); we group by
  // physical address. Lanes are added in ascending order, so the tally's
  // first writer is the lowest lane.
  tally_.begin(config_.width, warp_end - warp_begin);
  for (std::uint32_t t = warp_begin; t < warp_end; ++t) {
    const ThreadOp& op = instr[t];
    if (op.kind == OpKind::kNone) continue;
    const std::uint64_t phys = map_.translate(op.logical);
    if (phys >= memory_.size()) {
      if (sanitizer_) {
        sanitizer_->record_out_of_bounds(warp_id, t, instr_idx, op.logical,
                                         phys);
        continue;
      }
      throw std::out_of_range("Dmm: access beyond memory size");
    }
    const std::uint32_t winner = tally_.add(phys, t);
    const bool inserted = winner == t;
    if (sanitizer_ && is_read(op.kind)) {
      sanitizer_->check_read(warp_id, t, instr_idx, op.logical, phys);
    }

    auto& reg =
        registers_[static_cast<std::size_t>(t) * kRegistersPerThread + op.reg];
    switch (op.kind) {
      case OpKind::kLoad:
        reg = memory_[phys];
        break;
      case OpKind::kLoadAdd:
        reg += memory_[phys];
        break;
      case OpKind::kLoadMulAdd:
        reg += registers_[static_cast<std::size_t>(t) * kRegistersPerThread +
                          op.reg2] *
               memory_[phys];
        break;
      case OpKind::kStore:
      case OpKind::kStoreImm:
        if (inserted) {
          // CRCW arbitrary write: the first (lowest-id) thread wins;
          // later writes to the same merged address are ignored.
          memory_[phys] =
              op.kind == OpKind::kStoreImm ? op.immediate : reg;
          if (sanitizer_) {
            sanitizer_->note_write(warp_id, t, instr_idx, op.logical, phys);
          }
        } else if (sanitizer_) {
          // The winner already stored; a losing lane carrying a DIFFERENT
          // value is a genuine CRCW write-write race.
          sanitizer_->check_write_conflict(
              warp_id, winner, t, instr_idx, op.logical, phys,
              memory_[phys], op.kind == OpKind::kStoreImm ? op.immediate : reg);
        }
        break;
      case OpKind::kNone:
      case OpKind::kMinMax:
      case OpKind::kBarrier:
      case OpKind::kAtomicAdd:
        break;  // unreachable: filtered above / handled by the scheduler
    }
  }

  result.unique_requests = tally_.unique_requests();
  if (telemetry_) {
    for (const std::uint64_t addr : tally_.unique_addresses()) {
      ++telemetry_->bank_requests[static_cast<std::size_t>(addr %
                                                           config_.width)];
    }
  }
  if (config_.kind == MachineKind::kDmm) {
    // DMM: one pipeline slot carries at most one request per bank.
    result.congestion = tally_.congestion();
    note_bank_peaks();
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

void Dmm::begin_run(const Kernel& kernel) {
  registers_.assign(
      static_cast<std::size_t>(kernel.num_threads) * kRegistersPerThread, 0);
  if (telemetry_) telemetry_->reset(config_.width);
  if (sanitizer_) sanitizer_->begin_run(kernel.labels);
  if (capture_) {
    if (config_.width > 64) {
      // The capture lane mask is one 64-bit word; wider machines have no
      // real-hardware counterpart and no portable trace encoding.
      throw std::invalid_argument(
          "Dmm: access capture supports width <= 64 only");
    }
    capture_->begin_kernel(kernel.num_threads, config_.width, memory_.size());
  }
}

Dmm::WarpAccess Dmm::warp_access(const Kernel& kernel,
                                 std::uint32_t instr_idx,
                                 std::uint32_t warp) {
  const std::uint32_t begin = warp * config_.width;
  const std::uint32_t end =
      std::min(begin + config_.width, kernel.num_threads);
  return perform_warp_access(kernel.instructions[instr_idx], instr_idx, begin,
                             end);
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
      width_(machine.config().width),
      num_warps_((kernel.num_threads + machine.config().width - 1) /
                 machine.config().width),
      next_instr_(num_warps_, 0) {
  // Skip leading instructions in which a warp has nothing to do (no cost:
  // warps with no pending memory request are not dispatched).
  for (std::uint32_t warp = 0; warp < num_warps_; ++warp) advance_idle(warp);
}

bool KernelWarpSource::warp_has_active(std::uint32_t warp,
                                       std::size_t instr_idx) const {
  const Instruction& instr = kernel_->instructions[instr_idx];
  const std::uint32_t begin = warp * width_;
  const std::uint32_t end = std::min(begin + width_, kernel_->num_threads);
  for (std::uint32_t t = begin; t < end; ++t) {
    if (instr[t].kind != OpKind::kNone) return true;
  }
  return false;
}

void KernelWarpSource::advance_idle(std::uint32_t warp) {
  while (next_instr_[warp] < kernel_->instructions.size() &&
         !warp_has_active(warp, next_instr_[warp])) {
    ++next_instr_[warp];
  }
}

bool KernelWarpSource::done(std::uint32_t warp) const {
  return next_instr_[warp] >= kernel_->instructions.size();
}

bool KernelWarpSource::at_barrier(std::uint32_t warp) const {
  return next_instr_[warp] < kernel_->instructions.size() &&
         kernel_->instructions[next_instr_[warp]][warp * width_].kind ==
             OpKind::kBarrier;
}

std::size_t KernelWarpSource::pc(std::uint32_t warp) const {
  return next_instr_[warp];
}

hier::IssueResult KernelWarpSource::issue(std::uint32_t warp) {
  const Dmm::WarpAccess access = machine_->warp_access(
      *kernel_, static_cast<std::uint32_t>(next_instr_[warp]), warp);
  return {access.congestion, access.active_threads, access.unique_requests,
          0};
}

void KernelWarpSource::advance(std::uint32_t warp) {
  ++next_instr_[warp];
  advance_idle(warp);
}

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
  if (trace) trace->clear();
  begin_run(kernel);

  KernelWarpSource source(*this, kernel);
  hier::RoundRobinScheduler scheduler;
  scheduler.reset(source.num_warps());
  hier::EventCore core(source.num_warps(), config_.latency);
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
