// The shared event core: one clock + dispatch engine for every machine.
//
// Before the hierarchy simulator existed, the warp-dispatch bookkeeping
// (pipeline clock, per-warp readiness, round-robin selection, barrier
// release, dispatch statistics) lived inside dmm::Dmm::run, and the GPU
// timing model re-summed the same per-dispatch totals from a trace. This
// header hoists that machinery into one place:
//
//   * EventCore — the clock. Owns the MMU pipeline slot counter, the
//     per-warp earliest-issue times, a mirror of each warp's program
//     state, and the dispatch totals. One step() performs exactly one
//     scheduling decision: dispatch a warp, advance the clock over an
//     idle gap, or release a barrier group.
//   * WarpSource — what the machine provides: per-warp program state
//     (done / at-barrier / program counter) and the data movement of one
//     warp-instruction (issue/advance). dmm::KernelWarpSource adapts a
//     dmm::Kernel and replay::TraceWarpSource an access trace;
//     hier::Sm wraps the kernel adapter and adds the memory-path
//     penalty to each issue.
//   * Scheduler — the pluggable warp-selection policy (scheduler.hpp).
//     RoundRobinScheduler reproduces the historical Dmm order bit for
//     bit; the differential tests pin it.
//   * CoreHooks — optional per-event callbacks (trace records, telemetry,
//     barrier side effects). Null hooks cost one branch per event.
//
// Determinism contract: step() consults only the source, the scheduler
// and its own state, so two runs with equal inputs produce identical
// dispatch sequences. The multi-SM driver (hier.hpp) interleaves several
// cores by always stepping the one with the smallest clock (ties by SM
// id), which keeps shared-resource arrival order deterministic too.
//
// This library deliberately depends on nothing but the standard library:
// dmm links it (the Dmm runs ON the core), and the hierarchy links both.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rapsim::hier {

/// Cost of issuing one warp-instruction, reported by the WarpSource.
struct IssueResult {
  /// Pipeline slots occupied (the congestion). 0 means a register-only
  /// instruction: it executes without touching the memory pipeline and
  /// produces no dispatch record.
  std::uint32_t stages = 0;
  std::uint32_t active_threads = 0;
  std::uint32_t unique_requests = 0;
  /// Extra completion latency beyond the banked pipeline (the memory
  /// hierarchy's miss penalty). Zero for a pure shared-memory machine —
  /// the configuration under which the core reproduces the historical
  /// Dmm timing exactly.
  std::uint64_t extra_latency = 0;
};

/// One dispatched warp-instruction, as reported to CoreHooks.
struct DispatchEvent {
  std::uint32_t warp = 0;
  std::size_t pc = 0;             // program counter at dispatch
  std::uint64_t start = 0;        // first pipeline slot occupied
  std::uint32_t stages = 0;       // slots occupied == congestion
  std::uint64_t completion = 0;   // last data arrival (incl. path penalty)
  std::uint32_t active_threads = 0;
  std::uint32_t unique_requests = 0;
  std::uint64_t stall_slots = 0;  // ready-but-undispatched queueing delay
};

/// Per-warp program state + data movement, provided by the machine.
///
/// Contract: a warp's state (done / at_barrier / pc) changes only in
/// advance(warp). The core relies on it: it reads every warp's state once
/// at its first step and then only for the warp it just advanced, and
/// answers every other question from its own copy.
class WarpSource {
 public:
  virtual ~WarpSource() = default;

  /// Warp has no further instructions to dispatch.
  [[nodiscard]] virtual bool done(std::uint32_t warp) const = 0;

  /// Warp's next instruction is a block-wide barrier.
  [[nodiscard]] virtual bool at_barrier(std::uint32_t warp) const = 0;

  /// Program counter (instruction index) of the warp's next instruction.
  /// Used to group barrier releases: all warps parked at the earliest
  /// barrier release together.
  [[nodiscard]] virtual std::size_t pc(std::uint32_t warp) const = 0;

  /// Execute the data movement of the warp's current instruction and
  /// report its cost. Called exactly once per dispatched instruction.
  [[nodiscard]] virtual IssueResult issue(std::uint32_t warp) = 0;

  /// Move the warp past its current instruction (skipping any following
  /// instructions in which it has nothing to do).
  virtual void advance(std::uint32_t warp) = 0;
};

/// Optional per-event callbacks.
class CoreHooks {
 public:
  virtual ~CoreHooks() = default;
  /// The pipeline idled `slots` slots waiting for a request to drain.
  virtual void on_idle(std::uint64_t slots) { (void)slots; }
  /// A warp-instruction entered the pipeline.
  virtual void on_dispatch(const DispatchEvent& event) { (void)event; }
  /// The barrier group at instruction `pc` released (fires once per
  /// barrier instruction).
  virtual void on_barrier_release(std::size_t pc) { (void)pc; }
};

/// Everything a warp scheduler may consult when choosing. `candidates`
/// is non-empty and sorted by warp id; every member is ready now.
struct SchedulerView {
  const std::vector<std::uint32_t>& candidates;
  const std::vector<std::uint64_t>& ready;  // per-warp earliest-issue slot
  std::uint64_t now;                        // next free pipeline slot
};

/// Pluggable warp-selection policy. Concrete policies in scheduler.hpp.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// Reset policy state for a fresh run over `num_warps` warps.
  virtual void reset(std::uint32_t num_warps) = 0;
  /// Choose one of view.candidates. Returning a warp not in the
  /// candidate set is a policy bug; EventCore throws std::logic_error.
  [[nodiscard]] virtual std::uint32_t pick(const SchedulerView& view) = 0;
  /// `warp`'s current instruction was executed (memory or register-only).
  virtual void on_dispatch(std::uint32_t warp) = 0;
};

/// Aggregated dispatch bookkeeping — the one accumulator shared by the
/// live core (EventCore::step), the Dmm's RunStats conversion, and the
/// GPU timing model's trace replay (gpu/sm_model.hpp).
struct DispatchTotals {
  std::uint64_t last_completion = 0;
  std::uint64_t total_stages = 0;
  std::uint64_t dispatches = 0;
  std::uint32_t max_congestion = 0;
  double congestion_sum = 0.0;

  void add(std::uint32_t stages, std::uint64_t completion) noexcept {
    total_stages += stages;
    if (stages > max_congestion) max_congestion = stages;
    congestion_sum += stages;
    ++dispatches;
    if (completion > last_completion) last_completion = completion;
  }

  [[nodiscard]] double avg_congestion() const noexcept {
    return dispatches != 0
               ? congestion_sum / static_cast<double>(dispatches)
               : 0.0;
  }
};

/// The clock + dispatch engine. See header comment for the step()
/// semantics; run() is while (step()).
class EventCore {
 public:
  /// `latency` is the banked pipeline latency (the DMM's l >= 1): a
  /// dispatch occupying slots [s, s+c-1] completes at s + c + latency - 1.
  EventCore(std::uint32_t num_warps, std::uint32_t latency);

  /// Perform one scheduling decision. Returns false when every warp has
  /// finished (and performs nothing). A core serves one source for its
  /// whole run: the first step mirrors that source's warp state.
  bool step(WarpSource& source, Scheduler& scheduler,
            CoreHooks* hooks = nullptr);

  /// Drive step() to completion and return the totals.
  const DispatchTotals& run(WarpSource& source, Scheduler& scheduler,
                            CoreHooks* hooks = nullptr);

  /// The clock: next free pipeline slot.
  [[nodiscard]] std::uint64_t now() const noexcept { return pipeline_next_; }
  [[nodiscard]] const DispatchTotals& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] std::uint32_t num_warps() const noexcept {
    return num_warps_;
  }

 private:
  std::uint32_t num_warps_;
  std::uint32_t latency_;
  std::uint64_t pipeline_next_ = 0;       // next free MMU pipeline slot
  std::vector<std::uint64_t> ready_;      // per-warp earliest issue slot
  std::vector<std::uint32_t> candidates_; // scratch, reused across steps
  DispatchTotals totals_;
  // The source's per-warp state, mirrored: filled at the first step and
  // refreshed for a warp only right after the core advances it (the
  // WarpSource contract), so a step's warp scan makes no virtual call.
  struct WarpState {
    std::size_t pc = 0;
    bool done = false;
    bool parked = false;  // at a barrier
  };
  bool mirrored_ = false;
  std::vector<WarpState> state_;

  /// Re-read `warp`'s state from the source.
  void refresh(const WarpSource& source, std::uint32_t warp);
  /// source.advance(warp), then refresh it.
  void advance(WarpSource& source, std::uint32_t warp);
};

}  // namespace rapsim::hier
