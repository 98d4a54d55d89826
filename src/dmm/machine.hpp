// The Discrete Memory Machine simulator.
//
// Faithful executable model of Section II of the paper:
//
//   * The memory is a single address space interleaved over w banks
//     (word a lives in bank a mod w of the *physical* layout; logical
//     addresses pass through an AddressMap first — RAW/RAS/RAP/...).
//   * p threads are partitioned into p/w warps of w consecutive ids.
//   * Warps are dispatched for memory access in round-robin order; a warp
//     with no pending request is skipped.
//   * A dispatched warp-instruction occupies `congestion` consecutive
//     pipeline slots — one slot can carry at most one request per bank, so
//     the per-bank unique-request maximum is exactly the number of slots
//     needed (requests to the same address merge: CRCW, arbitrary write).
//   * A request entering the pipeline at slot t completes at time unit
//     t + l; a warp-instruction whose slots are [s, s+c-1] therefore
//     completes at s + c + l - 1, and its threads may issue their next
//     request from time s + c + l on.
//
// Data semantics: a warp-instruction's data movement executes atomically
// at dispatch time, in dispatch order. Within one warp, duplicate
// addresses merge and the lowest thread id wins a write race (CRCW
// arbitrary, made deterministic). Across warps, ordering between
// instructions is scheduler-defined unless separated by a barrier —
// matching real hardware, where inter-warp races without __syncthreads()
// are undefined. tests/differential_test.cpp pins these semantics against
// an in-order reference interpreter.
//
// With these semantics the paper's closed forms fall out exactly:
// contiguous access by p threads finishes at p/w + l - 1 and stride access
// at p + l - 1 (Section III), and Figure 3's example (two warps, 3 slots,
// l = 5) finishes at 3 + 5 - 1 = 7.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/congestion.hpp"
#include "core/mapping.hpp"
#include "dmm/capture.hpp"
#include "dmm/config.hpp"
#include "dmm/kernel.hpp"
#include "dmm/trace.hpp"
#include "hier/event.hpp"

namespace rapsim::analyze {
class ShmemSanitizer;
}

namespace rapsim::telemetry {
struct RunTelemetry;
}

namespace rapsim::dmm {

/// Aggregate results of one kernel execution.
struct RunStats {
  std::uint64_t time = 0;              // completion time of the last request
  std::uint64_t total_stages = 0;      // pipeline slots consumed
  std::uint64_t dispatches = 0;        // warp-instructions dispatched
  std::uint32_t max_congestion = 0;    // worst warp-instruction
  double avg_congestion = 0.0;         // mean over dispatches
};

/// The DMM: banked memory + MMU pipeline + warp scheduler. The machine
/// owns the physical memory contents; logical addresses are translated by
/// the AddressMap given at construction (which also fixes memory size and
/// width).
class Dmm {
 public:
  /// The map must outlive the machine. config.width must equal map.width().
  Dmm(DmmConfig config, const core::AddressMap& map);

  // --- Host-side (untimed) memory access, used to set up inputs and
  // --- verify outputs. Addresses are logical.
  [[nodiscard]] std::uint64_t load(std::uint64_t logical) const;
  void store(std::uint64_t logical, std::uint64_t value);
  /// Fill address a with value a for a in [0, size) — the standard test
  /// pattern used by the transpose verifiers.
  void fill_identity();

  /// Execute a kernel to completion. If `trace` is non-null it receives
  /// one DispatchRecord per dispatched warp-instruction. Implemented on
  /// the shared event core (hier/event.hpp) with the round-robin policy;
  /// the stepping API below lets external clocks (the hierarchy
  /// simulator) drive the same machine one decision at a time.
  RunStats run(const Kernel& kernel, Trace* trace = nullptr);

  // --- Stepping interface for external clocks (src/hier/) -------------
  // Dmm::run is itself begin_run + KernelWarpSource + EventCore; a
  // wrapper that wants its own clock/scheduler/memory-path performs the
  // same sequence with its own core.

  /// Result of one warp-instruction's data movement.
  struct WarpAccess {
    std::uint32_t congestion = 0;       // pipeline slots occupied
    std::uint32_t unique_requests = 0;  // after CRCW merging
    std::uint32_t active_threads = 0;
  };

  /// Reset per-run state (thread registers, telemetry sink, sanitizer
  /// epoch, capture preamble) for `kernel`. Must be called before the
  /// first warp_access of a run.
  void begin_run(const Kernel& kernel);

  /// Execute the data movement of warp `warp`'s instruction `instr_idx`
  /// and report its cost, walking only the warp's active threads from the
  /// kernel's index (std::logic_error if the index does not cover the
  /// kernel). Untimed: the caller's clock decides when the effects
  /// "happen" — within one warp the semantics are fixed, across warps
  /// they follow the caller's dispatch order (scheduler-defined, as on
  /// real hardware).
  WarpAccess warp_access(const Kernel& kernel, std::uint32_t instr_idx,
                         std::uint32_t warp);

  /// Report a released barrier at instruction `instr_idx` (capture
  /// record + sanitizer race-epoch advance). Call once per barrier.
  void finish_barrier(std::uint32_t instr_idx);

  /// Install (or clear, with nullptr) a telemetry sink. While installed,
  /// every run() resets it and then feeds per-bank unique-request counts,
  /// the congestion histogram, warp stall slots, and pipeline idle slots.
  /// The null default costs one predictable branch per event — run() with
  /// no sink stays within noise of the pre-telemetry machine.
  void set_telemetry(telemetry::RunTelemetry* sink) noexcept {
    telemetry_ = sink;
  }
  [[nodiscard]] telemetry::RunTelemetry* telemetry() const noexcept {
    return telemetry_;
  }

  /// Install (or clear, with nullptr) an access-capture sink. While
  /// installed, every run() first reports the kernel's shape
  /// (begin_kernel) and then the logical address stream of each
  /// dispatched warp-instruction plus every barrier release — enough to
  /// reconstruct an exactly re-runnable kernel (see replay/replay.hpp).
  /// Like telemetry, a null capture costs one branch per dispatch.
  void set_capture(AccessCapture* capture) noexcept { capture_ = capture; }
  [[nodiscard]] AccessCapture* capture() const noexcept { return capture_; }

  /// Install (or clear, with nullptr) the shared-memory sanitizer. On
  /// install the sanitizer's shadow write-bitmap is reset to all-unwritten
  /// and sized for this memory, so install BEFORE storing kernel inputs.
  /// While installed, out-of-bounds accesses are recorded and the faulting
  /// lane skipped (instead of the machine throwing on the first one), and
  /// uninitialized reads / divergent CRCW write-write races are recorded.
  void set_sanitizer(analyze::ShmemSanitizer* sanitizer);
  [[nodiscard]] analyze::ShmemSanitizer* sanitizer() const noexcept {
    return sanitizer_;
  }

  [[nodiscard]] const DmmConfig& config() const noexcept { return config_; }
  [[nodiscard]] const core::AddressMap& map() const noexcept { return map_; }
  [[nodiscard]] std::uint64_t memory_size() const noexcept {
    return memory_.size();
  }

 private:
  DmmConfig config_;
  const core::AddressMap& map_;
  std::vector<std::uint64_t> memory_;     // physical layout
  std::vector<std::uint64_t> registers_;  // one accumulator per thread
  telemetry::RunTelemetry* telemetry_ = nullptr;  // optional, not owned
  analyze::ShmemSanitizer* sanitizer_ = nullptr;  // optional, not owned
  AccessCapture* capture_ = nullptr;              // optional, not owned
  // Per-access scratch, reused so a warp access does not allocate.
  core::BankTally tally_;
  std::vector<std::uint64_t> umm_rows_;  // UMM: merged addresses, sorted

  /// Fold this access's per-bank counts into the telemetry peaks.
  void note_bank_peaks();

  /// Execute the data movement of one warp-instruction and return its
  /// congestion (pipeline slots) and unique-request count. `lanes` are
  /// the warp's active threads in ascending order (the kernel index's
  /// span); no other lane is read. `instr_idx` is the kernel instruction
  /// index (sanitizer findings cite it).
  WarpAccess perform_warp_access(const Instruction& instr,
                                 std::uint32_t instr_idx,
                                 std::uint32_t warp_id,
                                 std::span<const std::uint32_t> lanes);

  friend class KernelWarpSource;  // issues with its cached lane span
};

/// hier::WarpSource adapter over a straight-line dmm::Kernel: per-warp
/// program counters with idle-instruction skipping (a warp with nothing
/// to do in an instruction is never dispatched for it). The skipping and
/// every issue read the kernel's active-thread index, never the idle
/// lanes; each warp's cursor caches its instruction's lane span and
/// whether it is a barrier. Dmm::run drives one internally; the
/// hierarchy simulator wraps one per SM and adds the memory-path penalty
/// to each issue.
class KernelWarpSource final : public hier::WarpSource {
 public:
  /// Machine and kernel must outlive the source; the machine must have
  /// begin_run(kernel) called before the first issue(). Throws
  /// std::logic_error if the kernel's index does not cover every
  /// instruction.
  KernelWarpSource(Dmm& machine, const Kernel& kernel);

  [[nodiscard]] std::uint32_t num_warps() const noexcept {
    return num_warps_;
  }

  [[nodiscard]] bool done(std::uint32_t warp) const override;
  [[nodiscard]] bool at_barrier(std::uint32_t warp) const override;
  [[nodiscard]] std::size_t pc(std::uint32_t warp) const override;
  [[nodiscard]] hier::IssueResult issue(std::uint32_t warp) override;
  void advance(std::uint32_t warp) override;

  /// Active threads of the warp's current instruction, ascending (empty
  /// once the warp is done).
  [[nodiscard]] std::span<const std::uint32_t> lanes(
      std::uint32_t warp) const noexcept {
    return cursors_[warp].lanes;
  }

 private:
  struct Cursor {
    std::size_t pc = 0;                     // next instruction to issue
    std::span<const std::uint32_t> lanes;   // its active threads here
    bool barrier = false;                   // it is a block barrier
  };

  /// Point the warp at its first instruction at or after `from` that has
  /// an active thread in the warp.
  void seek(std::uint32_t warp, std::size_t from);

  Dmm* machine_;
  const Kernel* kernel_;
  std::uint32_t width_;
  std::uint32_t num_warps_;
  std::vector<Cursor> cursors_;
};

}  // namespace rapsim::dmm
