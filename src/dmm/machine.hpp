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
// Data moves only where a caller needs it. Congestion depends on the
// addresses alone, so one warp-access body serves two entry points: a
// kernel's ThreadOps (Dmm::run, HierSim), which also load, store and add
// through the register file and the memory image, and a trace's op class
// plus logical addresses (replay::TraceWarpSource), which stop at the bank
// tally. Translation, the bounds rule, CRCW merge or atomic
// serialization, DMM/UMM congestion, telemetry, capture and the
// sanitizer's notes are the same code on both. The image and the register
// file are allocated by the first thing that needs data (a kernel run or
// a host accessor); a machine that only replays traces never holds them.
//
// With these semantics the paper's closed forms fall out exactly:
// contiguous access by p threads finishes at p/w + l - 1 and stride access
// at p + l - 1 (Section III), and Figure 3's example (two warps, 3 slots,
// l = 5) finishes at 3 + 5 - 1 = 7.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/congestion.hpp"
#include "core/mapping.hpp"
#include "dmm/capture.hpp"
#include "dmm/config.hpp"
#include "dmm/kernel.hpp"
#include "dmm/trace.hpp"
#include "hier/event.hpp"

namespace rapsim::telemetry {
struct RunTelemetry;
}

namespace rapsim::dmm {

class ShmemSanitizer;

/// Aggregate results of one kernel execution.
struct RunStats {
  std::uint64_t time = 0;              // completion time of the last request
  std::uint64_t total_stages = 0;      // pipeline slots consumed
  std::uint64_t dispatches = 0;        // warp-instructions dispatched
  std::uint32_t max_congestion = 0;    // worst warp-instruction
  double avg_congestion = 0.0;         // mean over dispatches
};

/// The DMM: banked memory + MMU pipeline + warp scheduler. Logical
/// addresses are translated by the AddressMap given at construction, which
/// also fixes the memory size and width. The machine owns the physical
/// memory contents, allocated zeroed on first data use (begin_run(kernel),
/// store, fill_identity); until then load reads 0 and no image exists.
class Dmm {
 public:
  /// The map must outlive the machine. config.width must equal map.width().
  Dmm(DmmConfig config, const core::AddressMap& map);

  // --- Host-side (untimed) memory access, used to set up inputs and
  // --- verify outputs. Addresses are logical. store and fill_identity
  // --- allocate the memory image if no earlier call did.
  [[nodiscard]] std::uint64_t load(std::uint64_t logical) const;
  void store(std::uint64_t logical, std::uint64_t value);
  /// Fill address a with value a for a in [0, size) — the standard test
  /// pattern used by the transpose verifiers.
  void fill_identity();

  /// Execute a kernel to completion. If `trace` is non-null it receives
  /// one DispatchRecord per dispatched warp-instruction. This is
  /// begin_run(kernel) plus run() over a KernelWarpSource.
  RunStats run(const Kernel& kernel, Trace* trace = nullptr);

  /// The one run loop: drive `source` to completion on the shared event
  /// core (hier/event.hpp) with the round-robin policy, over the warps of
  /// the run begin_run opened. If `trace` is non-null it is cleared and
  /// receives one DispatchRecord per dispatched warp-instruction;
  /// telemetry, capture and sanitizer barriers are fed as for any run.
  /// Trace replay runs a replay::TraceWarpSource through it.
  RunStats run(hier::WarpSource& source, Trace* trace = nullptr);

  // --- Stepping interface for external clocks (src/hier/) -------------
  // Dmm::run is itself begin_run + a WarpSource + EventCore; a wrapper
  // that wants its own clock/scheduler/memory-path (HierSim) performs
  // the same sequence with its own core, issuing each warp's
  // instructions through a KernelWarpSource.

  /// Result of one warp-instruction's data movement.
  struct WarpAccess {
    std::uint32_t congestion = 0;       // pipeline slots occupied
    std::uint32_t unique_requests = 0;  // after CRCW merging
    std::uint32_t active_threads = 0;
  };

  /// Reset per-run state (telemetry sink, sanitizer epoch and
  /// instruction labels, capture preamble) for an address-only run of
  /// `num_threads` threads: no register file or memory image is touched,
  /// so only the address entry of perform_warp_access may follow. Must be
  /// called before a source issues the run's first warp-instruction.
  void begin_run(std::uint32_t num_threads,
                 std::span<const std::string> labels = {});
  /// begin_run with the kernel's thread count and labels, plus the data
  /// state a kernel moves: a zeroed register file, and the memory image
  /// if none exists yet (its contents carry over between runs).
  void begin_run(const Kernel& kernel);

  /// Execute one kernel warp-instruction, data movement included, and
  /// return its congestion (pipeline slots) and unique-request count.
  /// `lanes` are the warp's active threads in ascending order and `ops`
  /// their ops, side by side; nothing else is read. The ops must be of
  /// one SIMD class (throws std::invalid_argument otherwise), and the run
  /// must have been opened with begin_run(kernel) (std::logic_error
  /// otherwise). `instr_idx` is the instruction index (sanitizer findings
  /// and the capture cite it). Untimed: the caller's clock decides when
  /// the effects "happen" — within one warp the semantics are fixed,
  /// across warps they follow the caller's dispatch order
  /// (scheduler-defined, as on real hardware).
  WarpAccess perform_warp_access(std::span<const std::uint32_t> lanes,
                                 std::span<const ThreadOp> ops,
                                 std::uint32_t instr_idx,
                                 std::uint32_t warp_id);

  /// The same access from its addresses alone: `op` is the class, `addrs`
  /// the active lanes' logical addresses beside `lanes` (empty for
  /// kRegister). Congestion, telemetry, capture and sanitizer notes equal
  /// the kernel entry's for ops of that class at those addresses that all
  /// write one value, but no register or memory word is read or written:
  /// this is how a trace replays. Throws std::invalid_argument when a
  /// memory class's `addrs` and `lanes` differ in length.
  WarpAccess perform_warp_access(CapturedOpClass op,
                                 std::span<const std::uint32_t> lanes,
                                 std::span<const std::uint64_t> addrs,
                                 std::uint32_t instr_idx,
                                 std::uint32_t warp_id);

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
  void set_sanitizer(ShmemSanitizer* sanitizer);
  [[nodiscard]] ShmemSanitizer* sanitizer() const noexcept {
    return sanitizer_;
  }

  [[nodiscard]] const DmmConfig& config() const noexcept { return config_; }
  [[nodiscard]] const core::AddressMap& map() const noexcept { return map_; }
  [[nodiscard]] std::uint64_t memory_size() const noexcept {
    return map_.size();
  }

 private:
  /// The one warp-access body. Op is ThreadOp for a kernel access (moves
  /// data) and std::uint64_t, a bare logical address, for a trace's.
  template <typename Op>
  WarpAccess access(CapturedOpClass op_class,
                    std::span<const std::uint32_t> lanes,
                    std::span<const Op> ops, std::uint32_t instr_idx,
                    std::uint32_t warp_id);
  /// Allocate the zeroed memory image unless it exists.
  void allocate_memory();

  DmmConfig config_;
  const core::AddressMap& map_;
  // Data state, empty until something moves data (see the class doc).
  std::vector<std::uint64_t> memory_;     // physical layout
  std::vector<std::uint64_t> registers_;  // kRegistersPerThread per thread
  telemetry::RunTelemetry* telemetry_ = nullptr;  // optional, not owned
  ShmemSanitizer* sanitizer_ = nullptr;  // optional, not owned
  AccessCapture* capture_ = nullptr;              // optional, not owned
  // Per-access scratch, reused so a warp access does not allocate.
  core::BankTally tally_;
  std::vector<std::uint64_t> umm_rows_;       // UMM: merged addresses, sorted
  std::vector<std::uint64_t> capture_addrs_;  // capture: logical addresses
  std::uint32_t run_warps_ = 0;  // warps of the run begin_run opened
};

/// hier::WarpSource adapter over a straight-line dmm::Kernel: per-warp
/// program counters with idle-instruction skipping (a warp with nothing
/// to do in an instruction is never dispatched for it). At construction
/// one pass over the kernel's store builds each warp's step list — the
/// instructions in which the warp has an active lane, each as a
/// contiguous run {offset, count} of the store's threads and ops — so
/// advancing a warp is a cursor increment and an issue reads only that
/// run. Dmm::run drives one internally; the hierarchy simulator wraps one
/// per SM and adds the memory-path penalty to each issue.
class KernelWarpSource final : public hier::WarpSource {
 public:
  /// Machine and kernel must outlive the source, and the kernel must not
  /// change while it does; the machine must have begin_run(kernel)
  /// called before the first issue().
  KernelWarpSource(Dmm& machine, const Kernel& kernel);

  [[nodiscard]] std::uint32_t num_warps() const noexcept {
    return num_warps_;
  }

  [[nodiscard]] bool done(std::uint32_t warp) const override;
  [[nodiscard]] bool at_barrier(std::uint32_t warp) const override;
  [[nodiscard]] std::size_t pc(std::uint32_t warp) const override;
  [[nodiscard]] hier::IssueResult issue(std::uint32_t warp) override;
  void advance(std::uint32_t warp) override;

  /// Active ops of the warp's current instruction, in ascending lane
  /// order. The warp must not be done.
  [[nodiscard]] std::span<const ThreadOp> ops(
      std::uint32_t warp) const noexcept {
    const Step& step = steps_[cursors_[warp].next];
    return kernel_->instructions.ops().subspan(step.offset, step.count);
  }

 private:
  /// One instruction of one warp: its run of the kernel's store.
  struct Step {
    std::size_t offset = 0;   // first of the warp's ops in the store
    std::uint32_t pc = 0;     // instruction index
    std::uint32_t count = 0;  // active lanes
  };

  /// One warp's slice of steps_ and its position in it.
  struct Cursor {
    std::size_t next = 0;  // the current step
    std::size_t end = 0;   // one past the warp's last step
  };

  Dmm* machine_;
  const Kernel* kernel_;
  std::uint32_t num_warps_;
  std::vector<Step> steps_;  // warp-major step lists
  std::vector<Cursor> cursors_;
};

}  // namespace rapsim::dmm
