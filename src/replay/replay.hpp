// Trace-driven DMM replay (trace replay, pillar 2).
//
// The bridge between portable access traces (replay/trace.hpp) and the
// executable machine: TraceCaptureSink records any Dmm run into an
// AccessTrace, TraceWarpSource feeds a trace's records straight to a
// Dmm's warp access, and replay_trace() runs it under an arbitrary
// AddressMap, yielding the usual RunStats + telemetry + dispatch trace.
// lower_to_kernel() turns a trace back into a straight-line dmm::Kernel;
// replay does not need it, and the tests keep it as replay's oracle.
//
// Replay is exact: the source issues each record at its instruction
// index with its active-lane mask, op class and logical addresses, which
// are the only inputs the scheduler and the congestion accounting
// consume — so capturing a workload and replaying it under the same
// (scheme, width, seed) reproduces the native run's RunStats bit for bit
// (tests/replay_differential_test.cpp pins this over every built-in
// workload x scheme x width, and pins replay_trace to a run of the
// lowered kernel). Data values are NOT replayed: a trace is an address
// stream, congestion is a function of addresses alone, and a replay
// moves no data (no register file or memory image exists; the oracle
// kernel reads with kLoad, writes kStoreImm 0 and adds with kAtomicAdd).
//
// certify_trace() closes the loop with the static analyzer: each
// read/write/atomic record is one warp's concrete address stream, so the
// per-warp prover (analyze::prove_worst_warp) can attach a congestion
// certificate — exact for affine-recognizable streams under deterministic
// schemes, the Theorem 2 envelope otherwise — to any replayed stream.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analyze/certificate.hpp"
#include "analyze/kernelir.hpp"
#include "core/mapping.hpp"
#include "dmm/capture.hpp"
#include "dmm/machine.hpp"
#include "dmm/sanitizer.hpp"
#include "hier/event.hpp"
#include "replay/trace.hpp"
#include "telemetry/run_telemetry.hpp"
#include "telemetry/span_tracer.hpp"

namespace rapsim::replay {

/// AccessCapture adapter that accumulates a run into an AccessTrace.
/// Install on a Dmm, run any kernel, then take() the finished trace.
class TraceCaptureSink final : public dmm::AccessCapture {
 public:
  void begin_kernel(std::uint32_t num_threads, std::uint32_t width,
                    std::uint64_t memory_size) override;
  void on_warp_access(std::uint32_t instr, std::uint32_t warp,
                      dmm::CapturedOpClass op, std::uint64_t lane_mask,
                      std::span<const std::uint64_t> addrs) override;
  void on_barrier(std::uint32_t instr) override;

  [[nodiscard]] const AccessTrace& trace() const noexcept { return trace_; }
  /// Move the captured trace out (the sink resets for the next run).
  [[nodiscard]] AccessTrace take();

 private:
  AccessTrace trace_;
};

/// Run `machine`'s kernel while capturing, and return the trace. The
/// machine's previous capture sink (if any) is restored afterwards.
[[nodiscard]] AccessTrace capture_run(dmm::Dmm& machine,
                                      const dmm::Kernel& kernel,
                                      dmm::RunStats* stats = nullptr);

/// Lower a validated trace into an executable kernel: one instruction
/// per recorded index (unrecorded indices stay all-idle and cost
/// nothing), barriers at their markers, reads as kLoad, writes as
/// kStoreImm, atomics as kAtomicAdd, register records as kMinMax.
/// Running it equals replay_trace; the tests use it as the oracle.
[[nodiscard]] dmm::Kernel lower_to_kernel(const AccessTrace& trace);

/// hier::WarpSource over a validated trace: what a KernelWarpSource over
/// lower_to_kernel(trace) issues, without building the kernel or moving
/// any data. At construction one pass lists each warp's steps — the
/// warp's own records plus every barrier, in instruction order — as
/// record indices; an issue expands the record's lane mask into thread
/// ids and hands them, with the record's op class and its addresses as
/// they are, to the address entry of Dmm::perform_warp_access. No
/// ThreadOp, register file or memory image is made. Build once per
/// trace; rewind() before each Dmm::run(source).
class TraceWarpSource final : public hier::WarpSource {
 public:
  /// Validates the trace (throws std::invalid_argument like
  /// AccessTrace::validate) and indexes it. The trace must outlive the
  /// source and must not change while it does.
  explicit TraceWarpSource(const AccessTrace& trace);

  /// Open a run of the trace on `machine` (the address-only
  /// Dmm::begin_run over the trace's threads, no labels) with every warp
  /// at its first step. The run leaves the machine's memory contents as
  /// they were. The machine must outlive the run. Throws
  /// std::invalid_argument when the machine's width is not the trace's.
  void rewind(dmm::Dmm& machine);

  [[nodiscard]] bool done(std::uint32_t warp) const override {
    return next_[warp] == begins_[warp + 1];
  }
  [[nodiscard]] bool at_barrier(std::uint32_t warp) const override;
  [[nodiscard]] std::size_t pc(std::uint32_t warp) const override;
  [[nodiscard]] hier::IssueResult issue(std::uint32_t warp) override;
  void advance(std::uint32_t warp) override { ++next_[warp]; }

 private:
  [[nodiscard]] const TraceRecord& current(std::uint32_t warp) const {
    return trace_->records[steps_[next_[warp]]];
  }

  const AccessTrace* trace_;
  dmm::Dmm* machine_ = nullptr;
  std::uint32_t num_instr_ = 0;  // one past the largest instruction index
  // Record indices, warp-major: warp w's steps are
  // steps_[begins_[w], begins_[w + 1]), next_[w] its current one. The
  // trace caps (kMaxTraceOps) keep every count below 2^32.
  std::vector<std::uint32_t> steps_;
  std::vector<std::uint32_t> begins_;
  std::vector<std::uint32_t> next_;
  // The issuing warp's active threads.
  std::array<std::uint32_t, kMaxTraceWidth> lanes_{};
};

struct ReplayOptions {
  std::uint32_t latency = 1;
  dmm::MachineKind kind = dmm::MachineKind::kDmm;
  /// Optional span tracer: when set (and enabled), replay_trace records
  /// "replay:lower" (validating and indexing the trace) and
  /// "replay:execute" (the run) spans parented under `trace_parent`
  /// (kNoSpan = they become roots). Never owned.
  telemetry::SpanTracer* tracer = nullptr;
  std::uint64_t trace_parent = telemetry::kNoSpan;
  /// Optional sanitizer installed on the replay machine (never owned).
  /// Every replay memory cell counts as initialized when set, so a
  /// replayed trace is screened for cross-warp races without
  /// uninitialized-read noise — the trace-replay leg of the race
  /// differential (tests/race_differential_test.cpp).
  dmm::ShmemSanitizer* sanitizer = nullptr;
};

struct ReplayResult {
  dmm::RunStats stats;
  telemetry::RunTelemetry telemetry;
  dmm::Trace dispatches;
};

/// Execute the trace under `map`: a TraceWarpSource run on a fresh Dmm.
/// Requires map.width() == header.width and map.size() >=
/// header.memory_size (throws std::invalid_argument otherwise).
[[nodiscard]] ReplayResult replay_trace(const AccessTrace& trace,
                                        const core::AddressMap& map,
                                        const ReplayOptions& options = {});

/// Materialize a kernel IR description (analyze/kernelir.hpp) into a
/// concrete AccessTrace: one memory record per (loop binding, access
/// site) pair, bindings enumerated odometer-style and truncated at
/// `max_records` (the truncation is deterministic — a prefix of the
/// odometer order). The record kind follows the site's AccessDir, the
/// lane mask covers the site's active lanes, and the header's memory
/// size is the kernel's rows x width footprint. This is the bridge that
/// lets a synthesized mapping (analyze/synth.hpp) be confirmed on the
/// full DMM for kernels that exist only as IR. Throws
/// std::invalid_argument on an invalid kernel or one whose width
/// exceeds kMaxTraceWidth.
[[nodiscard]] AccessTrace trace_from_kernel(const analyze::KernelDesc& kernel,
                                            std::uint64_t max_records = 1u
                                                                        << 16);

/// Worst-warp congestion certificate for the trace's memory records
/// under `scheme` (see analyze/certificate.hpp for the rule set).
/// Register-only and barrier records carry no addresses and are skipped.
/// Throws std::invalid_argument when the trace has no memory records.
[[nodiscard]] analyze::CongestionCertificate certify_trace(
    const AccessTrace& trace, core::Scheme scheme);

}  // namespace rapsim::replay
