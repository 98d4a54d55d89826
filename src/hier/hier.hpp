// Multi-SM memory-hierarchy simulator.
//
// A HierSim runs the SAME dmm::Kernel on N streaming multiprocessors —
// the standard GPU launch shape where every block executes one copy of
// the program against its own shared memory. Each SM owns:
//
//   * a dmm::Dmm (banked shared memory under the configured AddressMap —
//     so the full RAW/RAS/RAP bank-conflict model applies per SM),
//   * an EventCore clock driving a pluggable warp Scheduler
//     (roundrobin / gto / dwr — scheduler.hpp),
//   * an L1 + MSHR front of the global-memory path (memory.hpp); the L2
//     and DRAM ports behind it are shared by all SMs, which is where the
//     SMs actually contend.
//
// The driver interleaves the per-SM cores deterministically: each
// iteration steps the unfinished SM with the smallest clock (ties to the
// lowest SM id). SMs share no kernel state — only the L2/DRAM ports —
// so this ordering fixes the one cross-SM interaction (arrival order at
// the shared servers) and two runs of the same configuration are
// bit-identical.
//
// Soundness of the differential pin (tests/hier_differential_test.cpp):
// with sms = 1, scheduler = "roundrobin" and PathParams::zero(), the SM's
// EventCore + KernelWarpSource sequence is definitionally the body of
// Dmm::run — same core, same scheduler, extra_latency identically 0 —
// so HierSim reproduces dmm::RunStats bit for bit, including the double
// avg_congestion accumulation order.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "dmm/kernel.hpp"
#include "dmm/machine.hpp"
#include "gpu/sm_model.hpp"
#include "hier/event.hpp"
#include "hier/memory.hpp"
#include "hier/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace rapsim::hier {

struct HierConfig {
  std::uint32_t sms = 1;
  std::uint32_t width = 32;            // banks / threads per warp, per SM
  std::uint32_t shared_latency = 1;    // banked-pipeline latency (DMM l)
  std::string scheduler = "roundrobin";
  PathParams path = PathParams::zero();

  void validate() const;
};

/// Per-SM outcome of one hierarchy run.
struct SmStats {
  std::uint32_t sm = 0;
  dmm::RunStats run;                 // same shape as a single-Dmm run
  std::uint64_t idle_slots = 0;      // pipeline idle (waiting on drains)
  std::uint64_t warp_stall_slots = 0;  // ready-but-undispatched queueing
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;         // this SM's fills answered by L2
  std::uint64_t dram_fills = 0;      // this SM's fills that went to DRAM
  std::uint64_t mshr_stall_cycles = 0;
  std::uint64_t mem_wait_cycles = 0;  // extra completion latency charged
  double est_ns = 0.0;                // gpu::SmTimingParams estimate
  std::vector<std::uint64_t> warp_dispatches;  // per-warp dispatch counts
};

/// Whole-hierarchy outcome.
struct HierResult {
  std::uint64_t cycles = 0;         // max per-SM completion time
  std::uint64_t dispatches = 0;     // summed over SMs
  std::uint64_t total_stages = 0;   // summed over SMs
  std::uint32_t max_congestion = 0;
  double avg_congestion = 0.0;      // dispatch-weighted mean over SMs
  std::uint64_t l2_hits = 0;        // shared-path totals
  std::uint64_t l2_misses = 0;
  std::uint64_t l2_queue_cycles = 0;  // fills waiting on busy L2/DRAM ports
  double est_ns = 0.0;                // max per-SM estimate (SMs overlap)
  std::vector<SmStats> sms;
};

/// The simulator. Owns one Dmm per SM over a shared AddressMap; run()
/// builds the event cores, memory paths and scheduler instances fresh
/// each call, so a HierSim can be reused across kernels and schemes.
class HierSim {
 public:
  /// The map must outlive the simulator; map.width() must equal
  /// config.width (same contract as Dmm).
  HierSim(HierConfig config, const core::AddressMap& map);

  [[nodiscard]] const HierConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t num_sms() const noexcept {
    return static_cast<std::uint32_t>(machines_.size());
  }

  /// Execute `kernel` on every SM. `scheme` selects the address-overhead
  /// term of the ns estimate (the bank mapping itself is fixed by the
  /// AddressMap given at construction).
  HierResult run(const dmm::Kernel& kernel, core::Scheme scheme,
                 const gpu::SmTimingParams& timing =
                     gpu::SmTimingParams::titan_calibrated());

 private:
  HierConfig config_;
  const core::AddressMap* map_;
  std::vector<std::unique_ptr<dmm::Dmm>> machines_;
};

/// Register a run's results as hier.* metrics:
///   counters  hier.cycles, hier.dispatches, hier.total_stages,
///             hier.l2_hits, hier.l2_misses, hier.l2_queue_cycles;
///             per-SM (labels + sm=<i>) hier.sm_cycles,
///             hier.sm_dispatches, hier.l1_hits, hier.l1_misses,
///             hier.sm_l2_hits, hier.dram_fills, hier.mshr_stall_cycles,
///             hier.mem_wait_cycles, hier.idle_slots,
///             hier.warp_stall_slots
///   gauges    hier.avg_congestion, hier.est_ns
///   distribution  hier.warp_dispatches (per-SM, dispatch counts over
///             warps — its spread is the scheduler-fairness signal)
void flush_metrics(const HierResult& result,
                   telemetry::MetricsRegistry& registry,
                   const telemetry::Labels& labels);

}  // namespace rapsim::hier
