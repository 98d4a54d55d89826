// Hierarchical Memory Machine: global memory + shared memory.
//
// Real CUDA kernels stage data between a large, slow, coalescing-sensitive
// global memory and the banked shared memory the paper studies; the
// paper's own motivation (Section I) is that algorithms for big inputs
// "repeat offline permutation / multiplication of 32x32 matrices in the
// shared memory". Following the Hierarchical Memory Machine of the
// paper's ref [14], we compose the two machines already in this library:
//
//   * global memory — a UMM (one broadcast address line: a warp access
//     costs one pipeline slot per distinct 32-word row it touches, which
//     is exactly CUDA's coalescing rule) with a large latency, always
//     direct-mapped (bank swizzling is a shared-memory concern);
//   * shared memory — a DMM over any AddressMap (RAW / RAS / RAP).
//
// A kernel alternates copy phases between the two; the Hmm runs each
// phase on the machine that owns the addresses and accumulates both
// clocks. Phases are modeled as non-overlapping (a conservative
// simplification: a real SM overlaps global loads with shared stores;
// the *ordering* between layouts is unaffected because every variant
// pays the same global cost).

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/mapping.hpp"
#include "dmm/machine.hpp"
#include "dmm/umm.hpp"
#include "telemetry/metrics.hpp"

namespace rapsim::hmm {

struct HmmConfig {
  std::uint32_t width = 32;           // warp size / banks / coalesce unit
  std::uint32_t shared_latency = 1;   // DMM pipeline latency
  std::uint32_t global_latency = 32;  // UMM pipeline latency (DRAM-ish)
};

/// One thread's slot in a copy phase.
struct CopyOp {
  std::uint64_t global = 0;  // logical address in global memory
  std::uint64_t shared = 0;  // logical address in shared memory
};
using CopyPhase = std::vector<std::optional<CopyOp>>;  // per thread

/// Accumulated cost of an Hmm run.
struct HmmStats {
  std::uint64_t global_time = 0;   // UMM time units
  std::uint64_t shared_time = 0;   // DMM time units
  std::uint64_t global_slots = 0;  // coalescing metric (rows touched)
  std::uint64_t shared_slots = 0;  // bank-conflict metric (congestion sum)

  /// Register the four accumulators under the given labels as counters
  /// hmm.global_time_units, hmm.shared_time_units, hmm.global_slots and
  /// hmm.shared_slots — the same registry document every other
  /// subsystem's telemetry flows into (results/metrics/ consumers).
  void flush_into(telemetry::MetricsRegistry& registry,
                  const telemetry::Labels& labels) const;
};

/// Global + shared machine pair. `shared_map` governs the shared memory
/// layout; global memory is always direct-mapped.
class Hmm {
 public:
  Hmm(HmmConfig config, const core::AddressMap& shared_map,
      std::uint64_t global_words);

  // Host-side access for setup / verification.
  [[nodiscard]] std::uint64_t global_load(std::uint64_t addr) const;
  void global_store(std::uint64_t addr, std::uint64_t value);
  [[nodiscard]] std::uint64_t shared_load(std::uint64_t addr) const;
  void shared_store(std::uint64_t addr, std::uint64_t value);

  /// Copy global -> shared with `num_threads` threads (one op per thread,
  /// nullopt = inactive). Moves the data and charges the UMM for the
  /// reads and the DMM for the writes.
  void copy_in(const CopyPhase& phase, std::uint32_t num_threads);

  /// Copy shared -> global: DMM reads, UMM writes.
  void copy_out(const CopyPhase& phase, std::uint32_t num_threads);

  /// Copy global -> global without staging through shared memory (the
  /// "naive" pattern); both instructions are charged to the UMM. Here the
  /// CopyOp's `global` field is the source and `shared` the destination
  /// (also a global address).
  void copy_global(const CopyPhase& phase, std::uint32_t num_threads);

  /// Run a compute kernel entirely in shared memory (charged to the DMM).
  void run_shared(const dmm::Kernel& kernel);

  [[nodiscard]] const HmmStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const HmmConfig& config() const noexcept { return config_; }

 private:
  void charge_global(const dmm::RunStats& run);
  void charge_shared(const dmm::RunStats& run);

  HmmConfig config_;
  core::AddressMap global_map_;  // RAW
  dmm::Dmm global_;  // UMM accounting
  dmm::Dmm shared_;  // DMM accounting
  HmmStats stats_;
};

}  // namespace rapsim::hmm
