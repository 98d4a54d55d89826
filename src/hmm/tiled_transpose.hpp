// Tiled transpose of a large N x N matrix through shared-memory tiles —
// the workload the paper's Section I motivates ("many algorithms ...
// repeat [work on] 32x32 matrices in the shared memory").
//
// Three strategies, all using p = w^2 threads per tile step:
//
//   * NAIVE      — each warp reads a row segment of A (coalesced) and
//                  writes it as a column segment of B: w distinct global
//                  rows per warp write — fully uncoalesced, the global
//                  memory eats w slots per warp.
//   * TILED      — the classic CUDA pattern: stage a w x w tile through
//                  shared memory. Global reads AND writes are coalesced;
//                  the transpose happens in shared memory, where the
//                  column-order access has congestion w under RAW (the
//                  classic shared-memory bank conflict), ~3.5 under RAS,
//                  and exactly 1 under RAP.
//   * TILED_DIAG — tiled plus the hand-tuned diagonal shared access
//                  (DRDW-style), the expert fix RAP makes unnecessary.
//
// The report separates global and shared time so the crossover structure
// is visible: naive loses on global coalescing; tiled+RAW loses on shared
// banks; tiled+RAP matches tiled+diagonal without any hand-tuning.

#pragma once

#include <cstdint>

#include "analyze/kernelir.hpp"
#include "core/mapping.hpp"
#include "hmm/hmm.hpp"

namespace rapsim::hmm {

enum class TransposeStrategy { kNaive, kTiled, kTiledDiagonal };

[[nodiscard]] const char* strategy_name(TransposeStrategy strategy) noexcept;

struct TiledTransposeConfig {
  std::uint32_t width = 32;           // w: warp size, tile edge
  std::uint32_t tiles = 4;            // N = tiles * width
  std::uint32_t shared_latency = 1;
  std::uint32_t global_latency = 32;
  // Cost of one global time unit relative to one shared time unit. An
  // extra uncoalesced global transaction is a full DRAM burst; an extra
  // shared-memory replay is one SM cycle — about an order of magnitude
  // apart on real hardware.
  std::uint32_t global_cost_weight = 8;

  [[nodiscard]] std::uint64_t n() const noexcept {
    return static_cast<std::uint64_t>(tiles) * width;
  }
};

struct TiledTransposeReport {
  bool correct = false;
  HmmStats stats;
  std::uint32_t global_cost_weight = 8;

  /// Weighted cost: global time units are global_cost_weight times more
  /// expensive than shared ones (see TiledTransposeConfig).
  [[nodiscard]] std::uint64_t total_cost() const noexcept {
    return stats.global_time * global_cost_weight + stats.shared_time;
  }
};

/// Loop-nest IR of the SHARED-memory side of one tile step (the part the
/// banked-memory passes can certify; the global side is a coalescing
/// question, not a bank question). Only kTiled and kTiledDiagonal touch
/// shared memory; kNaive throws std::invalid_argument.
[[nodiscard]] analyze::KernelDesc describe_tiled_transpose_shared(
    TransposeStrategy strategy, std::uint32_t width);

/// Transpose an N x N matrix (A at global [0, N^2), B at [N^2, 2 N^2))
/// with `strategy`; `scheme` selects the shared-memory layout (ignored by
/// kNaive, which never touches shared memory). The mapping's random draw
/// comes from `seed`.
[[nodiscard]] TiledTransposeReport run_tiled_transpose(
    TransposeStrategy strategy, core::Scheme scheme,
    const TiledTransposeConfig& config, std::uint64_t seed);

}  // namespace rapsim::hmm
