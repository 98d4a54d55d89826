// Monte-Carlo congestion estimation — the engine behind Tables I, II, IV.
//
// Each trial draws a fresh mapping (fresh random permutation / offsets for
// the randomized schemes) and one warp's worth of addresses for the
// requested pattern, then records the congestion. Trials are split into
// fixed chunks with independent RNG streams, so results are deterministic
// in (seed, trials) and independent of the worker-thread count. A worker
// redraws one map in place per trial and reuses its address buffer and
// bank tally, so its allocations do not grow with the trial count.

#pragma once

#include <cstdint>

#include "access/pattern2d.hpp"
#include "access/pattern4d.hpp"
#include "core/mapping.hpp"
#include "util/stats.hpp"

namespace rapsim::access {

struct CongestionEstimate {
  double mean = 0.0;       // expected congestion
  double ci95 = 0.0;       // 95% confidence half-width
  std::uint32_t min = 0;   // smallest observed
  std::uint32_t max = 0;   // largest observed
  std::uint64_t trials = 0;
};

/// Expected per-warp congestion of `pattern` on a w x w matrix under
/// `scheme` (Table II cell). Deterministic in (seed, trials).
[[nodiscard]] CongestionEstimate estimate_congestion_2d(
    core::Scheme scheme, Pattern2d pattern, std::uint32_t width,
    std::uint64_t trials, std::uint64_t seed);

/// Expected per-warp congestion of `pattern` on a w^4 4-D array under
/// `scheme` (Table IV cell).
[[nodiscard]] CongestionEstimate estimate_congestion_4d(
    core::Scheme scheme, Pattern4d pattern, std::uint32_t width,
    std::uint64_t trials, std::uint64_t seed);

/// Full congestion distribution (exact integer histogram) of `pattern` on
/// a w x w matrix under `scheme`. Used to check the Lemma 4 / Theorem 2
/// tail probabilities, not just the mean. Single-threaded (the Tally is
/// not mergeable across chunks deterministically at the same cost), so
/// keep trials moderate.
[[nodiscard]] util::Tally congestion_distribution_2d(core::Scheme scheme,
                                                     Pattern2d pattern,
                                                     std::uint32_t width,
                                                     std::uint64_t trials,
                                                     std::uint64_t seed);

/// Everything the JSON exporter reports for one Table II cell in a single
/// deterministic sweep: moment statistics, the exact congestion histogram
/// (for p50/p95/p99), and per-bank unique-request totals summed over all
/// trials. Same sampling as congestion_distribution_2d (single-threaded,
/// identical seeding), so `distribution` matches it sample-for-sample.
struct CongestionProfile {
  CongestionEstimate estimate;
  util::Tally distribution;
  std::vector<std::uint64_t> bank_requests;  // one total per bank
};

[[nodiscard]] CongestionProfile profile_congestion_2d(core::Scheme scheme,
                                                      Pattern2d pattern,
                                                      std::uint32_t width,
                                                      std::uint64_t trials,
                                                      std::uint64_t seed);

}  // namespace rapsim::access
