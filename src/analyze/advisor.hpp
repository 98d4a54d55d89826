// Layout advisor: given a recorded set of warp accesses, score every
// candidate scheme and recommend one.
//
// This is the downstream-user entry point the paper's conclusion gestures
// at ("it is not necessary for CUDA developers to avoid bank conflicts if
// they use the RAP"): capture the logical addresses your kernel's warps
// touch (profiled or hand-written), hand them to evaluate_schemes(), and
// get per-scheme expected congestion plus a recommendation that weighs
// the randomized schemes' average case against the deterministic schemes'
// exact behaviour on YOUR trace.
//
// Every score also carries a static CongestionCertificate from the
// analyzer (analyze/certificate.hpp): when the trace is affine the
// rationale cites the proof rule that PROVES the congestion (gcd law,
// permutation distinctness, Theorem 2 envelope) instead of only the
// sampled means.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/certificate.hpp"
#include "analyze/kernelir.hpp"
#include "core/mapping.hpp"

namespace rapsim::analyze {

/// One warp's worth of logical addresses (up to `width` entries).
using WarpTrace = std::vector<std::uint64_t>;

struct SchemeScore {
  core::Scheme scheme = core::Scheme::kRaw;
  double mean_congestion = 0.0;  // over warps (and draws, if randomized)
  double max_congestion = 0.0;   // worst warp (averaged over draws)
  std::uint64_t random_words = 0;
};

struct Advice {
  std::vector<SchemeScore> scores;  // RAW, PAD, RAS, RAP — in that order
  /// Static certificates aligned with `scores`: the worst warp's proven
  /// congestion (exact) or per-warp expected-congestion envelope.
  std::vector<CongestionCertificate> certificates;
  core::Scheme recommended = core::Scheme::kRaw;
  std::string rationale;
};

/// Score the 2-D schemes on a trace over a `rows` x `width` logical
/// array. Deterministic schemes (RAW, PAD) are evaluated exactly;
/// randomized ones (RAS, RAP) are averaged over `draws` mapping draws
/// seeded from `seed`.
[[nodiscard]] Advice evaluate_schemes(const std::vector<WarpTrace>& traces,
                                      std::uint32_t width, std::uint64_t rows,
                                      std::uint32_t draws = 32,
                                      std::uint64_t seed = 1);

/// Advise on a kernel described in the loop-nest IR. The Monte Carlo
/// scores run on representative warp traces materialized from the IR (one
/// per residue class, analyze/passes.hpp), but the certificates come from
/// the whole-kernel symbolic closure — they cover EVERY binding of the
/// loop variables, not just the materialized sample, so the rationale's
/// proof claims are strictly stronger than in evaluate_schemes.
[[nodiscard]] Advice evaluate_kernel(const KernelDesc& kernel,
                                     std::uint32_t draws = 32,
                                     std::uint64_t seed = 1);

}  // namespace rapsim::analyze
