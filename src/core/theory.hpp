// Analytical companions to Theorem 2 and Lemma 4.
//
// The paper bounds the expected congestion of any warp access under RAP by
// O(log w / log log w), via:
//   * Lemma 4:   a half-warp's load on one fixed bank exceeds
//                3 ln w / ln ln w with probability at most 1/w^2
//                (Chernoff bound with mu <= 1, delta+1 = 3 ln w / ln ln w);
//   * union bound over w banks: P[half-warp congestion > T] <= 1/w;
//   * E[C_half] <= T + (1/w) * (w/2)  and a warp is at most the sum of its
//     two half-warps.
//
// This file evaluates those quantities so tests and benches can check the
// measured congestion against the proof's actual envelope rather than an
// eyeballed constant. It also provides the balls-in-bins expected maximum
// load (the distribution governing random access and RAS stride access in
// Table II) both by Monte Carlo and by the exact O(n * m)-state dynamic
// program for small sizes.

#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace rapsim::core {

/// Chernoff upper tail for a sum of independent Poisson trials with mean
/// mu: P[X >= (1+delta) mu] <= (e^delta / (1+delta)^(1+delta))^mu.
[[nodiscard]] double chernoff_upper_tail(double mu, double delta);

/// Lemma 4's threshold T(w) = 3 ln w / ln ln w (the proof's exceedance
/// point for a half-warp on one bank). Defined for w >= 3; monotone in w.
[[nodiscard]] double lemma4_threshold(std::uint32_t width);

/// Lemma 4's tail guarantee: P[half-warp load on a fixed bank >= T(w)]
/// <= 1/w^2, evaluated from the Chernoff bound with mu = 1. Returns the
/// Chernoff value (which the lemma proves is <= 1/w^2 for large w).
[[nodiscard]] double lemma4_tail_bound(std::uint32_t width);

/// Theorem 2's expectation envelope for a full warp:
/// E[C] <= 2 * (T(w) + 1/2) = 6 ln w / ln ln w + 1 — two half-warps, each
/// with E <= T(w) + (1/w)(w/2).
[[nodiscard]] double theorem2_expectation_bound(std::uint32_t width);

/// Expectation envelope for at most `width` balls thrown i.i.d. uniformly
/// into `width` bins (the RAS stride case: distinct rows draw independent
/// offsets): per-bin mean <= 1, so Lemma 4's Chernoff tail gives
/// P[bin >= T(w)] <= 1/w^2, the union bound over w bins gives 1/w, and
/// E[max] <= T(w) + (1/w) * w = 3 ln w / ln ln w + 1. Tighter than the
/// Theorem 2 envelope (one half-warp argument instead of two); the static
/// analyzer's `ras-balls-in-bins` certificates cite this bound.
[[nodiscard]] double balls_in_bins_expectation_bound(std::uint32_t width);

/// Expected maximum bank load when `balls` unique requests land uniformly
/// and independently in `bins` banks (Monte Carlo over `trials` draws).
/// This is the exact law of RAS stride and RAS diagonal access in Table
/// II, where every row draws its own offset. It overstates random access:
/// CRCW merging of duplicate addresses lowers the load. It understates
/// RAP diagonal access: lanes land in banks (i + p(i)) mod w for one
/// random permutation p, which is not balls-in-bins.
[[nodiscard]] double expected_max_load_mc(std::uint32_t balls,
                                          std::uint32_t bins,
                                          std::uint32_t trials,
                                          std::uint64_t seed);

/// Exact expected maximum load for small cases (balls, bins <= 16) by
/// enumerating the multinomial distribution over bin loads. Used to
/// validate the Monte Carlo estimator in tests.
[[nodiscard]] double expected_max_load_exact(std::uint32_t balls,
                                             std::uint32_t bins);

/// Gonnet's asymptotic for the expected maximum load of n balls in n
/// bins: Gamma^{-1}(n) - 3/2 ~ ln n / ln ln n * (1 + o(1)) (Gonnet 1981).
/// A closed-form companion to the Monte-Carlo estimate — accurate to a
/// few percent already at n = 16; used by the theory bench to show the
/// Table II Random row follows the known law.
[[nodiscard]] double gonnet_expected_max_load(std::uint32_t n);

}  // namespace rapsim::core
