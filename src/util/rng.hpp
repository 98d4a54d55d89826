// Deterministic pseudo-random number generators for simulation.
//
// All experiments in rapsim must be reproducible from a single 64-bit seed,
// so we ship our own small, well-understood generators instead of relying on
// the implementation-defined std::default_random_engine. Three generators
// are provided:
//
//   * SplitMix64   — seed expander / fast scalar generator (Steele et al.).
//   * Pcg32        — PCG-XSH-RR 64/32 (O'Neill), the workhorse generator.
//   * Xoshiro256ss — xoshiro256**, used where long non-overlapping streams
//                    are split across worker threads (jump() support).
//
// All generators satisfy std::uniform_random_bit_generator, so they compose
// with <random> distributions, but the helpers below (uniform integers in a
// range, bounded without modulo bias) are what the library itself uses.

#pragma once

#include <cstdint>
#include <limits>

namespace rapsim::util {

/// SplitMix64: a tiny 64-bit generator whose main role is expanding a user
/// seed into the larger states of Pcg32 / Xoshiro256ss. Passes BigCrush.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// PCG-XSH-RR 64/32 (Melissa O'Neill, pcg-random.org). 64-bit state,
/// 32-bit output, period 2^64 per stream; the stream (increment) is
/// selectable so independent simulation components can derive
/// non-correlated generators from one master seed.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  explicit constexpr Pcg32(std::uint64_t seed, std::uint64_t stream = 0) noexcept
      : state_(0), inc_((stream << 1u) | 1u) {
    operator()();
    state_ += seed;
    operator()();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ull + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform integer in [0, bound) without modulo bias: a draw below the
  /// rejection threshold 2^32 mod bound is redrawn, then reduced mod bound.
  /// The two shortcuts return exactly what the plain loop would: a
  /// power-of-two bound has threshold 0, and the threshold is always below
  /// `bound`, so a draw >= bound never needs it.
  constexpr std::uint32_t bounded(std::uint32_t bound) noexcept {
    if (bound <= 1) return 0;
    std::uint32_t r = operator()();
    if ((bound & (bound - 1)) == 0) return r & (bound - 1);
    if (r >= bound) return r % bound;
    const std::uint32_t threshold = (0u - bound) % bound;
    while (r < threshold) r = operator()();
    return r % bound;
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// xoshiro256** 1.0 (Blackman & Vigna). 256-bit state, 64-bit output,
/// period 2^256 - 1, with jump() advancing 2^128 steps for splitting the
/// sequence across threads.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256ss(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Advance 2^128 steps; gives 2^128 non-overlapping subsequences.
  constexpr void jump() noexcept {
    constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaull,
                                       0xd5a61266f0c9392cull,
                                       0xa9582618e03fc9aaull,
                                       0x39abdc4529b1661cull};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (const std::uint64_t word : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (word & (1ull << b)) {
          s0 ^= s_[0];
          s1 ^= s_[1];
          s2 ^= s_[2];
          s3 ^= s_[3];
        }
        operator()();
      }
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Uniform double in [0, 1) from any 64-bit generator (53-bit mantissa).
template <typename Gen>
constexpr double uniform01(Gen& gen) noexcept {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

}  // namespace rapsim::util
