// The one monotonic clock every timing in the repository reads.
//
// Header-only, so every layer (telemetry's SpanTracer, the serve
// engine, the benches) shares it without a link dependency, and no
// measurement ever uses a wall clock that NTP or a suspend/resume can
// move backwards.

#pragma once

#include <chrono>
#include <cstdint>

namespace rapsim::util {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// Monotonic timestamp; the only clock timing code should read.
[[nodiscard]] inline TimePoint now() noexcept { return Clock::now(); }

/// Nanoseconds from `start` to `end` (0 when end precedes start, which
/// a steady clock never produces but saturating beats wrapping).
[[nodiscard]] inline std::uint64_t elapsed_ns(TimePoint start,
                                              TimePoint end) noexcept {
  if (end <= start) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

/// Nanoseconds from `start` to now().
[[nodiscard]] inline std::uint64_t elapsed_ns(TimePoint start) noexcept {
  return elapsed_ns(start, now());
}

}  // namespace rapsim::util
