// Dynamic race checking of kernel IR (the differential half of the
// static race verifier, DESIGN.md §14).
//
// analyze::analyze_races() decides cross-warp races symbolically; this
// module pins those verdicts to the executable machine:
//
//   lower_kernel_desc()   — materialize a KernelDesc into a MULTI-WARP
//                           dmm::Kernel: every warp value of a site's
//                           warp variable runs concurrently in one
//                           instruction, non-warp bindings enumerate as
//                           separate instructions, and the IR's barrier
//                           positions lower to kBarrier instructions.
//                           (trace_from_kernel in replay.hpp flattens
//                           everything onto warp 0 — right for
//                           congestion, useless for races.)
//   run_race_check()      — execute the lowered kernel under the
//                           cross-warp ShmemSanitizer and report the
//                           dynamic race counts. A RaceFreedomCertificate
//                           kernel must come back race-clean.
//   replay_race_witness() — drive ONE static finding's concrete witness
//                           (two bindings, one address) through a
//                           two-warp micro-kernel and confirm the
//                           sanitizer fires the same race kind. The
//                           micro-kernel puts the program-order-first
//                           access in warp 0: the DMM's round-robin
//                           scheduler starts at warp 0, so the dynamic
//                           order matches program order and RAW/WAW/WAR
//                           classification agrees by construction.
//
// tests/race_differential_test.cpp sweeps the full builtin catalog with
// these three entry points.

#pragma once

#include <cstdint>
#include <vector>

#include "analyze/kernelir.hpp"
#include "analyze/race.hpp"
#include "core/mapping.hpp"
#include "dmm/kernel.hpp"
#include "dmm/sanitizer.hpp"

namespace rapsim::replay {

struct LoweredKernel {
  dmm::Kernel kernel;
  /// True when the instruction cap cut enumeration short. Truncation is
  /// sound for the clean direction (no false races appear) but means a
  /// static finding outside the emitted prefix may go unreproduced —
  /// use replay_race_witness() for that direction.
  bool truncated = false;
};

/// Lower `kernel` into an executable multi-warp dmm::Kernel (labels carry
/// the site names so sanitizer findings cross-reference lint findings).
/// Emits at most `max_instructions` instructions. Throws
/// std::invalid_argument on an invalid kernel.
[[nodiscard]] LoweredKernel lower_kernel_desc(
    const analyze::KernelDesc& kernel,
    std::uint64_t max_instructions = 1u << 16);

struct RaceCheckOptions {
  core::Scheme scheme = core::Scheme::kRaw;
  std::uint64_t seed = 0;
  std::uint64_t max_instructions = 1u << 16;
};

struct RaceCheckReport {
  bool truncated = false;
  std::uint64_t raw_races = 0;
  std::uint64_t waw_races = 0;
  std::uint64_t war_races = 0;
  /// Recorded race findings (bounded by the sanitizer's max_findings;
  /// the counters above stay exact).
  std::vector<dmm::Finding> findings;

  [[nodiscard]] std::uint64_t races() const noexcept {
    return raw_races + waw_races + war_races;
  }
  [[nodiscard]] bool race_clean() const noexcept { return races() == 0; }
};

/// Lower and run `kernel` on a DMM with the cross-warp sanitizer
/// installed; memory is pre-initialized so uninitialized-read noise
/// cannot evict race findings.
[[nodiscard]] RaceCheckReport run_race_check(
    const analyze::KernelDesc& kernel, const RaceCheckOptions& options = {});

struct WitnessReplay {
  /// True when the sanitizer reported a race of the finding's kind at
  /// the finding's witness address.
  bool triggered = false;
  /// All sanitizer findings of the micro-run (diagnostic).
  std::vector<dmm::Finding> findings;
};

/// Execute `finding`'s two-binding witness as a two-warp micro-kernel
/// (first access in warp 0, second in warp 1, no barrier between) and
/// check that the dynamic sanitizer reproduces the race. Throws
/// std::invalid_argument when the finding's witness addresses disagree
/// (a malformed finding).
[[nodiscard]] WitnessReplay replay_race_witness(
    const analyze::KernelDesc& kernel, const analyze::RaceFinding& finding,
    core::Scheme scheme = core::Scheme::kRaw, std::uint64_t seed = 0);

}  // namespace rapsim::replay
