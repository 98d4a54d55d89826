// Static race & barrier-safety verifier (static analysis, pillar 3;
// DESIGN.md §14).
//
// The congestion passes ask "how slow is the worst warp?"; this pass asks
// "is the kernel CORRECT under concurrent warp execution?". The model is
// a symbolic happens-before relation over the kernel IR's program order:
//
//   * Barriers split the ordered site list into PHASES (barrier
//     intervals). A barrier orders everything before it against
//     everything after it, across all warps, so only same-phase site
//     pairs can race.
//   * Within a warp, program order (and sequential loop iteration) orders
//     all accesses — a warp never races with itself.
//   * Across warps nothing is ordered inside a phase. Two instances race
//     iff they are executed by different warps (AccessSite::warp binds
//     the warp id to a loop variable; independent bindings for the two
//     instances), they touch the SAME address, and at least one writes.
//     Atomic-atomic pairs are exempt (the machine serializes them).
//
// For every same-phase conflicting pair the pass decides cross-warp
// address-set overlap exactly where it can, in a ladder:
//
//   interval-disjoint    the two affine address intervals never meet
//   residue-disjoint     base difference is not divisible by the gcd of
//                        every difference coefficient (the PR 3 residue
//                        argument applied to the pairwise difference)
//   no-zero-sum          exact reachability over the difference values:
//                        a layered subset-sum closure over lane and
//                        binding differences (cross-warp constraint
//                        built into the warp layer) proves 0 unreachable
//   single-warp          both sites execute in one warp
//   enumerated-disjoint  bounded enumeration of both instance streams
//                        (opaque / row-col sites) found no cross-warp
//                        overlap, and the enumeration was complete
//
// A reachable overlap yields a RaceFinding with a concrete TWO-BINDING
// witness (lane + full binding + warp id + address for each side) whose
// kind follows program order: earlier-writes/later-reads = RAW,
// reads-then-writes = WAR, both-write = WAW. When every pair is proven
// disjoint by an exact rule, the pass emits a machine-checkable
// RaceFreedomCertificate carrying the per-pair proofs. Budget caps (huge
// trip counts, opaque streams past the enumeration cap) downgrade the
// analysis to non-exhaustive: findings stay sound (always concretely
// witnessed) but no certificate is claimed — the soundness caveat
// documented in DESIGN.md §14.
//
// The dynamic twin lives in dmm/sanitizer.hpp (cross-warp epoch
// detection on the DMM) and replay/racecheck.hpp lowers a KernelDesc to
// an executable kernel so tests/race_differential_test.cpp can pin every
// static verdict to a full-DMM run.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analyze/kernelir.hpp"

namespace rapsim::analyze {

enum class RaceKind : std::uint8_t { kRaw, kWaw, kWar };

[[nodiscard]] const char* race_kind_name(RaceKind kind) noexcept;

/// One side of a race witness: a concrete instance of an access site.
struct RaceAccess {
  std::size_t site_index = 0;
  std::string site;
  AccessDir dir = AccessDir::kLoad;
  std::uint32_t lane = 0;
  std::uint64_t warp = 0;  // executing warp id (the warp var's value)
  /// Full binding, one (variable, value) pair per kernel var in
  /// declaration order (variables the site ignores bind to 0).
  std::vector<std::pair<std::string, std::uint64_t>> binding;
  std::uint64_t address = 0;
};

struct RaceFinding {
  RaceKind kind = RaceKind::kRaw;
  std::size_t phase = 0;
  RaceAccess first;   // earlier site in program order
  RaceAccess second;
  std::string detail;

  /// One-line human-readable rendering.
  [[nodiscard]] std::string to_string() const;
};

/// The rule that proved one conflicting pair race-free.
struct RacePairProof {
  std::string first_site;
  std::string second_site;
  std::string rule;    // interval-disjoint | residue-disjoint |
                       // no-zero-sum | single-warp | enumerated-disjoint
  std::string detail;
};

/// Machine-checkable claim that the kernel is race-free: every
/// same-phase conflicting pair carries an exact disjointness proof.
struct RaceFreedomCertificate {
  std::string kernel;
  std::uint32_t width = 0;
  std::uint64_t rows = 0;
  std::size_t phases = 1;
  std::uint64_t pairs_checked = 0;
  std::vector<RacePairProof> proofs;  // one per conflicting pair
  std::string claim;

  [[nodiscard]] std::string to_json() const;
};

struct RaceAnalysis {
  std::string kernel;
  std::uint32_t width = 0;
  std::uint64_t rows = 0;
  std::size_t phases = 1;
  std::uint64_t pairs_checked = 0;  // same-phase conflicting pairs
  /// False when a budget cap forced sampling somewhere: findings are
  /// still sound, but absence of findings proves nothing.
  bool exhaustive = true;
  std::vector<RaceFinding> findings;  // at most one per pair
  /// Present iff findings is empty AND the analysis was exhaustive.
  std::optional<RaceFreedomCertificate> certificate;

  /// Certified race-free (not merely "no finding surfaced").
  [[nodiscard]] bool race_free() const noexcept {
    return certificate.has_value();
  }
};

/// Run the happens-before pass. Throws std::invalid_argument on an
/// invalid kernel (same contract as analyze_kernel).
[[nodiscard]] RaceAnalysis analyze_races(const KernelDesc& kernel);

}  // namespace rapsim::analyze
