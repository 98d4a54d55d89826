// Shared-memory sanitizer for the DMM machine: the dynamic checker of the
// CRCW warp-access semantics, next to the machine it checks.
//
// An opt-in checker installed on dmm::Dmm via set_sanitizer(). While
// installed, every warp access is screened for the shared-memory bugs the
// simulator would otherwise hide or hard-fault on:
//
//   * out-of-bounds      — a translated physical address beyond the memory
//                          (the machine normally throws on the first one;
//                          with the sanitizer the faulting lane is skipped
//                          and recorded, so one run collects ALL findings)
//   * uninitialized read — a load (or atomic add, which reads the cell)
//                          from a word no kernel op or host store has
//                          written since the sanitizer was attached
//   * write-write race   — two lanes of one warp-instruction storing
//                          DIFFERENT values to one cell. The model's CRCW
//                          arbitrary rule resolves this deterministically
//                          (lowest lane wins), but on real hardware the
//                          surviving value is undefined — exactly the bug
//                          class worth flagging. Equal-value multi-writes
//                          are the benign broadcast idiom and stay silent.
//   * cross-warp races   — RAW / WAW / WAR between DIFFERENT warps inside
//                          one barrier interval (epoch). A per-cell shadow
//                          keeps the last writer and the last readers of
//                          the current epoch; barriers (note_barrier) and
//                          run starts (begin_run) advance the epoch, after
//                          which stale shadow entries can no longer match.
//                          Atomic-atomic pairs are exempt (the machine
//                          serializes them); everything else that touches
//                          one cell from two warps with at least one write
//                          and no intervening barrier is flagged. This is
//                          the dynamic twin of the static happens-before
//                          pass (analyze/race.hpp, DESIGN.md §14).
//
// Findings accumulate (bounded at max_findings; counters stay exact) and
// report through the telemetry registry: flush_into() emits
// sanitizer.out_of_bounds / sanitizer.uninitialized_read /
// sanitizer.write_conflict / sanitizer.raw_race / sanitizer.waw_race /
// sanitizer.war_race counters into a MetricsRegistry, plus one labeled
// sanitizer.race_site counter per recorded race finding so lint and
// sanitizer output cross-reference by access-site NAME.
//
// Attach the sanitizer BEFORE writing the kernel's inputs: the shadow
// write-bitmap starts all-unwritten at attach time, and host-side
// Dmm::store / fill_identity mark cells as initialized (note_host_fill
// marks all of them at once).

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace rapsim::dmm {

enum class FindingKind : std::uint8_t {
  kOutOfBounds,
  kUninitializedRead,
  kWriteConflict,
  kRawRace,
  kWawRace,
  kWarRace,
};

[[nodiscard]] const char* finding_kind_name(FindingKind kind) noexcept;

/// True for the cross-warp race kinds (RAW / WAW / WAR).
[[nodiscard]] bool is_race_kind(FindingKind kind) noexcept;

struct Finding {
  FindingKind kind = FindingKind::kOutOfBounds;
  std::uint32_t warp = 0;
  std::uint32_t thread = 0;       // faulting lane (global thread id)
  std::uint32_t other_thread = 0; // conflicting lane (races: other side)
  std::uint32_t instruction = 0;  // index into Kernel::instructions
  std::uint64_t logical = 0;
  std::uint64_t physical = 0;
  // Races: the other side of the pair (the earlier access this epoch).
  std::uint32_t other_warp = 0;
  std::uint32_t other_instruction = 0;
  /// Access-site / instruction names (from Kernel::labels via
  /// begin_run); empty when the kernel carries no labels. Lets the
  /// finding be cross-referenced against lint's static findings.
  std::string site;
  std::string other_site;

  /// One-line human-readable rendering.
  [[nodiscard]] std::string to_string() const;
};

class ShmemSanitizer {
 public:
  /// Keep at most this many Finding records (counters stay exact beyond
  /// it). Bounded so a pathological kernel cannot eat the host's memory.
  std::size_t max_findings = 256;

  // --- Machine-facing hooks (called by dmm::Dmm; not user API). ---

  /// Size the shadow bitmap for a memory of `size` words over `width`
  /// banks and forget prior findings. Dmm::set_sanitizer calls this.
  void attach(std::uint32_t width, std::uint64_t size);

  /// Kernel launch: advance the race epoch (pre-run state never races
  /// with the run) and capture the instruction labels for finding
  /// reports. Pass an empty span when the kernel has no labels.
  void begin_run(std::span<const std::string> instruction_labels);

  /// Block-wide barrier released: advance the race epoch. Accesses on
  /// opposite sides of a barrier are ordered and can no longer race.
  void note_barrier() noexcept;

  /// Host-side store / fill marks a cell initialized.
  void note_host_write(std::uint64_t physical) noexcept;
  /// Host-side fill of the whole memory: every cell initialized, in one
  /// call. For callers whose data does not matter (trace replay).
  void note_host_fill() noexcept;

  void record_out_of_bounds(std::uint32_t warp, std::uint32_t thread,
                            std::uint32_t instruction, std::uint64_t logical,
                            std::uint64_t physical);
  /// Checks the shadow bitmap (uninitialized read) and the epoch shadow
  /// (RAW against a different-warp writer of this epoch), then records
  /// the reader. `atomic` marks the read half of an atomic op.
  void check_read(std::uint32_t warp, std::uint32_t thread,
                  std::uint32_t instruction, std::uint64_t logical,
                  std::uint64_t physical, bool atomic = false);
  /// Checks the epoch shadow (WAW against the writer, WAR against the
  /// readers of this epoch, cross-warp only), then records the writer
  /// and marks the cell written. `atomic` marks the write half of an
  /// atomic op.
  void note_write(std::uint32_t warp, std::uint32_t thread,
                  std::uint32_t instruction, std::uint64_t logical,
                  std::uint64_t physical, bool atomic = false);
  /// `winner` already stored `winner_value`; lane `thread` wanted `value`.
  void check_write_conflict(std::uint32_t warp, std::uint32_t winner,
                            std::uint32_t thread, std::uint32_t instruction,
                            std::uint64_t logical, std::uint64_t physical,
                            std::uint64_t winner_value, std::uint64_t value);

  // --- User-facing queries. ---

  [[nodiscard]] const std::vector<Finding>& findings() const noexcept {
    return findings_;
  }
  [[nodiscard]] std::uint64_t count(FindingKind kind) const noexcept {
    return counts_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept;
  /// Cross-warp races only (RAW + WAW + WAR).
  [[nodiscard]] std::uint64_t race_total() const noexcept;
  [[nodiscard]] bool clean() const noexcept { return total() == 0; }

  /// Forget findings but keep the shadow write-bitmap (for checking a
  /// follow-up kernel on the same memory contents).
  void clear_findings() noexcept;

  /// Multi-line report, one finding per line, truncation noted.
  [[nodiscard]] std::string report() const;

  /// Counters into the telemetry registry:
  ///   sanitizer.out_of_bounds, sanitizer.uninitialized_read,
  ///   sanitizer.write_conflict, sanitizer.raw_race, sanitizer.waw_race,
  ///   sanitizer.war_race, sanitizer.races, sanitizer.findings (total),
  /// plus sanitizer.race_site{site=...,kind=...} per recorded race.
  void flush_into(telemetry::MetricsRegistry& registry,
                  const telemetry::Labels& labels) const;

 private:
  /// One prior access of the current epoch (epoch tags make stale
  /// entries self-invalidating — nothing is scrubbed at barriers).
  struct ShadowAccess {
    std::uint64_t epoch = 0;  // 0 = never
    std::uint32_t warp = 0;
    std::uint32_t lane = 0;
    std::uint32_t instruction = 0;
    bool atomic = false;
  };
  /// Last writer plus up to two distinct-warp readers per cell. Two
  /// readers suffice: a later writer mismatches at least one of two
  /// distinct warps, so no WAR pair is missed (same argument as the
  /// static enumeration rule).
  struct CellShadow {
    ShadowAccess writer;
    std::array<ShadowAccess, 2> readers;
  };

  void record(Finding finding);
  [[nodiscard]] const std::string* label_of(std::uint32_t instruction) const;

  std::uint32_t width_ = 0;
  std::uint64_t size_ = 0;
  std::vector<bool> written_;
  std::vector<CellShadow> shadow_;
  std::uint64_t epoch_ = 1;
  std::vector<std::string> labels_;
  std::vector<Finding> findings_;
  std::array<std::uint64_t, 6> counts_{};
};

}  // namespace rapsim::dmm
