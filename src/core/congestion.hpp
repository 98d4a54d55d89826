// Memory-access congestion (the paper's central metric).
//
// The congestion of one warp access is the maximum, over banks, of the
// number of *unique* addresses the warp sends to that bank. Duplicate
// addresses merge into one request (the DMM is CRCW with arbitrary write
// resolution), so w threads reading the same cell have congestion 1
// (Figure 2(3)), while w threads reading w distinct cells of one bank have
// congestion w (Figure 2(2)).

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/mapping.hpp"

namespace rapsim::core {

/// The CRCW merge plus per-bank unique-request histogram of one warp
/// access, in O(1) per request and without allocating once its tables have
/// grown to the largest warp seen. Every congestion computation in rapsim
/// (the functions below, Monte-Carlo trials, the DMM warp access) goes
/// through this one tally.
///
/// Contract:
///   * The merge keeps the FIRST writer: add() of an address already seen
///     in this warp returns the lane that added it first, so calling add()
///     in lane order makes the lowest lane the CRCW winner.
///   * unique_addresses() lists the merged addresses in first-seen order.
///   * A tally is scratch for one thread. Reuse one instance across warps:
///     begin() forgets the address set in O(1) by bumping a generation
///     stamp instead of clearing it, and zeroes the width bank counters.
class BankTally {
 public:
  /// Start a warp of at most `lanes` requests over `width` banks.
  void begin(std::uint32_t width, std::size_t lanes);

  /// Merge physical address `phys`, issued by `lane`, into the warp.
  /// Returns the lane that first issued `phys` (`lane` itself when new).
  std::uint32_t add(std::uint64_t phys, std::uint32_t lane) {
    // Open addressing with linear probing; a slot is in use only if it
    // carries the current generation's stamp.
    for (std::size_t s = slot_of(phys);; s = (s + 1) & slot_mask_) {
      Slot& slot = slots_[s];
      if (slot.stamp != generation_) {
        if (unique_count_ == lanes_) {
          throw std::length_error("BankTally: more requests than lanes");
        }
        slot = {phys, generation_, lane};
        unique_[unique_count_++] = phys;
        add_unmerged(phys);
        return lane;
      }
      if (slot.key == phys) return slot.lane;
    }
  }

  /// Count a request that never merges (atomics serialize per request).
  void add_unmerged(std::uint64_t phys) {
    const auto bank = static_cast<std::size_t>(pow2_ ? phys & (width_ - 1)
                                                     : phys % width_);
    congestion_ = std::max(congestion_, ++counts_[bank]);
  }

  /// Max over banks of the requests counted so far this warp.
  [[nodiscard]] std::uint32_t congestion() const noexcept {
    return congestion_;
  }
  [[nodiscard]] std::uint32_t unique_requests() const noexcept {
    return static_cast<std::uint32_t>(unique_count_);
  }
  [[nodiscard]] std::span<const std::uint64_t> unique_addresses()
      const noexcept {
    return {unique_.data(), unique_count_};
  }
  /// Requests counted on `bank` (< width) this warp.
  [[nodiscard]] std::uint32_t bank_count(std::uint32_t bank) const noexcept {
    return counts_[bank];
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t stamp = 0;  // == generation_ when the slot is in use
    std::uint32_t lane = 0;
  };

  [[nodiscard]] std::size_t slot_of(std::uint64_t phys) const noexcept {
    // Fibonacci hashing: the top bits of phys * 2^64/phi spread strided
    // addresses evenly over the table.
    return static_cast<std::size_t>((phys * 0x9e3779b97f4a7c15ull) >>
                                    slot_shift_);
  }

  std::vector<Slot> slots_;  // at most a quarter full
  std::vector<std::uint32_t> counts_;  // per bank, zeroed by begin()
  std::vector<std::uint64_t> unique_;  // first unique_count_ entries are live
  std::size_t unique_count_ = 0;
  std::uint32_t generation_ = 0;
  std::uint32_t width_ = 0;
  bool pow2_ = false;  // width is a power of two: bank = phys & (width - 1)
  std::size_t slot_mask_ = 0;
  unsigned slot_shift_ = 63;
  std::size_t lanes_ = 0;
  std::uint32_t congestion_ = 0;
};

/// Per-bank unique-request counts plus the maximum (the congestion).
struct CongestionResult {
  std::uint32_t congestion = 0;          // max over banks
  std::vector<std::uint32_t> per_bank;   // unique requests per bank
  std::uint32_t unique_requests = 0;     // after CRCW merging
};

/// Congestion of a warp issuing `physical` addresses to a memory of
/// `width` banks. Duplicate addresses are merged first.
[[nodiscard]] CongestionResult congestion_of_physical(
    std::span<const std::uint64_t> physical, std::uint32_t width);

/// Congestion of a warp issuing `logical` addresses through `map`.
[[nodiscard]] CongestionResult congestion_of_logical(
    std::span<const std::uint64_t> logical, const AddressMap& map);

/// Translate `logical` through `map` (lane k issues logical[k]) and tally
/// the warp into `tally` (Monte-Carlo inner loops own one per worker).
void tally_logical(std::span<const std::uint64_t> logical,
                   const AddressMap& map, BankTally& tally);

/// Just the max value, tallied in a scratch owned by the calling thread:
/// no allocation once that thread has seen a warp this large.
[[nodiscard]] std::uint32_t congestion_value(
    std::span<const std::uint64_t> logical, const AddressMap& map);

}  // namespace rapsim::core
