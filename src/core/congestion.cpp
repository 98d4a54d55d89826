#include "core/congestion.hpp"

#include <algorithm>
#include <bit>

namespace rapsim::core {

void BankTally::begin(std::uint32_t width, std::size_t lanes) {
  width_ = width;
  pow2_ = std::has_single_bit(width);
  lanes_ = lanes;
  // At most a quarter full, so most probes end at their first slot.
  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(4 * lanes, 2));
  slot_mask_ = capacity - 1;
  slot_shift_ = 64u - static_cast<unsigned>(std::countr_zero(capacity));
  // A grown table keeps its old stamps, which never equal a later
  // generation; new slots start at stamp 0.
  if (slots_.size() < capacity) slots_.resize(capacity);
  if (unique_.size() < lanes) unique_.resize(lanes);
  counts_.assign(width, 0);
  unique_count_ = 0;
  congestion_ = 0;
  if (++generation_ == 0) {
    // 2^32 warps later the stamps wrap: forget them all once.
    for (Slot& slot : slots_) slot.stamp = 0;
    generation_ = 1;
  }
}

namespace {

CongestionResult result_of(const BankTally& tally, std::uint32_t width) {
  CongestionResult result;
  result.congestion = tally.congestion();
  result.unique_requests = tally.unique_requests();
  result.per_bank.resize(width);
  for (std::uint32_t b = 0; b < width; ++b) {
    result.per_bank[b] = tally.bank_count(b);
  }
  return result;
}

/// The calling thread's scratch for the tally-less entry points.
BankTally& thread_tally() {
  thread_local BankTally tally;
  return tally;
}

}  // namespace

CongestionResult congestion_of_physical(
    std::span<const std::uint64_t> physical, std::uint32_t width) {
  BankTally& tally = thread_tally();
  tally.begin(width, physical.size());
  for (std::size_t k = 0; k < physical.size(); ++k) {
    tally.add(physical[k], static_cast<std::uint32_t>(k));
  }
  return result_of(tally, width);
}

void tally_logical(std::span<const std::uint64_t> logical,
                   const AddressMap& map, BankTally& tally) {
  tally.begin(map.width(), logical.size());
  for (std::size_t k = 0; k < logical.size(); ++k) {
    tally.add(map.translate(logical[k]), static_cast<std::uint32_t>(k));
  }
}

CongestionResult congestion_of_logical(std::span<const std::uint64_t> logical,
                                       const AddressMap& map) {
  BankTally& tally = thread_tally();
  tally_logical(logical, map, tally);
  return result_of(tally, map.width());
}

std::uint32_t congestion_value(std::span<const std::uint64_t> logical,
                               const AddressMap& map) {
  BankTally& tally = thread_tally();
  tally_logical(logical, map, tally);
  return tally.congestion();
}

}  // namespace rapsim::core
