// Address-mapping interface.
//
// A mapping ("implementation" in the paper's wording: RAW, RAS, RAP, ...)
// is a bijection from logical addresses 0..size-1 to physical addresses
// 0..size-1 of a banked memory of width w; the physical address determines
// the bank (addr mod w). Everything downstream — the congestion simulator,
// the DMM machine, the transpose algorithms — speaks to this interface, so
// a new scheme plugs in by implementing translate().

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace rapsim::core {

/// Which implementation family a mapping belongs to. The GPU timing model
/// uses this to charge the per-access address-computation overhead, and the
/// adversary generators use it to pick the matching structured attack.
enum class Scheme {
  kRaw,          // direct (identity) addressing
  kRas,          // random address shift: independent offset per row
  kRap,          // random address permute-shift: one permutation
  kRap1P,        // 4-D: one permutation, f = p[k]
  kRapR1P,       // 4-D: repeated one permutation, f = p[i]+p[j]+p[k]
  kRap3P,        // 4-D: three permutations, f = p[i]+q[j]+s[k]
  kRapW2P,       // 4-D: w^2 permutations, f = sigma_{i*w+j}[k]
  kRap1PW2R,     // 4-D: one permutation + w^2 random offsets
  kPad,          // deterministic +1 padding (the CUDA folklore baseline)
  kSynth,        // synthesized permute-shift tables (analyze/synth.hpp)
};

[[nodiscard]] const char* scheme_name(Scheme scheme) noexcept;

/// Bijective logical->physical address translation over a banked memory.
class AddressMap {
 public:
  AddressMap(std::uint32_t width, std::uint64_t size)
      : width_(width), size_(size) {}
  virtual ~AddressMap() = default;

  AddressMap(const AddressMap&) = delete;
  AddressMap& operator=(const AddressMap&) = delete;

  /// Physical address of a logical address; must be a bijection on
  /// [0, size()).
  [[nodiscard]] virtual std::uint64_t translate(
      std::uint64_t logical) const = 0;

  /// Batched translate: physical[k] = translate(logical[k]) for every k;
  /// `physical` must be at least as long as `logical`. Maps override it to
  /// translate a warp with one virtual call instead of one per lane.
  virtual void translate_warp(std::span<const std::uint64_t> logical,
                              std::span<std::uint64_t> physical) const;

  /// Bank holding the logical address (physical address mod width).
  [[nodiscard]] std::uint32_t bank_of(std::uint64_t logical) const {
    return static_cast<std::uint32_t>(translate(logical) % width_);
  }

  /// Number of memory banks / threads per warp (the paper's w).
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }

  /// Number of addressable words.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  [[nodiscard]] virtual Scheme scheme() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// How many random words (the paper's "used random numbers") the scheme
  /// consumes; the RAW implementation uses none.
  [[nodiscard]] virtual std::uint64_t random_words() const noexcept = 0;

 private:
  std::uint32_t width_;
  std::uint64_t size_;
};

}  // namespace rapsim::core
