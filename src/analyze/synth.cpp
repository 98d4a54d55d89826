#include "analyze/synth.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/permutation.hpp"
#include "telemetry/json.hpp"
#include "util/rng.hpp"

namespace rapsim::analyze {

namespace {

// Opaque sites enumerate bindings up to this cap before falling back to
// a deterministic stratified sample (a synth-local, more generous twin
// of passes.hpp's kEnumerationCap — the search amortizes one closure
// over hundreds of candidate evaluations, so it can afford more).
constexpr std::uint64_t kSynthEnumCap = 1u << 16;

// Largest class cap a closure honours: a sweep's key index is sized from
// it, and no closure could hold this many classes anyway.
constexpr std::uint64_t kMaxClassCap = std::uint64_t{1} << 48;

// Most column-uniform groups a kRowCol site's bitmap tracks; past it
// (a row_mod above 2^18) its states are each reduced. A flat site's
// groups never exceed 2 * w^D <= 2^19.
constexpr std::uint64_t kMaxRowColGroups = std::uint64_t{1} << 18;

/// The lane groups of an affine site's classes (header: THE ORACLE):
/// classes whose keys share a group reduce to the same normal forms, so
/// only the first of each group in discovery order is reduced. Every
/// lane shares the key's digits below `low` = w^m. A key whose window
/// value v = (key / low) mod window satisfies v + span < window carries
/// out of no window digit, so every higher digit is shared too and the
/// group is v. Otherwise, with `fallback`, the group is
/// window + key / low, as only digits at or above m vary; failing both,
/// the class is a group of its own.
class LaneGroups {
 public:
  static constexpr std::uint64_t kOwn = ~std::uint64_t{0};

  /// A flat site: the key is the flat value mod w^(digits+1), and `step`
  /// the lane step reduced like it (a negative step enters as its
  /// ascending residue). w^m is the largest power of w dividing `step`,
  /// with m <= digits, and the window the smallest power of w above the
  /// span (step / w^m) * (lanes - 1).
  static LaneGroups flat(std::uint64_t w, std::uint32_t digits,
                         std::uint64_t step, std::uint64_t lanes) {
    LaneGroups groups(w);
    std::uint64_t top = w;  // w^(digits+1-m): the values of key / low
    for (std::uint32_t d = 0; d < digits; ++d) top *= w;
    std::uint32_t m = 0;
    for (; m < digits && step % (groups.low_ * w) == 0; ++m) {
      groups.low_ *= w;
      top /= w;
    }
    groups.span_ = step / groups.low_ * (lanes - 1);
    std::uint64_t window = 1;
    while (window <= groups.span_) window *= w;
    // A window as wide as every digit from m up leaves v = key / low,
    // which groups no coarser than the fallback, and not at all at m = 0.
    if (window < top) groups.window_ = window;
    groups.fallback_ = m > 0;
    groups.size_ = groups.window_ + (groups.fallback_ ? top : 0);
    groups.shift_ = m * groups.shift_;
    return groups;
  }

  /// A kRowCol site: the key is row * w + col with `rows` row values, and
  /// `col_step` the column's lane step mod w. At 0 every lane is in lane
  /// 0's column and the group is the row part.
  static LaneGroups row_col(std::uint64_t w, std::uint64_t rows,
                            std::uint64_t col_step) {
    LaneGroups groups(w);
    groups.low_ = w;
    groups.fallback_ = col_step == 0 && rows <= kMaxRowColGroups;
    groups.size_ = groups.fallback_ ? rows : 0;
    return groups;
  }

  /// Groups the bitmap tracks: every group(key) other than kOwn is below.
  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Shift and mask when w is a power of two, as EntryPacker does.
  [[nodiscard]] std::uint64_t group(std::uint64_t key) const {
    const std::uint64_t high = pow2_ ? key >> shift_ : key / low_;
    if (window_ != 0) {
      const std::uint64_t v = pow2_ ? high & (window_ - 1) : high % window_;
      if (v + span_ < window_) return v;
    }
    return fallback_ ? window_ + high : kOwn;
  }

 private:
  explicit LaneGroups(std::uint64_t w)
      : pow2_(std::has_single_bit(w)),
        shift_(static_cast<std::uint32_t>(std::countr_zero(w))) {}

  bool pow2_;
  std::uint32_t shift_;     // log2(low) once built, when pow2_
  std::uint64_t low_ = 1;   // w^m
  std::uint64_t window_ = 0;  // w^j, or 0: no window
  std::uint64_t span_ = 0;
  bool fallback_ = false;
  std::uint64_t size_ = 0;
};

/// One constraint entry: the (column, key digits) of one memory request.
/// Byte-packed (width <= 64, so every field fits a byte); equal packings
/// collide under EVERY family member.
using PackedEntry = std::uint32_t;

/// Packs addresses into entries: shift and mask when the width is a
/// power of two, division otherwise (the same input-observable choice as
/// AddressMap::translate), decided once per closure, not per address.
class EntryPacker {
 public:
  EntryPacker(std::uint32_t width, std::uint32_t digits)
      : width_(width),
        digits_(digits),
        pow2_(std::has_single_bit(width)),
        shift_(static_cast<std::uint32_t>(std::countr_zero(width))) {}

  [[nodiscard]] PackedEntry operator()(std::uint64_t addr) const {
    if (pow2_) {
      const std::uint64_t mask = width_ - 1;
      auto packed = static_cast<PackedEntry>(addr & mask);
      std::uint64_t row = addr >> shift_;
      for (std::uint32_t d = 0; d < digits_; ++d) {
        packed |= static_cast<PackedEntry>(row & mask) << (8u * (d + 1));
        row >>= shift_;
      }
      return packed;
    }
    const std::uint64_t w = width_;
    auto packed = static_cast<PackedEntry>(addr % w);
    std::uint64_t row = addr / w;
    for (std::uint32_t d = 0; d < digits_; ++d) {
      packed |= static_cast<PackedEntry>(row % w) << (8u * (d + 1));
      row /= w;
    }
    return packed;
  }

 private:
  std::uint32_t width_;
  std::uint32_t digits_;
  bool pow2_;
  std::uint32_t shift_;
};

std::uint32_t entry_col(PackedEntry e) { return e & 0xffu; }
std::uint32_t entry_key(PackedEntry e, std::uint32_t d) {
  return (e >> (8u * (d + 1))) & 0xffu;
}

/// One stored (non-trivial, deduplicated) congestion class: its entries,
/// one per request with duplicates kept, are Closure::entries[begin, end)
/// and its witness binding is row c of Closure::bindings.
struct StoredClass {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint32_t first_site = 0;  // witness site
  std::uint32_t last_site = 0;   // the latest site that reached the class
};

/// Classes whose congestion is the same under every family member
/// (all key tuples equal => the bank is an injective function of the
/// column) collapse to a per-site constant.
struct ConstClass {
  double value = 1.0;
  std::size_t site = 0;
  std::vector<std::uint64_t> binding;
};

struct Closure {
  std::uint32_t width = 0;
  std::uint32_t digits = 1;
  std::size_t vars = 0;  // binding length
  // The stored classes and their arenas: every class's entries end to
  // end, every class's witness binding (`vars` values each), and one
  // (class, site) pair per site that reached a class, in discovery order.
  std::vector<StoredClass> classes;
  std::vector<PackedEntry> entries;
  std::vector<std::uint64_t> bindings;
  std::vector<std::pair<std::size_t, std::uint32_t>> class_sites;
  std::vector<double> const_floor_per_site;  // aligned with kernel sites
  ConstClass worst_const;                    // the class attaining it
  double const_floor = 1.0;                  // max over sites
  double family_floor = 1.0;  // identical (col, keys) multiplicity
  double atomic_floor = 1.0;  // same-address atomic multiplicity
  Coverage coverage = Coverage::kSymbolic;
  std::uint64_t classes_seen = 0;  // before dedupe / trivial filtering
  std::uint64_t traces_reduced = 0;  // traces ingested

  [[nodiscard]] std::span<const PackedEntry> class_entries(
      std::size_t c) const {
    return std::span(entries).subspan(classes[c].begin,
                                      classes[c].end - classes[c].begin);
  }
  [[nodiscard]] std::span<const std::uint64_t> class_binding(
      std::size_t c) const {
    return std::span(bindings).subspan(c * vars, vars);
  }
};

/// Deterministic stratified sample of a loop variable: up to `quota`
/// values including both endpoints.
std::vector<std::uint64_t> sample_var(std::uint64_t count,
                                      std::uint64_t quota) {
  std::vector<std::uint64_t> values;
  if (count <= quota) {
    values.resize(count);
    std::iota(values.begin(), values.end(), 0u);
    return values;
  }
  values.reserve(quota);
  for (std::uint64_t i = 0; i < quota; ++i) {
    values.push_back(i * (count - 1) / (quota - 1));
  }
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

template <typename It>
void sort_unless_sorted(It first, It last) {
  if (!std::is_sorted(first, last)) std::sort(first, last);
}

/// Word-wise multiplicative hash of a normal form (a dedupe probe; every
/// hit is confirmed by an exact compare).
std::uint64_t hash_words(std::span<const PackedEntry> words) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = kMul ^ words.size();
  std::size_t k = 0;
  for (; k + 1 < words.size(); k += 2) {  // two words per multiply
    h = (std::rotl(h, 5) ^ words[k] ^ (std::uint64_t{words[k + 1]} << 32)) *
        kMul;
  }
  if (k < words.size()) h = (std::rotl(h, 5) ^ words[k]) * kMul;
  return h ^ (h >> 32);
}

/// The set of residue keys one DP sweep has reached: open addressing
/// with linear probing over a table sized from the sweep's bound on the
/// keys it can reach, never from the key range (a wrapped site's row_mod
/// is unbounded).
class KeyIndex {
 public:
  /// Empties the index and sizes it for up to `bound` keys at load 1/2.
  void reset(std::uint64_t bound) {
    const std::uint64_t slots =
        std::bit_ceil(std::max<std::uint64_t>(2 * bound, 16));
    shift_ = 64 - std::countr_zero(slots);
    slots_.assign(slots, kEmpty);
  }

  /// Adds `key`; true when it was not there yet.
  bool insert(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    // One splitmix64 round: keys on a stride (multiples of w^k) cluster
    // under a bare multiplicative hash.
    const std::uint64_t mixed = (key ^ (key >> 31)) * 0xbf58476d1ce4e5b9ull;
    for (std::size_t i = mixed >> shift_;; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        return true;
      }
    }
  }

 private:
  // Keys are below ma * mb, which fits 64 bits, so never all ones.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::vector<std::uint64_t> slots_;
  int shift_ = 0;  // 64 - log2(slots)
};

class ClosureBuilder {
 public:
  ClosureBuilder(const KernelDesc& kernel, std::uint32_t digits,
                 std::uint64_t class_cap)
      : kernel_(kernel),
        digits_(digits),
        class_cap_(std::min(class_cap, kMaxClassCap)),
        pack_(kernel.width, digits) {
    closure_.width = kernel.width;
    closure_.digits = digits;
    closure_.vars = kernel.vars.size();
    closure_.const_floor_per_site.assign(kernel.sites.size(), 1.0);
  }

  Closure build() {
    for (std::size_t s = 0; s < kernel_.sites.size(); ++s) {
      const AccessSite& site = kernel_.sites[s];
      switch (site.form) {
        case IndexForm::kFlat:
        case IndexForm::kRowCol:
          add_affine_site(s, site);
          break;
        case IndexForm::kOpaque:
          add_opaque_site(s, site);
          break;
      }
    }
    return std::move(closure_);
  }

 private:
  /// Close the site's class keys over all bindings by a sparse sumset DP
  /// and record one representative binding per class. The key is
  ///   kFlat:   flat value mod w^(digits+1)
  ///   kRowCol: (row expr mod P) * w + (col expr mod w), where P is the
  ///            wrap modulus (row_mod) or w^digits when unwrapped —
  /// in both cases two bindings with equal keys produce warp traces with
  /// identical (col, key-digit) entries AND an identical within-warp
  /// address-equality pattern (lane differences are binding-independent),
  /// so they are congestion-equivalent under every family member.
  ///
  /// Each loop variable with a nonzero step is one flat sweep: every
  /// state of the sweep before, in discovery order, walks its orbit and
  /// appends the keys not yet reached. A state records only where it came
  /// from (its parent and the variable's value), so its witness binding
  /// is read back through the sweeps when it is reduced. The states of
  /// the last sweep are the classes: it reduces them as it finds them
  /// and keeps none.
  void add_affine_site(std::size_t site_index, const AccessSite& site) {
    const std::uint64_t w = kernel_.width;
    std::uint64_t period_pow = w;  // w^digits
    for (std::uint32_t d = 1; d < digits_; ++d) period_pow *= w;

    // state key = (a mod ma) * mb + (b mod mb): a is the flat value or
    // the row, b the column (kRowCol only).
    const bool flat = site.form == IndexForm::kFlat;
    const AffineExpr& a = flat ? site.flat : site.row;
    const std::uint64_t ma = flat ? period_pow * w  // w^(digits+1)
                                  : (site.row_mod != 0 ? site.row_mod
                                                       : period_pow);
    const std::uint64_t mb = flat ? 1 : w;
    const auto step_a = [&](std::size_t v) { return mod_pos(a.coeff(v), ma); };
    const auto step_b = [&](std::size_t v) {
      return flat ? 0 : mod_pos(site.col.coeff(v), mb);
    };
    std::size_t last_var = kernel_.vars.size();  // the last sweep's
    for (std::size_t v = 0; v < kernel_.vars.size(); ++v) {
      if (step_a(v) != 0 || step_b(v) != 0) last_var = v;
    }

    // Every state is a class, but only the first state of each lane
    // group (header: THE ORACLE) is reduced; the rest would store, fold
    // and dedupe exactly as it did.
    const std::uint64_t lanes = site.lanes == 0 ? w : site.lanes;
    const LaneGroups lane_groups =
        flat ? LaneGroups::flat(w, digits_,
                                mod_pos(site.flat.lane_coeff, ma), lanes)
             : LaneGroups::row_col(w, ma, mod_pos(site.col.lane_coeff, w));
    groups_.assign((lane_groups.size() + 63) / 64, 0);
    const auto first_of_group = [&](std::uint64_t key) {
      const std::uint64_t group = lane_groups.group(key);
      if (group == LaneGroups::kOwn) return true;
      std::uint64_t& word = groups_[group / 64];
      const std::uint64_t bit = std::uint64_t{1} << (group % 64);
      const bool first = (word & bit) == 0;
      word |= bit;
      return first;
    };
    // Counts the class with key `key` whose origin is origins_[at], and
    // reduces it when it is the first of its group.
    const auto reduce = [&](std::uint64_t key, std::size_t at) {
      ++closure_.classes_seen;
      if (!first_of_group(key)) return;
      // Walk back through the sweeps; variables no sweep moved stay 0.
      binding_.assign(kernel_.vars.size(), 0);
      for (auto v = sweep_vars_.rbegin(); v != sweep_vars_.rend(); ++v) {
        binding_[*v] = origins_[at].value;
        at = origins_[at].parent;
      }
      materialize_site(kernel_, site, binding_, trace_);
      ingest_trace(site_index, site, trace_, binding_);
    };

    keys_.assign(1, mod_pos(a.base, ma) * mb + mod_pos(site.col.base, mb));
    origins_.assign(1, {});
    sweep_vars_.clear();
    std::size_t sweep_begin = 0;  // origins_ index of keys_[0]
    bool truncated = false;
    bool reduced = false;  // by the last sweep, as it found them
    for (std::size_t v = 0; v < kernel_.vars.size() && !truncated; ++v) {
      const std::uint64_t ca = step_a(v);
      const std::uint64_t cb = step_b(v);
      if (ca == 0 && cb == 0) continue;
      // Orbit length of (ca, cb) in Z_ma x Z_mb.
      const std::uint64_t la = ca == 0 ? 1 : ma / std::gcd(ca, ma);
      const std::uint64_t lb = cb == 0 ? 1 : mb / std::gcd(cb, mb);
      const std::uint64_t steps = std::min<std::uint64_t>(
          kernel_.vars[v].count, std::min(std::lcm(la, lb), ma * mb));
      // The sweep finds min(states x steps, class_cap + 1) keys at most
      // (one past the cap marks the truncation), whatever the key range.
      const std::uint64_t bound = keys_.size() > class_cap_ / steps
                                      ? class_cap_ + 1
                                      : keys_.size() * steps;
      reached_.reset(bound);
      reduced = v == last_var;
      sweep_vars_.push_back(v);
      // Reserving the bound up front spares the regrowth copies; pages
      // past what the sweep reaches are never touched.
      next_keys_.clear();
      const std::size_t next_begin = origins_.size();
      if (!reduced) {
        next_keys_.reserve(bound);
        origins_.reserve(next_begin + bound);
      }
      std::uint64_t found = 0;
      for (std::size_t s = 0; s < keys_.size() && !truncated; ++s) {
        std::uint64_t ra = keys_[s] / mb;
        std::uint64_t rb = keys_[s] % mb;
        for (std::uint64_t i = 0; i < steps; ++i) {
          const std::uint64_t k = ra * mb + rb;
          if (reached_.insert(k)) {
            origins_.push_back({sweep_begin + s, i});
            if (reduced) {  // read once for the binding, then dropped
              reduce(k, next_begin);
              origins_.pop_back();
            } else {
              next_keys_.push_back(k);
            }
            if (++found > class_cap_) {
              truncated = true;
              break;
            }
          }
          // ra, ca < ma and rb, cb < mb: one subtraction reduces.
          ra += ca;
          if (ra >= ma) ra -= ma;
          rb += cb;
          if (rb >= mb) rb -= mb;
        }
      }
      keys_.swap(next_keys_);
      sweep_begin = next_begin;
    }
    if (truncated) closure_.coverage = Coverage::kSampled;
    if (!reduced) {
      // No variable moves the key, or a sweep before the last truncated:
      // the states kept last are the classes.
      for (std::size_t s = 0; s < keys_.size(); ++s) {
        reduce(keys_[s], sweep_begin + s);
      }
    }
  }

  void add_opaque_site(std::size_t site_index, const AccessSite& site) {
    const std::uint64_t bindings = kernel_.binding_count();
    std::vector<std::vector<std::uint64_t>> per_var;
    per_var.reserve(kernel_.vars.size());
    if (bindings <= kSynthEnumCap) {
      for (const LoopVar& var : kernel_.vars) {
        per_var.push_back(sample_var(var.count, var.count));
      }
      if (closure_.coverage == Coverage::kSymbolic) {
        closure_.coverage = Coverage::kEnumerated;
      }
    } else {
      // Shrink the largest quotas until the product fits the cap.
      std::vector<std::uint64_t> quota;
      quota.reserve(kernel_.vars.size());
      for (const LoopVar& var : kernel_.vars) quota.push_back(var.count);
      auto product = [&] {
        std::uint64_t p = 1;
        for (const std::uint64_t q : quota) {
          if (q != 0 && p > kSynthEnumCap / q) return kSynthEnumCap + 1;
          p *= q;
        }
        return p;
      };
      while (product() > kSynthEnumCap) {
        const auto it = std::max_element(quota.begin(), quota.end());
        *it = std::max<std::uint64_t>(1, *it / 2);
      }
      for (std::size_t v = 0; v < kernel_.vars.size(); ++v) {
        per_var.push_back(sample_var(kernel_.vars[v].count, quota[v]));
      }
      closure_.coverage = Coverage::kSampled;
    }

    std::vector<std::uint64_t> binding(kernel_.vars.size(), 0);
    std::vector<std::size_t> index(kernel_.vars.size(), 0);
    for (;;) {
      for (std::size_t v = 0; v < kernel_.vars.size(); ++v) {
        binding[v] = per_var[v][index[v]];
      }
      materialize_site(kernel_, site, binding, trace_);
      ++closure_.classes_seen;
      ingest_trace(site_index, site, trace_, binding);
      std::size_t v = 0;
      for (; v < index.size(); ++v) {
        if (++index[v] < per_var[v].size()) break;
        index[v] = 0;
      }
      if (v == index.size()) break;
    }
  }

  /// Reduce one warp trace to entries, fold floors, filter trivial
  /// classes and dedupe the rest by their (rotate-, xor-) normal forms.
  /// Works in the builder's scratch buffers: once they have grown, a
  /// class allocates only when it is stored.
  void ingest_trace(std::size_t site_index, const AccessSite& site,
                    std::span<const std::int64_t> raw_trace,
                    std::span<const std::uint64_t> binding) {
    ++closure_.traces_reduced;
    // The kernel was proven in-bounds before synthesis started. Affine
    // traces usually arrive sorted already.
    addrs_.assign(raw_trace.begin(), raw_trace.end());
    sort_unless_sorted(addrs_.begin(), addrs_.end());

    entries_.clear();
    const bool atomic = site.dir == AccessDir::kAtomic;
    std::size_t i = 0;
    while (i < addrs_.size()) {
      std::size_t j = i;
      while (j < addrs_.size() && addrs_[j] == addrs_[i]) ++j;
      const std::size_t multiplicity = j - i;
      const PackedEntry packed = pack_(addrs_[i]);
      if (atomic) {
        // Same-address atomics serialize under EVERY bijection.
        closure_.atomic_floor = std::max(
            closure_.atomic_floor, static_cast<double>(multiplicity));
        entries_.insert(entries_.end(), multiplicity, packed);
      } else {
        entries_.push_back(packed);  // CRCW merge: one request per address
      }
      i = j;
    }
    sort_unless_sorted(entries_.begin(), entries_.end());

    // Identical (col, keys) packings collide under every family member.
    // `differ` has a bit set wherever some entry differs from the first.
    std::size_t max_same = 1;
    PackedEntry differ = 0;
    std::size_t run = 1;
    for (std::size_t k = 1; k < entries_.size(); ++k) {
      run = entries_[k] == entries_[k - 1] ? run + 1 : 1;
      max_same = std::max(max_same, run);
      differ |= entries_[k] ^ entries_[0];
    }
    closure_.family_floor =
        std::max(closure_.family_floor, static_cast<double>(max_same));

    if ((differ & ~0xffu) == 0) {
      // Bank is injective in the column: congestion is the constant
      // max_same for every member. Fold and drop.
      const auto value = static_cast<double>(max_same);
      auto& floor = closure_.const_floor_per_site[site_index];
      floor = std::max(floor, value);
      if (value > closure_.const_floor) {
        closure_.const_floor = value;
        closure_.worst_const = {value, site_index,
                                {binding.begin(), binding.end()}};
      }
      return;
    }

    normal_forms(differ);
    const std::uint64_t hash = hash_words(norm_);
    // Sites are ingested in ascending order, so a class's sites are too.
    const auto s32 = static_cast<std::uint32_t>(site_index);
    if (const auto known = find_class(hash)) {
      StoredClass& cls = closure_.classes[*known];
      if (cls.last_site != s32) {
        cls.last_site = s32;
        closure_.class_sites.emplace_back(*known, s32);
      }
      return;
    }
    const std::size_t c = closure_.classes.size();
    index_class(hash, c);
    norm_arena_.insert(norm_arena_.end(), norm_.begin(), norm_.end());
    norm_bounds_.push_back(norm_arena_.size());
    const std::size_t begin = closure_.entries.size();
    closure_.entries.insert(closure_.entries.end(), entries_.begin(),
                            entries_.end());
    closure_.bindings.insert(closure_.bindings.end(), binding.begin(),
                             binding.end());
    closure_.classes.push_back({begin, closure_.entries.size(), s32, s32});
    closure_.class_sites.emplace_back(c, s32);
  }

  /// Rotate- and xor-normal forms of entries_, concatenated into norm_.
  /// Shifting (or xoring) every column by a constant permutes banks, and
  /// so does a key digit shared by every entry: it adds one table term
  /// (or xors one mask) into every bank under every member. Each form
  /// removes the first entry's column and zeroes the digits that are
  /// uniform (`differ`'s byte clear), so two classes whose BOTH normal
  /// forms agree are congestion-equivalent under every rotate member and
  /// every xor member respectively.
  void normal_forms(PackedEntry differ) {
    const std::uint32_t w = kernel_.width;
    const std::size_t n = entries_.size();
    const std::uint32_t c = n == 0 ? 0 : entry_col(entries_[0]);
    const bool pow2 = std::has_single_bit(w);
    PackedEntry varying = 0;  // the key bytes of the non-uniform digits
    for (std::uint32_t d = 0; d < digits_; ++d) {
      const PackedEntry byte = 0xffu << (8u * (d + 1));
      if ((differ & byte) != 0) varying |= byte;
    }
    norm_.resize(2 * n);
    for (std::size_t k = 0; k < n; ++k) {
      const PackedEntry keys = entries_[k] & varying;
      const std::uint32_t col = entry_col(entries_[k]);
      norm_[k] = keys | (col >= c ? col - c : col + w - c);
      // Both columns are below w, so a power-of-two w needs no reduction.
      norm_[n + k] = keys | (pow2 ? col ^ c : (col ^ c) % w);
    }
    const auto half = norm_.begin() + static_cast<std::ptrdiff_t>(n);
    sort_unless_sorted(norm_.begin(), half);
    sort_unless_sorted(half, norm_.end());
  }

  /// The stored class whose normal forms equal norm_, if any.
  [[nodiscard]] std::optional<std::size_t> find_class(
      std::uint64_t hash) const {
    const std::size_t mask = dedupe_.size() - 1;
    for (std::size_t i = hash & mask; !dedupe_.empty(); i = (i + 1) & mask) {
      const auto [slot_hash, c] = dedupe_[i];
      if (c == kNoClass) break;
      if (slot_hash != hash) continue;
      const auto begin = norm_arena_.begin() +
                         static_cast<std::ptrdiff_t>(norm_bounds_[c]);
      const auto end = norm_arena_.begin() +
                       static_cast<std::ptrdiff_t>(norm_bounds_[c + 1]);
      if (std::equal(norm_.begin(), norm_.end(), begin, end)) return c;
    }
    return std::nullopt;
  }

  /// Indexes stored class `c` by its hash, doubling the table before it
  /// passes half load.
  void index_class(std::uint64_t hash, std::size_t c) {
    if (2 * (c + 1) > dedupe_.size()) {
      std::vector<std::pair<std::uint64_t, std::size_t>> old(
          std::max<std::size_t>(16, 2 * dedupe_.size()), {0, kNoClass});
      old.swap(dedupe_);
      for (const auto& [old_hash, old_c] : old) {
        if (old_c != kNoClass) place_class(old_hash, old_c);
      }
    }
    place_class(hash, c);
  }

  void place_class(std::uint64_t hash, std::size_t c) {
    const std::size_t mask = dedupe_.size() - 1;
    std::size_t i = hash & mask;
    while (dedupe_[i].second != kNoClass) i = (i + 1) & mask;
    dedupe_[i] = {hash, c};
  }

  static constexpr std::size_t kNoClass = ~std::size_t{0};

  const KernelDesc& kernel_;
  std::uint32_t digits_;
  std::uint64_t class_cap_;
  EntryPacker pack_;
  Closure closure_;
  /// Where a DP state came from: a state of the sweep before (an index
  /// into origins_) and the swept variable's value.
  struct Origin {
    std::size_t parent = 0;
    std::uint64_t value = 0;
  };

  // Residue DP state, reused across sweeps and sites: the last sweep's
  // keys in discovery order, the next sweep's, the keys it has reached,
  // every sweep's origins end to end (the initial state first), and the
  // variable each sweep moved.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> next_keys_;
  KeyIndex reached_;
  std::vector<Origin> origins_;
  std::vector<std::size_t> sweep_vars_;
  std::vector<std::uint64_t> binding_;  // a reduced state's binding
  // Per-class scratch, reused across ingest_trace calls.
  std::vector<std::int64_t> trace_;
  std::vector<std::uint64_t> addrs_;
  std::vector<PackedEntry> entries_;
  std::vector<PackedEntry> norm_;
  std::vector<std::uint64_t> groups_;  // lane groups already seen
  // Normal-form dedupe: the stored classes' forms laid end to end in one
  // arena, class c's at [norm_bounds_[c], norm_bounds_[c + 1]), indexed
  // by hash in an open-addressing table of (hash, class) slots.
  std::vector<std::pair<std::uint64_t, std::size_t>> dedupe_;
  std::vector<PackedEntry> norm_arena_;
  std::vector<std::size_t> norm_bounds_{0};
};

/// A candidate's bank function over packed entries, its table pointers
/// resolved once per candidate. Assumes a checked mapping with one table
/// per closure digit (check_mapping), so every lookup is in range.
class Banks {
 public:
  Banks(const SynthMapping& mapping, std::uint32_t digits)
      : width_(mapping.width),
        digits_(digits),
        rotate_(mapping.transform == RowTransform::kRotate),
        pow2_(std::has_single_bit(mapping.width)) {
    for (std::uint32_t d = 0; d < digits; ++d) {
      tables_[d] = mapping.tables[d].data();
    }
  }

  [[nodiscard]] std::uint32_t operator()(PackedEntry e) const {
    std::uint32_t term = 0;
    if (rotate_) {
      for (std::uint32_t d = 0; d < digits_; ++d) {
        term += tables_[d][entry_key(e, d)];
      }
      term += entry_col(e);
      return pow2_ ? term & (width_ - 1) : term % width_;
    }
    for (std::uint32_t d = 0; d < digits_; ++d) {
      term ^= tables_[d][entry_key(e, d)];
    }
    return entry_col(e) ^ term;  // xor: w is a power of two, so < w
  }

 private:
  std::array<const std::uint32_t*, kMaxDigits> tables_{};
  std::uint32_t width_;
  std::uint32_t digits_;
  bool rotate_;
  bool pow2_;
};

/// Candidate evaluator with epoch-stamped bank counters and sound
/// early-abort: once the running max reaches `abort_at` the candidate's
/// true bound can only be >= it, so discarding it preserves any
/// "minimum over the family" claim anchored at or below `abort_at`.
class Evaluator {
 public:
  explicit Evaluator(const Closure& closure)
      : closure_(closure),
        counts_(closure.width, 0),
        stamp_(closure.width, 0) {}

  struct Outcome {
    double bound = 1.0;
    bool completed = true;
    std::size_t worst_class = std::numeric_limits<std::size_t>::max();
  };

  Outcome evaluate(const SynthMapping& mapping, double abort_at) {
    Outcome out;
    out.bound = std::max(1.0, closure_.const_floor);
    if (out.bound >= abort_at) {
      out.completed = false;
      return out;
    }
    const Banks banks(mapping, closure_.digits);
    for (std::size_t c = 0; c < closure_.classes.size(); ++c) {
      const auto max =
          static_cast<double>(class_max(closure_.class_entries(c), banks));
      if (max > out.bound) {
        out.bound = max;
        out.worst_class = c;
        if (out.bound >= abort_at) {
          out.completed = false;
          return out;
        }
      }
    }
    return out;
  }

  /// Per-site certified bounds under `mapping` (full evaluation).
  std::vector<double> site_bounds(const SynthMapping& mapping) {
    const Banks banks(mapping, closure_.digits);
    std::vector<std::uint32_t> maxima;
    maxima.reserve(closure_.classes.size());
    for (std::size_t c = 0; c < closure_.classes.size(); ++c) {
      maxima.push_back(class_max(closure_.class_entries(c), banks));
    }
    std::vector<double> bounds = closure_.const_floor_per_site;
    for (const auto& [c, s] : closure_.class_sites) {
      bounds[s] = std::max(bounds[s], static_cast<double>(maxima[c]));
    }
    return bounds;
  }

 private:
  /// The class's congestion under a candidate: the most requests on one
  /// bank.
  std::uint32_t class_max(std::span<const PackedEntry> entries,
                          const Banks& banks) {
    ++epoch_;
    std::uint32_t max = 0;
    for (const PackedEntry e : entries) {
      const std::uint32_t bank = banks(e);
      if (stamp_[bank] != epoch_) {
        stamp_[bank] = epoch_;
        counts_[bank] = 0;
      }
      max = std::max(max, ++counts_[bank]);
    }
    return max;
  }

  const Closure& closure_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
};

/// The generator set, one candidate at a time: the deterministic corners
/// of the family (RAW, then per transform the binary identity
/// combinations over the digits and the per-digit linear sweeps), then
/// seeded random permutations per digit — the paper's RAP draws. Rotate
/// always; xor when the width is a power of two. Each candidate
/// overwrites the one before, so memory does not grow with the draws.
class CandidateStream {
 public:
  CandidateStream(std::uint32_t width, std::uint32_t digits,
                  const SynthesisOptions& options)
      : transforms_(std::has_single_bit(width) ? 2 : 1),
        identities_((std::uint64_t{1} << digits) - 1),
        sweeps_(std::uint64_t{digits} * (width > 2 ? width - 2 : 0)),
        rng_(options.seed, /*stream=*/0x73796e7468ull) {  // "synth"
    const std::uint64_t fixed = 1 + transforms_ * (identities_ + sweeps_);
    if (options.random_draws >
        (std::numeric_limits<std::uint64_t>::max() - fixed) / transforms_) {
      throw std::invalid_argument(
          "synthesize: random_draws overflows the 64-bit candidate count");
    }
    size_ = fixed + options.random_draws * transforms_;
    // RAW (all zeros): transform-independent, generated once, first.
    current_.width = width;
    current_.tables.assign(digits, std::vector<std::uint32_t>(width, 0));
  }

  /// Candidates the generators produce in all: 1 + T * ((2^D - 1) +
  /// D * (w - 2)) + draws * T for T transforms (w - 2 read as 0 below 2).
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] const SynthMapping& current() const { return current_; }

  /// Overwrites current() with the next candidate; false past the last.
  bool next() {
    if (index_ + 1 >= size_) return false;
    const std::uint64_t i = index_++;  // candidates after RAW
    const std::uint64_t block = identities_ + sweeps_;
    const std::uint32_t w = current_.width;
    auto& tables = current_.tables;
    if (i < transforms_ * block) {
      current_.transform = transform(i / block);
      for (std::vector<std::uint32_t>& table : tables) {
        std::fill(table.begin(), table.end(), 0u);
      }
      const std::uint64_t k = i % block;
      if (k < identities_) {
        // Identity tables on the digits of mask k + 1 (the single
        // identities and the all-identity diagonal-style layout).
        for (std::size_t d = 0; d < tables.size(); ++d) {
          if (((k + 1) >> d) & 1u) {
            std::iota(tables[d].begin(), tables[d].end(), 0u);
          }
        }
      } else {
        // t_d[r] = c * r mod w; c = 1 is an identity combination.
        const std::uint64_t sweep = k - identities_;
        const auto c = static_cast<std::uint32_t>(2 + sweep % (w - 2));
        auto& table = tables[sweep / (w - 2)];
        for (std::uint32_t r = 0; r < w; ++r) table[r] = (c * r) % w;
      }
    } else {
      // Random permutation tables, independent per digit.
      current_.transform = transform((i - transforms_ * block) % transforms_);
      for (std::vector<std::uint32_t>& table : tables) {
        core::draw_permutation(table, rng_);
      }
    }
    return true;
  }

 private:
  static RowTransform transform(std::uint64_t t) {
    return t == 0 ? RowTransform::kRotate : RowTransform::kXor;
  }

  std::uint64_t transforms_;
  std::uint64_t identities_;  // per transform
  std::uint64_t sweeps_;      // per transform
  util::Pcg32 rng_;
  std::uint64_t size_ = 0;
  std::uint64_t index_ = 0;  // of current()
  SynthMapping current_;
};

std::string format_bound_value(double bound) {
  std::ostringstream out;
  if (bound == static_cast<double>(static_cast<std::uint64_t>(bound))) {
    out << static_cast<std::uint64_t>(bound);
  } else {
    out.precision(3);
    out << bound;
  }
  return out.str();
}

CongestionCertificate make_certificate(const SynthMapping& mapping,
                                       const Closure& closure, double bound,
                                       std::uint64_t classes) {
  CongestionCertificate cert;
  cert.scheme = core::Scheme::kSynth;
  cert.bound = bound;
  cert.pattern = mapping.describe();
  std::ostringstream claim;
  if (closure.coverage == Coverage::kSampled) {
    cert.kind = BoundKind::kExpectedUpper;
    cert.rule = "synth-direct-eval-sampled";
    claim << "congestion <= " << format_bound_value(bound)
          << " on every sampled binding (" << classes
          << " classes; coverage truncated, bound not exhaustive)";
  } else {
    cert.kind = BoundKind::kExact;
    cert.rule = "synth-direct-eval";
    claim << "worst-warp congestion " << format_bound_value(bound)
          << " over ALL loop bindings: direct evaluation of every residue "
             "class mod w^"
          << (closure.digits + 1) << " (" << classes << " classes)";
  }
  cert.claim = claim.str();
  return cert;
}

}  // namespace

const char* row_transform_name(RowTransform transform) noexcept {
  switch (transform) {
    case RowTransform::kRotate: return "rotate";
    case RowTransform::kXor: return "xor";
  }
  return "?";
}

const char* witness_kind_name(WitnessKind kind) noexcept {
  switch (kind) {
    case WitnessKind::kGlobalOptimal: return "global-optimal";
    case WitnessKind::kFamilyMinimal: return "family-minimal";
    case WitnessKind::kBestEffort: return "best-effort";
  }
  return "?";
}

std::string SynthMapping::spec() const {
  std::ostringstream out;
  out << "ps1:"
      << (transform == RowTransform::kRotate ? "rot" : "xor")
      << ":w=" << width << ":";
  for (std::size_t d = 0; d < tables.size(); ++d) {
    if (d != 0) out << "|";
    for (std::size_t r = 0; r < tables[d].size(); ++r) {
      if (r != 0) out << ",";
      out << tables[d][r];
    }
  }
  return out.str();
}

std::string SynthMapping::describe() const {
  std::ostringstream out;
  out << row_transform_name(transform) << ", " << tables.size()
      << " digit table" << (tables.size() == 1 ? "" : "s") << ", w="
      << width;
  return out.str();
}

SynthMapping SynthMapping::parse_spec(const std::string& spec) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument("synth spec: " + what);
  };
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i == spec.size() || spec[i] == ':') {
      parts.push_back(spec.substr(start, i - start));
      start = i + 1;
    }
  }
  if (parts.size() != 4) fail("expected ps1:<rot|xor>:w=<w>:<tables>");
  if (parts[0] != "ps1") fail("unknown magic '" + parts[0] + "'");

  SynthMapping mapping;
  if (parts[1] == "rot") {
    mapping.transform = RowTransform::kRotate;
  } else if (parts[1] == "xor") {
    mapping.transform = RowTransform::kXor;
  } else {
    fail("unknown transform '" + parts[1] + "' (rot or xor)");
  }

  if (parts[2].rfind("w=", 0) != 0) fail("expected w=<width>");
  std::uint64_t width = 0;
  for (const char ch : parts[2].substr(2)) {
    if (ch < '0' || ch > '9') fail("width is not a number");
    width = width * 10 + static_cast<std::uint64_t>(ch - '0');
    if (width > 1u << 16) fail("width out of range");
  }
  if (width == 0 || width > 64) fail("width must be in [1, 64]");
  mapping.width = static_cast<std::uint32_t>(width);
  if (mapping.transform == RowTransform::kXor &&
      (width & (width - 1)) != 0) {
    fail("xor transform requires a power-of-two width");
  }

  std::vector<std::uint32_t> table;
  std::uint64_t value = 0;
  bool have_digit = false;
  const auto flush_value = [&] {
    if (!have_digit) fail("empty table entry");
    if (value >= width) fail("table entry " + std::to_string(value) +
                             " out of range [0, " + std::to_string(width) +
                             ")");
    table.push_back(static_cast<std::uint32_t>(value));
    value = 0;
    have_digit = false;
  };
  const auto flush_table = [&] {
    flush_value();
    if (table.size() != width) {
      fail("table has " + std::to_string(table.size()) +
           " entries, expected " + std::to_string(width));
    }
    mapping.tables.push_back(std::move(table));
    table.clear();
  };
  for (const char ch : parts[3]) {
    if (ch >= '0' && ch <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(ch - '0');
      if (value > 1u << 16) fail("table entry out of range");
      have_digit = true;
    } else if (ch == ',') {
      flush_value();
    } else if (ch == '|') {
      flush_table();
    } else {
      fail(std::string("unexpected character '") + ch + "' in tables");
    }
  }
  flush_table();
  if (mapping.tables.empty() || mapping.tables.size() > kMaxDigits) {
    fail("expected 1.." + std::to_string(kMaxDigits) + " digit tables");
  }
  return mapping;
}

namespace {

/// Throws std::invalid_argument, prefixed with `who`, unless the mapping
/// is well formed (synth.hpp, make_synth_map).
void check_mapping(const SynthMapping& mapping, const std::string& who) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument(who + ": " + what);
  };
  const std::uint32_t w = mapping.width;
  if (w == 0) fail("zero width");
  if (mapping.tables.empty() || mapping.tables.size() > kMaxDigits) {
    fail("mapping needs 1..3 digit tables");
  }
  if (mapping.transform == RowTransform::kXor && !std::has_single_bit(w)) {
    fail("xor transform requires a power-of-two width");
  }
  for (const std::vector<std::uint32_t>& table : mapping.tables) {
    if (table.size() != w) fail("table size != width");
    for (const std::uint32_t entry : table) {
      if (entry >= w) fail("table entry >= width");
    }
  }
}

}  // namespace

std::unique_ptr<core::AddressMap> make_synth_map(const SynthMapping& mapping,
                                                 std::uint64_t memory_size) {
  check_mapping(mapping, "make_synth_map");
  const std::uint32_t w = mapping.width;
  std::vector<core::RowTable> tables;
  for (std::uint32_t d = 0; d < mapping.tables.size(); ++d) {
    tables.push_back({d, mapping.tables[d]});
  }
  const std::uint64_t rows = (memory_size + w - 1) / w;
  return std::make_unique<core::AddressMap>(
      "SYNTH(" + mapping.describe() + ")", w,
      std::max<std::uint64_t>(1, rows) * w, mapping.transform,
      std::move(tables));
}

namespace {

std::uint32_t digits_for_rows(std::uint64_t rows, std::uint32_t width,
                              std::uint32_t max_digits) {
  std::uint32_t digits = 1;
  std::uint64_t reach = width;
  const std::uint32_t cap =
      std::min<std::uint32_t>(std::max<std::uint32_t>(max_digits, 1),
                              kMaxDigits);
  while (digits < cap && reach < rows) {
    reach *= width;
    ++digits;
  }
  return digits;
}

Closure build_closure(const KernelDesc& kernel, std::uint32_t digits,
                      std::uint64_t class_cap) {
  return ClosureBuilder(kernel, digits, class_cap).build();
}

void check_synthesizable(const KernelDesc& kernel, bool out_of_bounds) {
  const std::vector<std::string> violations = validate_kernel(kernel);
  if (!violations.empty()) {
    throw std::invalid_argument("synthesize: invalid kernel: " +
                                violations.front());
  }
  if (kernel.width > 64) {
    throw std::invalid_argument("synthesize: width must be <= 64");
  }
  if (kernel.sites.empty()) {
    throw std::invalid_argument("synthesize: kernel has no access sites");
  }
  if (out_of_bounds) {
    throw std::invalid_argument(
        "synthesize: kernel has out-of-bounds accesses; remapping cannot "
        "repair an OOB index — fix the kernel first");
  }
}

}  // namespace

SynthesisResult synthesize_mapping(const KernelDesc& kernel,
                                   const SynthesisOptions& options) {
  check_synthesizable(kernel, any_out_of_bounds(kernel));

  const std::uint32_t digits =
      digits_for_rows(kernel.rows, kernel.width, options.max_digits);
  CandidateStream stream(kernel.width, digits, options);
  const Closure closure =
      build_closure(kernel, digits, std::max<std::uint64_t>(options.class_cap,
                                                            std::uint64_t{1}));
  Evaluator evaluator(closure);

  const double global_floor = std::max(1.0, closure.atomic_floor);
  const double family_floor =
      std::max({global_floor, closure.const_floor, closure.family_floor});

  // RAW (always present, always first) evaluated in full over the
  // closure is the baseline; the search reuses the outcome.
  const SynthMapping& candidate = stream.current();
  const Evaluator::Outcome raw =
      evaluator.evaluate(candidate, std::numeric_limits<double>::infinity());
  SynthMapping best = candidate;
  double best_bound = std::numeric_limits<double>::infinity();
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t family_size = stream.size();
  bool budget_hit = false;
  bool cancelled = false;

  const auto budget_left = [&] {
    return evaluated + pruned < options.candidate_budget;
  };
  const auto poll_cancel = [&] {
    if (options.cancelled && options.cancelled()) cancelled = true;
    return cancelled;
  };

  // Stops at the floor (provably minimal) before drawing another.
  for (bool first = true;
       best_bound > family_floor && (first || stream.next()); first = false) {
    if (!budget_left()) {
      budget_hit = true;
      break;
    }
    if (poll_cancel()) break;
    const Evaluator::Outcome outcome =
        first ? raw  // best_bound is still infinite
              : evaluator.evaluate(candidate, best_bound);
    if (outcome.completed) {
      ++evaluated;
      if (outcome.bound < best_bound) {
        best_bound = outcome.bound;
        best = candidate;
      }
    } else {
      ++pruned;
    }
  }

  // Greedy single-entry repair of the incumbent: re-evaluate with one
  // table entry changed, adopt strict improvements. Each trial joins the
  // searched family (and the evaluated/pruned accounting).
  if (best_bound > family_floor && !cancelled) {
    std::uint64_t passes = 0;
    bool improved = true;
    while (improved && passes < options.greedy_passes && budget_left() &&
           !poll_cancel() && best_bound > family_floor) {
      improved = false;
      ++passes;
      const Evaluator::Outcome current =
          evaluator.evaluate(best, std::numeric_limits<double>::infinity());
      if (current.worst_class == std::numeric_limits<std::size_t>::max()) {
        break;  // the bound comes from a constant class: tables can't help
      }
      for (const PackedEntry e : closure.class_entries(current.worst_class)) {
        for (std::uint32_t d = 0; d < digits && !improved; ++d) {
          const std::uint32_t key = entry_key(e, d);
          const std::uint32_t original = best.tables[d][key];
          for (std::uint32_t v = 0; v < kernel.width; ++v) {
            if (v == original) continue;
            if (!budget_left()) {
              budget_hit = true;
              break;
            }
            ++family_size;
            best.tables[d][key] = v;
            const Evaluator::Outcome trial =
                evaluator.evaluate(best, best_bound);
            if (trial.completed && trial.bound < best_bound) {
              ++evaluated;
              best_bound = trial.bound;
              improved = true;
              break;  // keep v
            }
            ++pruned;
            best.tables[d][key] = original;
          }
          if (budget_hit) break;
        }
        if (improved || budget_hit) break;
      }
      if (budget_hit) break;
    }
  }

  // Certify the winner with a final full evaluation (the search's
  // incumbent bound is already exact, but re-deriving it here keeps the
  // certificate independent of the pruning logic).
  const Evaluator::Outcome final_outcome =
      evaluator.evaluate(best, std::numeric_limits<double>::infinity());
  const double bound = final_outcome.bound;

  SynthesisResult result;
  result.kernel = kernel.name;
  result.width = kernel.width;
  result.rows = kernel.rows;
  result.mapping = best;
  result.coverage = closure.coverage;
  result.classes = closure.classes_seen;
  result.traces_reduced = closure.traces_reduced;
  result.classes_stored = closure.classes.size();
  result.candidates = evaluated + pruned;
  result.baseline_bound = raw.bound;
  result.certificate =
      make_certificate(best, closure, bound, closure.classes_seen);
  result.site_bounds = evaluator.site_bounds(best);

  // The witness class: rematerialize the worst class's real trace.
  std::size_t witness_site = closure.worst_const.site;
  std::vector<std::uint64_t> witness_binding = closure.worst_const.binding;
  if (final_outcome.worst_class != std::numeric_limits<std::size_t>::max() &&
      bound > closure.const_floor) {
    witness_site = closure.classes[final_outcome.worst_class].first_site;
    const auto binding = closure.class_binding(final_outcome.worst_class);
    witness_binding.assign(binding.begin(), binding.end());
  }
  if (witness_binding.empty()) {
    witness_binding.assign(kernel.vars.size(), 0);
  }
  result.witness_site = witness_site;
  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    result.witness_binding.emplace_back(kernel.vars[v].name,
                                        witness_binding[v]);
  }
  if (witness_site < kernel.sites.size()) {
    for (const std::int64_t a : materialize_site(
             kernel, kernel.sites[witness_site], witness_binding)) {
      result.witness_trace.push_back(static_cast<std::uint64_t>(a));
    }
  }

  // The optimality witness.
  OptimalityWitness witness;
  witness.family_size = family_size;
  witness.evaluated = evaluated;
  witness.pruned = pruned;
  std::ostringstream detail;
  if (closure.coverage == Coverage::kSampled) {
    witness.kind = WitnessKind::kBestEffort;
    witness.reason = "sampled-coverage";
    witness.lower_bound = 1.0;
    detail << "binding coverage was sampled, so the bound holds on the "
              "sample only; no minimality claim";
  } else if (bound <= global_floor) {
    witness.kind = WitnessKind::kGlobalOptimal;
    witness.lower_bound = global_floor;
    if (bound <= 1.0) {
      witness.reason = "bound-one";
      detail << "congestion 1 is the unconditional minimum";
    } else {
      witness.reason = "atomic-floor";
      detail << "same-address atomic requests serialize "
             << format_bound_value(global_floor)
             << "-way under every bijection";
    }
  } else if (cancelled) {
    witness.kind = WitnessKind::kBestEffort;
    witness.reason = "cancelled";
    witness.lower_bound = family_floor;
    detail << "search cancelled before the generator set was exhausted";
  } else if (budget_hit) {
    witness.kind = WitnessKind::kBestEffort;
    witness.reason = "budget-exhausted";
    witness.lower_bound = family_floor;
    detail << "candidate budget exhausted before the generator set";
  } else if (bound <= family_floor) {
    witness.kind = WitnessKind::kFamilyMinimal;
    witness.reason = "family-floor";
    witness.lower_bound = family_floor;
    detail << "requests with identical (column, digit-key) signatures "
              "collide under every family member, flooring the family at "
           << format_bound_value(family_floor);
  } else {
    witness.kind = WitnessKind::kFamilyMinimal;
    witness.reason = "family-exhausted";
    witness.lower_bound = bound;
    detail << "every one of the " << family_size
           << " generated candidates was evaluated or soundly pruned at "
              "or above this bound";
  }
  witness.detail = detail.str();
  result.witness = witness;
  return result;
}

CongestionCertificate certify_mapping(const KernelDesc& kernel,
                                      const SynthMapping& mapping) {
  check_synthesizable(kernel, any_out_of_bounds(kernel));
  if (mapping.width != kernel.width) {
    throw std::invalid_argument(
        "certify_mapping: mapping width != kernel width");
  }
  check_mapping(mapping, "certify_mapping");
  const auto digits = static_cast<std::uint32_t>(mapping.tables.size());
  // A closure of its own: nothing is shared with the search.
  const Closure closure = build_closure(kernel, digits, kDefaultClassCap);
  Evaluator evaluator(closure);
  const Evaluator::Outcome outcome =
      evaluator.evaluate(mapping, std::numeric_limits<double>::infinity());
  return make_certificate(mapping, closure, outcome.bound,
                          closure.classes_seen);
}

std::string SynthesisResult::to_json() const {
  telemetry::JsonWriter json;
  json.begin_object();
  json.kv("kernel", std::string_view(kernel));
  json.kv("width", static_cast<std::uint64_t>(width));
  json.kv("rows", rows);
  json.key("mapping");
  json.begin_object();
  json.kv("spec", mapping.spec());
  json.kv("transform", row_transform_name(mapping.transform));
  json.kv("digits", static_cast<std::uint64_t>(mapping.digits()));
  json.key("tables");
  json.begin_array();
  for (const std::vector<std::uint32_t>& table : mapping.tables) {
    json.begin_array();
    for (const std::uint32_t entry : table) {
      json.value(static_cast<std::uint64_t>(entry));
    }
    json.end_array();
  }
  json.end_array();
  json.end_object();
  json.key("certificate").raw_value(certificate.to_json());
  json.key("witness");
  json.begin_object();
  json.kv("kind", witness_kind_name(witness.kind));
  json.kv("reason", std::string_view(witness.reason));
  json.kv("lower_bound", witness.lower_bound);
  json.kv("family_size", witness.family_size);
  json.kv("evaluated", witness.evaluated);
  json.kv("pruned", witness.pruned);
  json.kv("detail", std::string_view(witness.detail));
  json.end_object();
  json.kv("classes", classes);
  json.kv("coverage", coverage_name(coverage));
  json.kv("candidates", candidates);
  json.key("site_bounds");
  json.begin_array();
  for (const double b : site_bounds) json.value(b);
  json.end_array();
  json.kv("witness_site", static_cast<std::uint64_t>(witness_site));
  json.key("witness_binding");
  json.begin_object();
  for (const auto& [name, value] : witness_binding) json.kv(name, value);
  json.end_object();
  json.key("witness_trace");
  json.begin_array();
  for (const std::uint64_t addr : witness_trace) json.value(addr);
  json.end_array();
  json.key("baseline");
  json.begin_object();
  json.kv("scheme", core::scheme_name(core::Scheme::kRaw));
  json.kv("bound", baseline_bound);
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace rapsim::analyze
