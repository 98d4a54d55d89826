// Layout synthesis (static analysis, pillar 4 — the layout compiler).
//
// The passes (analyze/passes.hpp) CHECK a kernel under a fixed scheme;
// this header derives one. synthesize_mapping() searches the affine
// permute-shift family — per-digit shift tables combined by rotation or
// XOR-swizzle — for a mapping whose worst-warp congestion is certified
// minimal, and returns the winning parameters together with a
// CongestionCertificate and a machine-checkable optimality witness.
//
// THE FAMILY. A family member is described by D <= 3 tables of w entries
// each. For a logical address a over a rows x w array, write row = a / w,
// col = a mod w, and let key_d = (row / w^d) mod w be the row's base-w
// digits. The physical column is then
//
//   rotate:  (col + t_0[key_0] + ... + t_{D-1}[key_{D-1}]) mod w
//   xor:     col ^ t_0[key_0] ^ ... ^ t_{D-1}[key_{D-1}]   (w a power of 2)
//
// and the physical address is row * w + column' (rows are preserved, so
// every member is a bijection). D = 1 with t_0 a random permutation is
// exactly the paper's RAP; t_0[r] = r is PAD without the wasted column;
// all-zero tables are RAW; the multi-digit tables cover the Table IV 4-D
// layouts (a stride-w^k axis is separated by the k-th digit table). A
// final bank permutation is deliberately NOT part of the family: it
// relabels banks and cannot change congestion, so the search space is
// quotiented by it.
//
// THE ORACLE. The residue closure of analyze/passes.hpp generalizes:
// every member's bank function is periodic in the flat address with
// period w^(D+1), so the reachable base residues mod w^(D+1) (a sparse
// sumset DP over the loop variables) partition ALL loop bindings into
// finitely many congestion classes. Each class is reduced to a
// constraint — per unique address a (col, key-tuple) entry — and a
// candidate is scored by direct evaluation of every constraint. The
// winner's full evaluation IS its certificate.
//
// Classes are stored once per congestion-equivalent group. Adding one
// shift to every request of a warp only relabels banks, so each class's
// rotate and xor normal forms remove its first entry's column and zero
// every key digit that all its entries share (under every member such a
// digit adds one table term, or xors one mask, into every bank); classes
// whose forms both agree are stored once. The one stored is the first
// in discovery order, and a later duplicate is congestion-equal under
// every member, so it can never raise a running maximum above its
// representative's: the worst class, its witness binding and trace,
// every pruning decision and the greedy repair are the ones storing
// every class would give, and a duplicate's site joins the stored
// class's sites, so site_bounds is unchanged too.
// SynthesisResult::classes_stored counts what is stored.
//
// The DP is one flat sweep per loop variable: the states found so far,
// in discovery order, each walk their orbit, and a key not reached yet
// becomes a new state. Reached keys live in an open-addressing index
// sized from what the sweep can reach (states x steps, at most one past
// the class cap), never from the key range, which a wrapped site's
// row_mod leaves unbounded. Discovery order is the closure's order: it
// decides which binding witnesses a class and so, among tied classes or
// tied candidates, the witness and the winner.
//
// Affine classes fall into lane groups whose members reduce to the same
// normal forms, by one windowed rule over the key's base-w digits. Let c
// be a flat site's lane step reduced like the key (ascending), n its
// lane count, w^m the largest power of w dividing c (m <= D) and the
// window w^j the smallest power of w above the span s = (c / w^m)(n-1).
// Every lane shares the key's digits below m. When the window value
// v = (key / w^m) mod w^j satisfies v + s < w^j, no lane carries out of
// digits [m, m + j), so every higher digit is shared too and both
// normal forms depend on v alone: the group is v. Otherwise, when
// m >= 1, only digits at or above m vary and the group is
// w^j + key / w^m; otherwise the class is a group of its own. A row/col
// site whose column's lane step is 0 mod w keeps every lane in lane 0's
// column, so its group is the key's row part. Only the first class of
// each group, in discovery order, is materialized and reduced; it is
// also the first to reach every stored class, floor and witness
// binding, so the closure is byte for byte the one reducing every class
// would build. `classes` still counts every class (it is the residue
// count the certificate quotes); SynthesisResult::traces_reduced counts
// the work: at w = 32, one trace for each tensor4d kernel's 32,768
// classes, and 859 for the catalog's 141,753.
//
// THE BASELINE. The all-zero member is RAW, and the search evaluates it
// first, in full, over its own closure: that value is baseline_bound,
// with no second prover. Over an exact closure it equals
// analyze_kernel(kernel, kRaw)'s bound (tests/synth_differential_test.cpp
// and SynthProperty check both); over a sampled one it is RAW on the same
// sample the certificate covers, so certificate.bound <= baseline_bound
// holds by construction.
//
// THE WITNESS. Three lower bounds make optimality machine-checkable:
//   * congestion >= 1 always ("bound-one");
//   * atomic requests to one address serialize under EVERY bijection, so
//     the max same-address atomic multiplicity floors all mappings
//     ("atomic-floor" — global optimality);
//   * entries with identical (col, key-tuple) collide under EVERY family
//     member ("family-floor" — optimality over the family).
// When no floor is met the search still exhausts its generator set, and
// "family-exhausted" certifies the bound as the minimum over every
// candidate generated (pruned candidates are discarded soundly: a
// running max that already reached the incumbent can only grow). The
// candidates are generated one at a time as they are scored, so memory
// does not grow with random_draws; family_size is counted in closed form,
// 1 + T * ((2^D - 1) + D * (w - 2)) + draws * T for T transforms (w - 2
// read as 0 below 2), plus the greedy repair's trials.
// certify_mapping() re-checks any claimed (kernel, mapping, bound) triple
// independently of the search, which is what makes the witness auditable.
//
// Consumers: rapsim-lint --synthesize (SYNTHESIZE fix-its), the
// advise.synthesize serve method, and replay (make_synth_map lets a
// synthesized spec replay over any captured trace).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyze/certificate.hpp"
#include "analyze/kernelir.hpp"
#include "analyze/passes.hpp"
#include "core/mapping.hpp"

namespace rapsim::analyze {

/// How the per-digit table terms combine with the column.
using core::RowTransform;

[[nodiscard]] const char* row_transform_name(RowTransform transform) noexcept;

/// Parameters of one permute-shift family member (see header comment).
/// Value type: serializable, comparable, independent of memory size.
struct SynthMapping {
  std::uint32_t width = 32;
  RowTransform transform = RowTransform::kRotate;
  /// tables[d][key] in [0, width): the shift (rotate) or mask (xor)
  /// contributed by the row's d-th base-w digit. 1 <= size <= kMaxDigits.
  std::vector<std::vector<std::uint32_t>> tables;

  [[nodiscard]] std::size_t digits() const noexcept { return tables.size(); }

  /// Machine-readable spec "ps1:<rot|xor>:w=<w>:<t0 csv>|<t1 csv>|...",
  /// round-tripped by parse_spec.
  [[nodiscard]] std::string spec() const;
  /// Short human-readable summary, e.g. "rotate, 2 digit tables".
  [[nodiscard]] std::string describe() const;
  /// Inverse of spec(). Throws std::invalid_argument with the offending
  /// field on malformed input (wrong magic, out-of-range entries, xor
  /// with a non-power-of-two width, ...).
  [[nodiscard]] static SynthMapping parse_spec(const std::string& spec);

  friend bool operator==(const SynthMapping&, const SynthMapping&) = default;
};

/// Most digit tables a mapping may carry (keys are base-w row digits;
/// three tables separate strides up to w^3, the Table IV depth).
inline constexpr std::uint32_t kMaxDigits = 3;

/// The mapping bound to the smallest whole-row memory covering
/// `memory_size` words: the core::AddressMap (scheme kSynth, digit table d
/// on row digit d) the DMM, the replay engine and the congestion counters
/// consume. Throws std::invalid_argument unless the mapping is well formed:
/// a nonzero width, 1..kMaxDigits tables of `width` entries below width,
/// and xor only with a power-of-two width.
[[nodiscard]] std::unique_ptr<core::AddressMap> make_synth_map(
    const SynthMapping& mapping, std::uint64_t memory_size);

/// Strength of the optimality claim attached to a SynthesisResult.
enum class WitnessKind {
  kGlobalOptimal,   // bound meets a mapping-independent floor (1, or the
                    // atomic same-address multiplicity)
  kFamilyMinimal,   // bound meets the family floor, or every generated
                    // candidate was evaluated or soundly pruned
  kBestEffort,      // budget / deadline / sampled coverage truncated the
                    // claim — the bound is certified, minimality is not
};

[[nodiscard]] const char* witness_kind_name(WitnessKind kind) noexcept;

/// The machine-checkable optimality witness: which floor (or exhaustion
/// argument) justifies calling the certified bound minimal.
struct OptimalityWitness {
  WitnessKind kind = WitnessKind::kBestEffort;
  /// The proven lower bound the achieved bound is compared against
  /// (1, atomic floor, or family floor — whichever is active).
  double lower_bound = 1.0;
  std::string reason;  // machine-readable: "bound-one", "atomic-floor",
                       // "family-floor", "family-exhausted",
                       // "budget-exhausted", "sampled-coverage"
  std::string detail;  // human-readable justification
  std::uint64_t family_size = 0;  // candidates the generators produced
  std::uint64_t evaluated = 0;    // candidates fully evaluated
  std::uint64_t pruned = 0;       // soundly discarded mid-evaluation
};

/// Stored constraint-class budget of a closure: the search's default and
/// the audit's fixed cap.
inline constexpr std::uint64_t kDefaultClassCap = std::uint64_t{1} << 18;

struct SynthesisOptions {
  /// Digit tables to search (clamped to what `rows` needs; <= kMaxDigits).
  std::uint32_t max_digits = kMaxDigits;
  /// Random permutation draws per transform (the RAP corner of the
  /// family). The search throws std::invalid_argument when the family
  /// this makes overflows a 64-bit count.
  std::uint64_t random_draws = 48;
  /// Greedy single-entry repair steps applied to the incumbent.
  std::uint64_t greedy_passes = 64;
  std::uint64_t seed = 1;
  /// Stored constraint-class budget; past it coverage degrades to a
  /// deterministic sample and the witness to best-effort. Values above
  /// 2^48 act as 2^48.
  std::uint64_t class_cap = kDefaultClassCap;
  /// Candidate-evaluation budget (evaluated + pruned).
  std::uint64_t candidate_budget = 1u << 20;
  /// Cooperative cancellation, polled between candidates. May throw (the
  /// serve layer throws its deadline error straight through the search).
  std::function<bool()> cancelled;
};

struct SynthesisResult {
  std::string kernel;
  std::uint32_t width = 0;
  std::uint64_t rows = 0;
  SynthMapping mapping;              // the winner
  CongestionCertificate certificate; // scheme kSynth, rule synth-direct-eval
  OptimalityWitness witness;
  /// Worst coverage across sites: kSymbolic/kEnumerated mean the
  /// certificate is exact over ALL bindings.
  Coverage coverage = Coverage::kSymbolic;
  std::uint64_t classes = 0;         // constraint classes certified against
  std::uint64_t candidates = 0;      // evaluated + pruned
  /// Warp traces the search's closure materialized and reduced: one per
  /// lane group (header: THE ORACLE), at most `classes`. A work counter,
  /// kept out of to_json() (the JSON is the same whichever way the
  /// classes were found).
  std::uint64_t traces_reduced = 0;
  /// Congestion classes the search's closure stored and scores each
  /// candidate against: one per congestion-equivalent group (header: THE
  /// ORACLE). A work counter, kept out of to_json() like traces_reduced.
  std::uint64_t classes_stored = 0;
  /// Certified per-site bounds under the winner (aligned with sites).
  std::vector<double> site_bounds;
  /// A class attaining the whole-kernel bound: its site, the binding,
  /// and the materialized warp trace (real in-bounds addresses) — replay
  /// it on the DMM to confirm the bound end to end.
  std::size_t witness_site = 0;
  std::vector<std::pair<std::string, std::uint64_t>> witness_binding;
  std::vector<std::uint64_t> witness_trace;
  /// The kernel's worst-warp bound under RAW, for quoting improvement:
  /// the all-zero member evaluated over the certificate's own closure
  /// (header: THE BASELINE). Exact when the coverage is; with sampled
  /// coverage it is RAW over the same sample, at most the RAW bound over
  /// every binding.
  double baseline_bound = 0.0;

  [[nodiscard]] std::string to_json() const;
};

/// Search the family for the kernel: build the class closure once, score
/// RAW (the baseline) and every generated candidate over it, and certify
/// the winner. Throws std::invalid_argument on an invalid kernel (with
/// analyze_kernel's text: the bounds check is any_out_of_bounds) or one
/// with out-of-bounds accesses (fix those first — remapping cannot
/// repair an OOB index).
[[nodiscard]] SynthesisResult synthesize_mapping(
    const KernelDesc& kernel, const SynthesisOptions& options = {});

/// Independently re-certify a (kernel, mapping) pair: rebuild the class
/// closure and evaluate the mapping over every class. This is the
/// auditor's half of the optimality witness — it shares no state with
/// the search. Same throwing contract as synthesize_mapping, plus
/// std::invalid_argument when the mapping's width differs from the
/// kernel's or the mapping is malformed (make_synth_map's check).
[[nodiscard]] CongestionCertificate certify_mapping(
    const KernelDesc& kernel, const SynthMapping& mapping);

}  // namespace rapsim::analyze
