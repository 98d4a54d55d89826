// Kernel-IR extraction: re-describe a VM program as loop-nest IR
// (analyze/kernelir.hpp) so the symbolic prover, linter, synthesizer and
// race verifier apply to it with no per-workload glue.
//
// The extractor interprets the program SYMBOLICALLY: registers hold
// expression trees over {constants, lane, warp, loop counters}, counted
// loops whose bodies contain no barrier become kernel loop variables
// (bodies with barriers, or with register recurrences, are unrolled),
// and each ld/ldadd/ldmac/st/amo becomes an AccessSite: affine (kFlat)
// when the address tree normalizes to c0 + c_lane*lane + sum c_v*v;
// row/column (kRowCol) when it is such a sum plus a `(affine) mod w`
// column and/or a `w * ((affine) mod 2^k)` row, the diagonal indices of
// the DRDW transpose; an opaque callback otherwise. The opaque callback
// is the address tree compiled once into a flat step list and evaluated
// a warp at a time (analyze::OpaqueIndexFn): each step is dispatched
// once per call, over one value when it does not depend on the lane and
// over the whole lane vector when it does.
//
// Executing-warp attribution (the race verifier's input) is recovered
// from the mask discipline:
//   * no warp mask       -> every warp runs the site: site.warp = "warp",
//                           a loop variable whose value is the warp id
//   * mask (warp < K)    -> a fresh K-valued variable replaces `warp`
//   * mask (v == warp)   -> site.warp = v (v a bare loop variable)
//   * mask (expr == warp)-> congestion-sound (warp is substituted by
//                           expr), but the executor cannot be NAMED, so
//                           ExtractResult::complete turns false and race
//                           verdicts must not be claimed for the kernel.
// Lane activity from mask (lane < K) becomes the site's `lanes` prefix.
//
// Soundness caveats (DESIGN.md §15): extraction refuses programs it
// cannot model exactly — bz/bnz branches, unrecognized mask predicates,
// device-valued data in addresses — by throwing std::invalid_argument,
// so an ExtractResult that exists describes the SAME address set per
// barrier phase as the executor's lowering (pinned differentially by
// tests/vm_test.cpp). Multiplicity can differ — a loop whose body does
// not read its counter collapses to a zero-coefficient variable — but
// congestion and race verdicts are insensitive to repeats of an
// identical SIMD access.

#pragma once

#include <string>
#include <vector>

#include "analyze/kernelir.hpp"
#include "vm/isa.hpp"

namespace rapsim::vm {

struct ExtractResult {
  analyze::KernelDesc kernel;
  /// True when every site's executing warps are named in the IR; when
  /// false the congestion passes remain sound but race analysis must be
  /// skipped (the notes say which site lost attribution).
  bool complete = true;
  std::vector<std::string> notes;
};

/// Extract loop-nest IR from `program`. Throws std::invalid_argument
/// ("line N: ..." where a source position exists) when the program is
/// not extractable.
[[nodiscard]] ExtractResult extract_kernel(const Program& program);

}  // namespace rapsim::vm
