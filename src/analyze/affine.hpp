// Affine classification of warp address streams (static analysis, pillar 1).
//
// The paper's Table I facts are not simulation artifacts: they are provable
// from the *form* of the access pattern alone. The prover in
// analyze/certificate.hpp fires symbolic rules on patterns of the shape
//
//   1-D:  a(t) = (base + stride * t) mod m            (flat affine)
//   2-D:  i(t) = row0 + row_step * t                  (matrix affine)
//         j(t) = (col0 + col_step * t) mod w
//
// where t is the thread lane (0-based position in the warp trace). The 2-D
// form is the native language of the MatrixMap schemes — contiguous access
// is (row_step, col_step) = (0, 1), stride access is (1, 0), diagonal
// access is (1, 1) — and it is checked first because it carries strictly
// more information (the prover needs the row trajectory to reason about
// the per-row rotations of RAS/RAP/PAD). Streams that fit neither form are
// rejected with a human-readable reason; the prover then falls back to
// direct closed-form bank evaluation (deterministic schemes) or the
// Theorem 2 envelope (randomized schemes).

#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace rapsim::analyze {

enum class AffineKind {
  kEmpty,      // zero addresses: nothing to dispatch
  kConstant,   // every thread touches the same address (CRCW merge)
  kAffine2d,   // (row0 + row_step*t, (col0 + col_step*t) mod w)
  kAffine1d,   // (base + stride*t) mod m
  kNotAffine,  // rejected; see `reason`
};

/// Result of classifying one warp trace. Only the fields of the matched
/// kind are meaningful; `describe()` renders the matched form.
struct AffineClass {
  AffineKind kind = AffineKind::kNotAffine;
  std::uint32_t width = 0;   // banks (the paper's w)
  std::uint64_t size = 0;    // addressable words (the modulus m)
  std::size_t threads = 0;   // trace length

  // kAffine1d: a(t) = (base + stride * t) mod size.
  std::uint64_t base = 0;
  std::uint64_t stride = 0;  // canonical representative in [0, size)

  // kAffine2d: rows are plain integers (no wrap), columns wrap mod width.
  std::uint64_t row0 = 0;
  std::uint64_t col0 = 0;
  std::int64_t row_step = 0;
  std::uint32_t col_step = 0;  // canonical representative in [0, width)

  std::string reason;  // non-empty iff kind == kNotAffine

  /// One-line rendering of the matched form, e.g.
  /// "2-D affine: (i, j)(t) = (3 + 1*t, (0 + 0*t) mod 32)".
  [[nodiscard]] std::string describe() const;
};

/// Classify the logical addresses one warp issues against a memory of
/// `width` banks and `size` words. Addresses must be < size (out-of-range
/// streams are rejected as not-affine with a reason, never thrown on —
/// the sanitizer, not the classifier, polices bounds).
[[nodiscard]] AffineClass classify_warp(std::span<const std::uint64_t> trace,
                                        std::uint32_t width,
                                        std::uint64_t size);

}  // namespace rapsim::analyze
