// Loop-nest kernel IR (static analysis, pillar 3).
//
// The per-warp prover (analyze/certificate.hpp) certifies ONE concrete
// address stream; the paper's claims are statements about every warp of a
// kernel across every loop iteration. This IR describes a kernel at that
// level: a set of bound loop variables (the warp index is just another
// variable) and shared-memory access sites whose indices are affine in
// {lane, loop vars, constants}. The symbolic passes (analyze/passes.hpp)
// then close over all bindings and certify the worst warp without
// enumerating the cross product.
//
// Three index forms cover the paper's kernels:
//
//   kFlat    addr(lane, vars) = c0 + c_lane*lane + sum c_v * v
//            (transpose reads/writes, matmul, reduction, Table IV axes)
//   kRowCol  addr = (row_base + (row_expr mod row_mod)) * w + col_expr mod w
//            with row_expr/col_expr affine; row_mod = 0 means no wrap.
//            (the diagonal DRDW transpose, whose row index wraps mod w)
//   kOpaque  an arbitrary callback binding -> one address per lane,
//            analyzed by bounded enumeration (bit-twiddled indexing such
//            as a bit-reversal permutation)
//
// PROGRAM ORDER (the race verifier's input, DESIGN.md §14): sites are an
// ordered statement list, and `barriers` marks the __syncthreads()
// positions between them. site_phase(s) counts the barriers at or before
// site s; two sites can only race when they share a phase. Which warp
// executes an instance is named per site: AccessSite::warp holds the
// loop variable that enumerates the executing warps (empty = the whole
// site runs in one warp), so the happens-before pass can distinguish
// cross-warp overlap (a race) from same-warp reuse (program order).
//
// A simple line-based text format (parse_kernel_text) lets users lint
// their own kernels without writing C++; the built-in kernels in
// tools/builtin_kernels.cpp are constructed directly.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace rapsim::analyze {

/// One bound loop variable; it takes the values 0, 1, ..., count-1. The
/// warp index of a multi-warp kernel is expressed as a LoopVar too
/// (conventionally named "warp").
struct LoopVar {
  std::string name;
  std::uint64_t count = 1;
};

/// Affine expression c0 + lane_coeff * lane + sum coeffs[v] * binding[v].
/// `coeffs` is indexed like KernelDesc::vars; missing trailing entries
/// are treated as zero.
struct AffineExpr {
  std::int64_t base = 0;
  std::int64_t lane_coeff = 0;
  std::vector<std::int64_t> coeffs;

  [[nodiscard]] std::int64_t coeff(std::size_t var) const noexcept {
    return var < coeffs.size() ? coeffs[var] : 0;
  }
  /// Value at a concrete (lane, binding).
  [[nodiscard]] std::int64_t eval(
      std::uint32_t lane, std::span<const std::uint64_t> binding) const;
  /// Human-readable rendering, e.g. "32 + 1*lane + 32*u".
  [[nodiscard]] std::string describe(
      const std::vector<LoopVar>& vars) const;
};

enum class AccessDir { kLoad, kStore, kAtomic };

[[nodiscard]] const char* access_dir_name(AccessDir dir) noexcept;

enum class IndexForm { kFlat, kRowCol, kOpaque };

/// Callback form for indices the affine language cannot express, called
/// once per warp: it fills addrs[t] with lane t's address for every
/// lane t < addrs.size() under `binding`. Each address must be a pure
/// function of (lane, binding); one call per warp lets an evaluator pay
/// its per-node dispatch once for all lanes (vm/extract.cpp compiles an
/// address tree into such a callback).
using OpaqueIndexFn = std::function<void(
    std::span<const std::uint64_t> binding, std::span<std::uint64_t> addrs)>;

/// One shared-memory access site of the kernel: every binding of the loop
/// variables issues one warp-instruction whose lane t touches the
/// address the index expressions give.
struct AccessSite {
  std::string name;              // e.g. "write B[j][i]"
  AccessDir dir = AccessDir::kLoad;
  IndexForm form = IndexForm::kFlat;
  std::uint32_t lanes = 0;       // active lanes per warp; 0 = full width
  /// Loop variable enumerating the warps that execute this site (its
  /// value IS the warp id), or empty when a single warp (id 0) runs
  /// every instance. Only the race pass consumes this — congestion is a
  /// per-warp-instruction property and never compares executors.
  std::string warp;

  AffineExpr flat;               // kFlat: the logical address

  AffineExpr row;                // kRowCol: row index (pre-wrap)
  AffineExpr col;                // kRowCol: column, reduced mod width
  std::uint64_t row_mod = 0;     // kRowCol: 0 = no wrap
  std::int64_t row_base = 0;     // kRowCol: added after the wrap

  OpaqueIndexFn opaque;          // kOpaque
};

/// A kernel: geometry (memory = rows x width, row-major), bound loop
/// variables, and the access sites in PROGRAM ORDER. The congestion
/// passes analyze sites independently (congestion is a per-warp-
/// instruction property); the race pass (analyze/race.hpp) additionally
/// consumes the order and the barrier positions.
struct KernelDesc {
  std::string name;
  std::uint32_t width = 32;      // banks / lanes per warp (the paper's w)
  std::uint64_t rows = 0;        // memory words = rows * width
  std::vector<LoopVar> vars;
  std::vector<AccessSite> sites;
  /// Barrier positions: value b means a block-wide barrier between
  /// sites[b-1] and sites[b] (b = 0 before the first site is legal but
  /// vacuous). Kept sorted; positions run over [0, sites.size()].
  std::vector<std::size_t> barriers;

  [[nodiscard]] std::uint64_t size() const noexcept {
    return rows * width;
  }
  /// Index of the named variable, or vars.size() when absent.
  [[nodiscard]] std::size_t var_index(std::string_view name) const noexcept;
  /// Total number of bindings (product of the trip counts; saturates).
  [[nodiscard]] std::uint64_t binding_count() const noexcept;

  /// Record a barrier after the sites pushed so far (descriptor-builder
  /// convenience, mirroring dmm::Kernel::push_barrier()).
  void add_barrier() { barriers.push_back(sites.size()); }
  /// Barrier interval of site `s`: the number of barriers at positions
  /// <= s. Sites race only within one phase.
  [[nodiscard]] std::size_t site_phase(std::size_t s) const noexcept;
  /// Total number of barrier intervals (barriers.size() + 1 when valid).
  [[nodiscard]] std::size_t num_phases() const noexcept;
};

/// Structural validation: positive geometry, lanes <= width, distinct var
/// and site names, non-zero trip counts, coefficient vectors no longer
/// than vars, opaque sites carrying a callback, warp attributes naming a
/// declared variable, and sorted in-range barrier positions. Returns
/// every violation (empty = valid); the passes throw
/// std::invalid_argument on the first one.
[[nodiscard]] std::vector<std::string> validate_kernel(
    const KernelDesc& kernel);

/// `value` mod `modulus` in [0, modulus), whatever the sign of `value`:
/// the residue an affine index reaches. `modulus` is nonzero and at most
/// INT64_MAX.
[[nodiscard]] inline std::uint64_t mod_pos(std::int64_t value,
                                           std::uint64_t modulus) noexcept {
  const auto m = static_cast<std::int64_t>(modulus);
  return static_cast<std::uint64_t>(((value % m) + m) % m);
}

/// Materialize the concrete warp trace of `site` under `binding` (one
/// value per kernel var, in order). Addresses are returned as signed
/// values so out-of-range expressions stay visible to the caller. Affine
/// sites evaluate the binding once and step per lane: O(vars + lanes).
[[nodiscard]] std::vector<std::int64_t> materialize_site(
    const KernelDesc& kernel, const AccessSite& site,
    std::span<const std::uint64_t> binding);

/// The same trace written into `trace` (resized to the lane count), so a
/// caller materializing many bindings reuses one buffer.
void materialize_site(const KernelDesc& kernel, const AccessSite& site,
                      std::span<const std::uint64_t> binding,
                      std::vector<std::int64_t>& trace);

/// Parse the lint text format (see DESIGN.md "rapsim-lint"):
///
///   kernel naive-transpose
///   width 32            # optional; defaults to `default_width`
///   rows 64
///   var u 32
///   site read-a  load  flat lane=1 u=32 warp=u
///   barrier             # __syncthreads() between the two sites
///   site write-b store flat lane=32 u=1 const=1024 warp=u
///   site write-d store row lane=1 u=1 mod=32 base=32 col lane=1
///
/// `warp=<var>` names the loop variable that enumerates the executing
/// warps (race analysis); a bare `barrier` line records a block-wide
/// barrier between the surrounding sites. Comments run from '#' to end
/// of line. Throws std::invalid_argument with a line number on
/// malformed input.
[[nodiscard]] KernelDesc parse_kernel_text(const std::string& text,
                                           std::uint32_t default_width = 32);

}  // namespace rapsim::analyze
