// Whole-kernel symbolic congestion passes (static analysis, pillar 3).
//
// For every access site of a KernelDesc, close over ALL bindings of the
// loop variables (warps included) and certify the worst one — without
// enumerating the binding cross product. Two facts make that possible:
//
//   1. INTERVAL: an affine index's minimum and maximum over a box of
//      bindings are attained at per-variable extremes, so out-of-bounds
//      accesses are decided in O(#vars).
//   2. STRIDE LATTICE: every scheme's bank function is periodic in the
//      flat address with period w^2 (RAW: a mod w; PAD: (a/w + a) mod w;
//      RAS/RAP: the shift depends on the row residue mod w and the
//      column). For a fixed site the lane stride is fixed, so two
//      bindings whose base addresses agree mod w^2 produce warp traces
//      with IDENTICAL bank behaviour — under every draw of a randomized
//      scheme. The reachable base residues form a small sumset computed
//      by dynamic programming over the loop variables (each variable
//      contributes at most period = w^2 / gcd(coeff, w^2) distinct
//      residues), and one representative binding per residue class is
//      proven with the per-warp rules of analyze/certificate.hpp.
//
// Sites the affine language cannot express (IndexForm::kOpaque) fall
// back to bounded enumeration of the bindings, deduplicated by trace;
// past kEnumerationCap bindings the pass samples deterministically and
// downgrades exact claims to expected-upper (never claims exhaustive
// coverage it does not have).
//
// The result reports, per site, the certificate of the worst binding,
// the binding itself (the "worst-warp witness"), and coverage metadata;
// per kernel, the worst site. tests/differential_kernel_test.cpp checks
// every built-in kernel description against the DMM simulator.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analyze/certificate.hpp"
#include "analyze/kernelir.hpp"
#include "core/mapping.hpp"

namespace rapsim::analyze {

/// How a site's bindings were covered.
enum class Coverage {
  kSymbolic,     // residue-lattice closure: exact over ALL bindings
  kEnumerated,   // every binding materialized (opaque sites, small nests)
  kSampled,      // binding count exceeded the cap; deterministic sample
};

[[nodiscard]] const char* coverage_name(Coverage coverage) noexcept;

/// Bindings past this product are sampled instead of enumerated (opaque
/// sites only — affine sites never enumerate the cross product).
inline constexpr std::uint64_t kEnumerationCap = 4096;

struct SiteAnalysis {
  std::string site;                 // AccessSite::name
  AccessDir dir = AccessDir::kLoad;
  CongestionCertificate cert;       // worst binding's certificate
  /// The binding attaining the worst bound: one (variable, value) pair
  /// per kernel loop variable, in declaration order.
  std::vector<std::pair<std::string, std::uint64_t>> witness;
  std::vector<std::uint64_t> witness_trace;  // that binding's warp trace
  Coverage coverage = Coverage::kSymbolic;
  std::uint64_t binding_count = 0;     // bindings closed over
  std::uint64_t classes_analyzed = 0;  // residue classes / distinct traces
  bool out_of_bounds = false;          // some binding leaves the memory
  std::int64_t address_low = 0;        // address interval (diagnostics)
  std::int64_t address_high = 0;
};

struct KernelAnalysis {
  std::string kernel;
  std::uint32_t width = 0;
  std::uint64_t rows = 0;
  core::Scheme scheme = core::Scheme::kRaw;
  std::vector<SiteAnalysis> sites;      // aligned with KernelDesc::sites
  /// Worst site's certificate; exact only if every site's is (a max of
  /// expected bounds is itself only an expected claim — the same
  /// convention as prove_worst_warp).
  CongestionCertificate worst;
  std::size_t worst_site = 0;
  bool any_out_of_bounds = false;
};

/// Analyze one site. Throws std::invalid_argument on an invalid kernel
/// or an unsupported scheme (the passes cover the 2-D family:
/// kRaw, kPad, kRas, kRap).
[[nodiscard]] SiteAnalysis analyze_site(const KernelDesc& kernel,
                                        const AccessSite& site,
                                        core::Scheme scheme);

/// Analyze every site and aggregate the whole-kernel worst-warp claim.
[[nodiscard]] KernelAnalysis analyze_kernel(const KernelDesc& kernel,
                                            core::Scheme scheme);

/// analyze_kernel(kernel, scheme).any_out_of_bounds for any scheme,
/// decided as the analysis decides it per site (the interval pass for
/// symbolic sites, the same sampled enumeration for the rest) but
/// without proving congestion. Throws exactly as analyze_kernel does on
/// an invalid kernel.
[[nodiscard]] bool any_out_of_bounds(const KernelDesc& kernel);

/// Materialize up to `max_traces` distinct in-bounds warp traces across
/// the kernel's sites (one per residue class for affine sites, the worst
/// witness for opaque ones). This is the bridge to trace-based consumers:
/// the advisor scores these traces against concrete mappings while the
/// passes certify the closure they were drawn from.
[[nodiscard]] std::vector<std::vector<std::uint64_t>> enumerate_warp_traces(
    const KernelDesc& kernel, std::size_t max_traces = 256);

}  // namespace rapsim::analyze
