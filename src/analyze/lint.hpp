// Kernel lint: diagnostics and fix-its on top of the symbolic passes
// (static analysis, pillar 3 — the user-facing layer).
//
// lint_kernel runs analyze_kernel under the scheme the kernel currently
// uses (RAW for an unprotected kernel) and turns each site's certificate
// into a diagnostic:
//
//   error    some binding addresses memory out of bounds
//   warning  a deterministic (exact) congestion > 1 is proven — the worst
//            warp serializes on a bank every single run
//   info     the site is conflict-free, or the scheme is randomized and
//            only an expected-value envelope applies
//
// Every warning carries the worst-warp witness (the binding and its
// materialized trace) and fix-it suggestions computed by re-running the
// passes under candidate repairs:
//
//   "apply PAD(+1)"     re-analyze under core::Scheme::kPad
//   "apply RAP"         re-analyze under core::Scheme::kRap
//   "swap loop order"   exchange the lane coefficient with a loop
//                       variable's (flat sites only) and re-analyze —
//                       the static cure when a transposed traversal is
//                       available
//
// A fix-it is only suggested when it provably lowers the site's bound;
// its detail quotes both bounds and the proof rule of the repaired form.
// The JSON rendering is checked by tests/contract.hpp; the
// rapsim-lint CLI (tools/rapsim_lint.cpp) drives this over the built-in
// kernel catalog and user kernels in the text format.

//
// With LintOptions::synthesize set, lint additionally runs the layout
// synthesizer (analyze/synth.hpp) and attaches a fourth repair:
//
//   "SYNTHESIZE"        apply the synthesized permute-shift mapping —
//                       suggested when its certified per-site bound beats
//                       the current one; the detail cites the certificate
//                       rule, the optimality witness, and quantifies the
//                       improvement over the best fixed fix-it above
//
// and the full SynthesisResult rides on the report (JSON: a "synthesis"
// block after the diagnostics).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analyze/kernelir.hpp"
#include "analyze/passes.hpp"
#include "analyze/race.hpp"
#include "analyze/synth.hpp"

namespace rapsim::analyze {

enum class Severity { kInfo, kWarning, kError };

[[nodiscard]] const char* severity_name(Severity severity) noexcept;

struct FixIt {
  std::string action;  // machine-actionable: "apply PAD(+1)", "apply RAP",
                       // "swap loop order"
  std::string detail;  // human-readable effect, with both bounds + rule
};

/// One diagnostic per access site (clean sites get an info entry so a
/// report always accounts for every site).
struct Diagnostic {
  Severity severity = Severity::kInfo;
  std::string site;
  AccessDir dir = AccessDir::kLoad;
  std::string message;
  SiteAnalysis analysis;       // certificate, witness, coverage, bounds
  std::vector<FixIt> fixits;   // empty for info diagnostics
};

struct LintReport {
  std::string kernel;
  std::uint32_t width = 0;
  std::uint64_t rows = 0;
  core::Scheme scheme = core::Scheme::kRaw;
  std::vector<Diagnostic> diagnostics;  // aligned with KernelDesc::sites
  CongestionCertificate worst;          // whole-kernel worst-site claim
  std::size_t worst_site = 0;
  /// Present when lint ran with LintOptions::synthesize (and the kernel
  /// was synthesizable — in bounds, width <= 64).
  std::optional<SynthesisResult> synthesis;
  /// Race verdict from the happens-before pass (analyze/race.hpp):
  /// present unless LintOptions::races was cleared. Every race finding
  /// is an ERROR; races->certificate carries the machine-checkable
  /// race-freedom proof when no pair can race.
  std::optional<RaceAnalysis> races;
  /// INSERT-BARRIER fix-its, aligned with races->findings. A fix-it is
  /// only attached when re-analysis of the repaired kernel proves the
  /// pair stops racing (and its detail says whether the whole kernel
  /// becomes certified race-free).
  std::vector<std::vector<FixIt>> race_fixits;

  /// No warnings, no errors, and no race findings: the kernel is
  /// certified conflict-free (or covered by an expected-value envelope)
  /// under its scheme.
  [[nodiscard]] bool clean() const noexcept;
  /// Highest severity present (race findings count as errors).
  [[nodiscard]] Severity severity() const noexcept;
};

struct LintOptions {
  /// Run the layout synthesizer and attach SYNTHESIZE fix-its + the
  /// SynthesisResult to the report.
  bool synthesize = false;
  SynthesisOptions synth;
  /// Run the static race verifier and attach the races block (with
  /// INSERT-BARRIER fix-its) to the report. On by default.
  bool races = true;
};

/// Lint a kernel as running under `scheme`. Throws std::invalid_argument
/// on an invalid kernel or unsupported scheme (same contract as
/// analyze_kernel).
[[nodiscard]] LintReport lint_kernel(const KernelDesc& kernel,
                                     core::Scheme scheme = core::Scheme::kRaw);

/// As above, with options. Synthesis is skipped (report.synthesis stays
/// empty) when the kernel is not synthesizable: out-of-bounds accesses,
/// no sites, or width > 64.
[[nodiscard]] LintReport lint_kernel(const KernelDesc& kernel,
                                     core::Scheme scheme,
                                     const LintOptions& options);

/// JSON document (schema: tests/contract.hpp / DESIGN.md).
[[nodiscard]] std::string lint_report_json(const LintReport& report);

/// Compiler-style human-readable rendering.
[[nodiscard]] std::string lint_report_text(const LintReport& report);

}  // namespace rapsim::analyze
