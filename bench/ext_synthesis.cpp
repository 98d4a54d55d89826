// Extension experiment: the layout synthesizer (analyze/synth.hpp) over
// the built-in kernel catalog.
//
// Each kernel gets a full family search (closure build, candidate
// generation, evaluation, greedy repair, witness), and certify_mapping
// then audits every winner. The per-kernel table reports the searched
// bound, witness kind, class and candidate counts; it is deterministic
// and pinned by results/ext_synthesis.txt. Search and audit speed are
// rapbench's synth-catalog workload (analyze.synthesize_ms,
// analyze.certify_ms).
//
//   $ ext_synthesis [--width=32] [--draws=48] [--format=ascii|markdown|csv]
//
// The bench doubles as a soundness check: it exits 1 if any audit
// disagrees with its search bound, so the ctest entry
// (synthesis_bench_sound) guards correctness.

#include <cstdint>
#include <iostream>
#include <vector>

#include "analyze/synth.hpp"
#include "builtin_kernels.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rapsim;
  const util::CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  analyze::SynthesisOptions options;
  options.random_draws = args.get_uint("draws", 48);

  const std::vector<analyze::KernelDesc> catalog =
      tools::builtin_kernels(width);

  // One search per kernel, audited, then tabulated.
  std::vector<analyze::SynthesisResult> results;
  results.reserve(catalog.size());
  for (const analyze::KernelDesc& kernel : catalog) {
    results.push_back(analyze::synthesize_mapping(kernel, options));
  }
  std::uint64_t audit_failures = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const analyze::CongestionCertificate audit =
        analyze::certify_mapping(catalog[i], results[i].mapping);
    if (audit.bound != results[i].certificate.bound) {
      std::cerr << "ext_synthesis: audit disagrees on " << catalog[i].name
                << ": searched " << results[i].certificate.bound
                << " vs audited " << audit.bound << "\n";
      ++audit_failures;
    }
  }
  if (audit_failures > 0) return 1;

  util::TextTable table;
  table.row()
      .add("kernel")
      .add("bound")
      .add("witness")
      .add("classes")
      .add("candidates");
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    table.row()
        .add(catalog[i].name)
        .add(results[i].certificate.bound, 0)
        .add(analyze::witness_kind_name(results[i].witness.kind))
        .add(results[i].classes)
        .add(results[i].candidates);
  }
  table.print(std::cout, args.get_table_style());
  return 0;
}
