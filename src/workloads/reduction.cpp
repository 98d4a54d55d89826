#include "workloads/reduction.hpp"

#include "core/factory.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"

namespace rapsim::workloads {

const char* reduction_variant_name(ReductionVariant variant) noexcept {
  switch (variant) {
    case ReductionVariant::kInterleaved: return "interleaved";
    case ReductionVariant::kSequential: return "sequential";
  }
  return "?";
}

dmm::Kernel build_reduction_kernel(ReductionVariant variant, std::uint64_t n,
                                   std::uint32_t width) {
  return vm::lower_program(
             vm::assemble(vm::reduction_text(variant, n, width), width))
      .kernel;
}

ReductionReport run_reduction(ReductionVariant variant, core::Scheme scheme,
                              std::uint64_t n, std::uint32_t width,
                              std::uint32_t latency, std::uint64_t seed,
                              dmm::Trace* trace,
                              telemetry::RunTelemetry* telemetry) {
  const std::uint64_t rows = n / width;
  const auto map = core::make_matrix_map(scheme, width, rows, seed);
  dmm::Dmm machine(dmm::DmmConfig{width, latency}, *map);
  machine.set_telemetry(telemetry);

  // Values i + 1 so the expected sum n(n+1)/2 detects any dropped or
  // double-counted element.
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    machine.store(i, i + 1);
    expected += i + 1;
  }

  ReductionReport report;
  report.stats = machine.run(build_reduction_kernel(variant, n, width), trace);
  report.sum = machine.load(0);
  report.correct = report.sum == expected;
  return report;
}

}  // namespace rapsim::workloads
