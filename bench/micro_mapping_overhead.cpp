// google-benchmark micro benchmarks: the host-side cost of the address
// computations each scheme adds, plus simulator throughput.
//
// These measurements back the SM timing model's t_addr ordering
// (RAW < RAP < RAS): RAP's shift is a packed-register extract + add +
// mask; RAS needs a table lookup per row (which on the GPU spills to
// shared memory for large row counts). Absolute host numbers are not GPU
// numbers — only the ordering and rough ratios carry over. rapbench
// measures the translate and map-build costs (core.translate_ns,
// core.make_map_ns).

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "core/permutation.hpp"
#include "gpu/register_pack.hpp"
#include "telemetry/run_telemetry.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

namespace {

using namespace rapsim;

/// The next logical address of a sweep over the whole map. A wrap branch,
/// not a `%`: a runtime division per step would cost as much as the
/// translate being timed.
std::uint64_t next_address(std::uint64_t a, std::uint64_t size) {
  return ++a == size ? 0 : a;
}

/// physical[k] = map.translate(logical[k]) for each lane k of a warp.
void translate_warp(const core::AddressMap& map,
                    std::span<const std::uint64_t> logical,
                    std::span<std::uint64_t> physical) {
  for (std::size_t k = 0; k < logical.size(); ++k) {
    physical[k] = map.translate(logical[k]);
  }
}

void BM_Translate(benchmark::State& state, core::Scheme scheme) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  const auto map = core::make_matrix_map(scheme, w, w, 1);
  std::uint64_t a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map->translate(a));
    a = next_address(a, map->size());
  }
}
BENCHMARK_CAPTURE(BM_Translate, Raw, core::Scheme::kRaw)->Arg(32)->Arg(256);
BENCHMARK_CAPTURE(BM_Translate, Ras, core::Scheme::kRas)->Arg(32)->Arg(256);
BENCHMARK_CAPTURE(BM_Translate, Rap, core::Scheme::kRap)->Arg(32)->Arg(256);

/// One warp of w consecutive logical addresses per iteration, translated
/// lane by lane (the loop the congestion tally runs), sweeping the whole
/// map.
void BM_TranslateWarp(benchmark::State& state, core::Scheme scheme) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  const auto map = core::make_matrix_map(scheme, w, w, 1);
  std::vector<std::uint64_t> logical(map->size());
  for (std::uint64_t a = 0; a < logical.size(); ++a) logical[a] = a;
  std::vector<std::uint64_t> physical(w);
  std::uint64_t row = 0;
  for (auto _ : state) {
    translate_warp(*map, std::span(logical).subspan(row * w, w), physical);
    benchmark::DoNotOptimize(physical.data());
    benchmark::ClobberMemory();
    row = next_address(row, w);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * w);
}
BENCHMARK_CAPTURE(BM_TranslateWarp, Raw, core::Scheme::kRaw)->Arg(32)->Arg(256);
BENCHMARK_CAPTURE(BM_TranslateWarp, Ras, core::Scheme::kRas)->Arg(32)->Arg(256);
BENCHMARK_CAPTURE(BM_TranslateWarp, Rap, core::Scheme::kRap)->Arg(32)->Arg(256);

// The inner RAP shift exactly as the CUDA kernel computes it: packed
// extract + add + mask (Figure 7's expression).
void BM_PackedShiftExtract(benchmark::State& state) {
  util::Pcg32 rng(1);
  const auto perm = core::Permutation::random(32, rng);
  std::vector<std::uint32_t> shifts(perm.image().begin(), perm.image().end());
  const gpu::PackedShifts packed(shifts, 32);
  std::uint32_t i = 0, j = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((j + packed.get(i)) & 0x1f);
    i = (i + 1) & 31;
    j = (j + 7) & 31;
  }
}
BENCHMARK(BM_PackedShiftExtract);

void BM_PermutationDraw(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  util::Pcg32 rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Permutation::random(w, rng));
  }
}
BENCHMARK(BM_PermutationDraw)->Arg(32)->Arg(256);

void BM_CongestionOfWarp(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  const auto map = core::make_matrix_map(core::Scheme::kRap, w, w, 1);
  util::Pcg32 rng(3);
  std::vector<std::uint64_t> addrs(w);
  for (auto& a : addrs) a = rng.bounded(w * w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::congestion_value(addrs, *map));
  }
}
BENCHMARK(BM_CongestionOfWarp)->Arg(32)->Arg(256);

void BM_DmmTransposeRun(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  const workloads::Workload crsw =
      workloads::workload_program("transpose-crsw", w);
  const vm::LoweredProgram program =
      vm::lower_program(vm::assemble(crsw.text, w));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workloads::run_program(
        program, crsw.reference, core::Scheme::kRap, 1, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * w *
                          w);
}
BENCHMARK(BM_DmmTransposeRun)->Arg(8)->Arg(32);

// Telemetry overhead check: the same pre-constructed machine run with and
// without a RunTelemetry sink (second arg 0 = null sink, 1 = instrumented).
// The null-sink run takes one predictable branch per event and must stay
// within noise of the pre-telemetry machine; the instrumented run should
// cost only a few percent more.
void BM_DmmTransposeRunTelemetry(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  const bool instrumented = state.range(1) != 0;
  const workloads::Workload crsw =
      workloads::workload_program("transpose-crsw", w);
  const vm::LoweredProgram program =
      vm::lower_program(vm::assemble(crsw.text, w));
  const auto map =
      core::make_matrix_map(core::Scheme::kRap, w, program.rows, 1);
  dmm::Dmm machine(dmm::DmmConfig{w, 1}, *map);
  telemetry::RunTelemetry sink;
  machine.set_telemetry(instrumented ? &sink : nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        workloads::run_program(program, crsw.reference, machine, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * w *
                          w);
}
BENCHMARK(BM_DmmTransposeRunTelemetry)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({32, 0})
    ->Args({32, 1});

}  // namespace

BENCHMARK_MAIN();
