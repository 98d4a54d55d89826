// Deterministic allocation gates for the warp-access hot path and the
// static analyzer's class closure. Heap
// allocations are counted by a replacement global operator new that only
// this test executable links, so the counts are exact and repeat on every
// machine, unlike wall time.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "access/montecarlo.hpp"
#include "analyze/passes.hpp"
#include "analyze/synth.hpp"
#include "builtin_kernels.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "hier/hier.hpp"
#include "replay/replay.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/suite.hpp"

namespace {

// Monte-Carlo workers allocate too, so the counters are shared.
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment,
                                   rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

// These deletes pair with the news above, which allocate with malloc; GCC
// sees only the free() once a delete is inlined next to a new-expression.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace rapsim {
namespace {

/// Allocations made while running `fn`.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

/// Bytes requested from operator new while running `fn`.
template <typename Fn>
std::uint64_t bytes_allocated_during(Fn&& fn) {
  const std::uint64_t before = g_allocated_bytes.load();
  fn();
  return g_allocated_bytes.load() - before;
}

TEST(AllocGate, CountingOperatorNewIsLinked) {
  std::unique_ptr<std::uint64_t> kept;  // outlives the count: not elided
  EXPECT_EQ(allocations_during(
                [&] { kept = std::make_unique<std::uint64_t>(7); }),
            1u);
  EXPECT_EQ(*kept, 7u);
}

/// Two warps of w lanes: merged loads, a CRCW store race, atomics, a
/// register-only op and a warp with idle lanes.
dmm::Kernel mixed_kernel(std::uint32_t w) {
  dmm::Kernel kernel;
  kernel.num_threads = 2 * w;
  dmm::Row loads(kernel.num_threads);
  dmm::Row stores(kernel.num_threads);
  dmm::Row atomics(kernel.num_threads);
  dmm::Row minmax(kernel.num_threads);
  dmm::Row sparse(kernel.num_threads, dmm::ThreadOp::none());
  for (std::uint32_t t = 0; t < kernel.num_threads; ++t) {
    loads[t] = dmm::ThreadOp::load((t * 7) % (w * w / 2));
    stores[t] = dmm::ThreadOp::store_imm((t / 2) * w, t);
    atomics[t] = dmm::ThreadOp::atomic_add(t % 5);
    minmax[t] = dmm::ThreadOp::min_max(0, 1);
    if (t % 3 == 0) sparse[t] = dmm::ThreadOp::load(t);
  }
  kernel.push(loads);
  kernel.push(stores);
  kernel.push(atomics);
  kernel.push(minmax);
  kernel.push(sparse);
  return kernel;
}

/// An access-capture sink that keeps nothing, so every allocation the
/// gate sees is the machine's own.
class NullCapture final : public dmm::AccessCapture {
 public:
  void begin_kernel(std::uint32_t, std::uint32_t, std::uint64_t) override {}
  void on_warp_access(std::uint32_t, std::uint32_t, dmm::CapturedOpClass,
                      std::uint64_t, std::span<const std::uint64_t>) override {
  }
  void on_barrier(std::uint32_t) override {}
};

TEST(AllocGate, DmmWarpAccessAllocatesOnlyOnItsFirstCall) {
  // With a capture installed, the machine used to build a std::vector of
  // logical addresses on every memory access: 24 allocations over these
  // three passes (8 memory accesses each).
  NullCapture null_capture;
  for (dmm::AccessCapture* capture :
       {static_cast<dmm::AccessCapture*>(nullptr),
        static_cast<dmm::AccessCapture*>(&null_capture)}) {
    for (const dmm::MachineKind kind :
         {dmm::MachineKind::kDmm, dmm::MachineKind::kUmm}) {
      for (const std::uint32_t w : {4u, 32u, 64u}) {
        const auto map = core::make_matrix_map(core::Scheme::kRap, w, w, 3);
        dmm::Dmm machine(dmm::DmmConfig{w, 2, kind}, *map);
        machine.set_capture(capture);
        const dmm::Kernel kernel = mixed_kernel(w);
        machine.begin_run(kernel);
        // One source per pass, built before counting: a source allocates
        // its step lists once, at construction.
        std::vector<dmm::KernelWarpSource> passes(
            4, dmm::KernelWarpSource(machine, kernel));
        (void)passes[0].issue(0);
        const std::uint64_t allocs = allocations_during([&] {
          for (int run = 1; run < 4; ++run) {
            for (std::uint32_t warp = 0; warp < 2; ++warp) {
              for (dmm::KernelWarpSource& source = passes[run];
                   !source.done(warp); source.advance(warp)) {
                (void)source.issue(warp);
              }
            }
          }
        });
        EXPECT_EQ(allocs, 0u)
            << "w=" << w << " umm=" << (kind == dmm::MachineKind::kUmm)
            << " capture=" << (capture != nullptr);
      }
    }
  }
}

/// The bitonic sorting network lowered at w = 32, and its capture.
struct BitonicCapture {
  vm::LoweredProgram lowered;
  replay::AccessTrace trace;
};

const BitonicCapture& bitonic_capture() {
  static const BitonicCapture capture = [] {
    BitonicCapture c;
    c.lowered = vm::lower_program(
        vm::assemble(vm::suite_program("vm-bitonic", 32).text, 32));
    const auto map =
        core::make_matrix_map(core::Scheme::kRaw, 32, c.lowered.rows, 0);
    dmm::Dmm recorder(dmm::DmmConfig{32, 2}, *map);
    c.trace = replay::capture_run(recorder, c.lowered.kernel);
    return c;
  }();
  return capture;
}

TEST(AllocGate, TraceValidationAllocatesPerTableGrowthNotPerRecord) {
  // The bitonic capture: thousands of records, valid throughout. The
  // validator's one open-addressing table is sized once from the record
  // count; grown by doubling from 64 slots it took 10 allocations.
  const replay::AccessTrace& trace = bitonic_capture().trace;
  ASSERT_GT(trace.records.size(), 9000u);
  EXPECT_LE(allocations_during([&] { trace.validate(); }), 2u);
}

TEST(AllocGate, BinaryTraceDecodeAllocatesOncePerAddressRecord) {
  // Decoding allocates each address record's vector and moves it into
  // the trace; the rest (the record array's growth, the validator's
  // table) is logarithmic. Copying each record out of the reader made
  // two allocations per address record: 14,426 for this capture.
  const replay::AccessTrace& trace = bitonic_capture().trace;
  const std::string bytes = replay::to_binary(trace);
  const auto address_records = static_cast<std::uint64_t>(std::count_if(
      trace.records.begin(), trace.records.end(),
      [](const replay::TraceRecord& record) { return !record.addrs.empty(); }));
  ASSERT_GT(address_records, 7000u);
  replay::AccessTrace decoded;
  const std::uint64_t allocs = allocations_during(
      [&] { decoded = replay::parse_trace(bytes); });
  EXPECT_EQ(decoded, trace);
  EXPECT_LE(allocs, address_records + 32);
}

TEST(AllocGate, TraceAboveTheOpCapIsRejectedBeforeItAllocates) {
  // 747 bytes of text whose 64 barriers over 2^20 threads would lower to
  // 2^26 ops (about 1.9 GB). The parser stops at the 33rd barrier having
  // allocated only per-line scratch and the validator's table.
  std::string text =
      "rapsim-trace v1\nwidth 64\nthreads 1048576\nsize 64\n";
  for (int i = 0; i < 64; ++i) text += "barrier " + std::to_string(i) + "\n";
  text += "end\n";
  std::uint64_t allocs = 0;
  const std::uint64_t bytes = bytes_allocated_during([&] {
    allocs = allocations_during([&] {
      EXPECT_THROW((void)replay::parse_trace(text), std::invalid_argument);
    });
  });
  EXPECT_LT(allocs, 200u);
  EXPECT_LT(bytes, std::uint64_t{64} << 10);
}

TEST(AllocGate, ReplayLoweringAllocationsDoNotGrowWithInstructions) {
  // Lowering builds the kernel's sparse store straight from the lane
  // masks: a fixed number of arrays, however many instructions. The
  // dense-row lowering made 4,549 allocations for this trace, about one
  // per instruction.
  const replay::AccessTrace& trace = bitonic_capture().trace;
  dmm::Kernel kernel;
  const std::uint64_t allocs =
      allocations_during([&] { kernel = replay::lower_to_kernel(trace); });
  ASSERT_GT(kernel.instructions.size(), 4000u);
  EXPECT_LT(allocs, 32u);
}

TEST(AllocGate, ReplayBuildsNoKernelStore) {
  // replay_trace of the bitonic capture (9,035 records, 7,200 memory
  // dispatches) runs the decoded records directly and moves no data.
  // Measured: 27 allocations, 14 of them the dispatch trace growing by
  // doubling, and 1,219,308 bytes: 524,288 for the validator's table,
  // 36,596 for the step index, 655,320 for the dispatch trace. A memory
  // image (2,048 B here), a register file (4,096 B) or a lowered kernel
  // store would push the bytes over the bound.
  const BitonicCapture& capture = bitonic_capture();
  const auto map =
      core::make_matrix_map(core::Scheme::kRap, 32, capture.lowered.rows, 1);
  std::uint64_t allocs = 0;
  std::size_t dispatches = 0;
  const std::uint64_t bytes = bytes_allocated_during([&] {
    allocs = allocations_during([&] {
      dispatches = replay::replay_trace(capture.trace, *map)
                       .dispatches.dispatches.size();
    });
  });
  ASSERT_EQ(dispatches, 7200u);
  // Capacities 1, 2, 4, ..., 8192.
  const auto growth =
      static_cast<std::uint64_t>(std::bit_width(dispatches)) + 1;
  EXPECT_LE(allocs, 13u + growth);
  EXPECT_LE(bytes, 1'219'308u);
}

TEST(AllocGate, ReplayAllocatesNoMemoryImage) {
  // A replay moves no data, so its heap bytes do not depend on how large
  // the machine's memory is. A zeroed image would cost 8 B per word of
  // the map: about 32 MB more under the 2^22-word map.
  const BitonicCapture& capture = bitonic_capture();
  const auto fitted =
      core::make_matrix_map(core::Scheme::kRap, 32, capture.lowered.rows, 1);
  const auto large = core::make_matrix_map(
      core::Scheme::kRap, 32, (std::uint64_t{1} << 22) / 32, 1);
  ASSERT_EQ(fitted->size(), 256u);
  ASSERT_EQ(large->size(), std::uint64_t{1} << 22);
  const auto replay_bytes = [&](const core::AddressMap& map) {
    return bytes_allocated_during(
        [&] { (void)replay::replay_trace(capture.trace, map); });
  };
  const std::uint64_t fitted_bytes = replay_bytes(*fitted);
  EXPECT_EQ(replay_bytes(*large), fitted_bytes);
}

TEST(AllocGate, VmLoweringAllocationsDoNotGrowWithInstructions) {
  // Lowering appends each instruction's active ops to the sparse store
  // and builds the kernel once: the arrays grow by doubling, and the
  // interpreter keeps its registers and scratch in one buffer and its
  // masks in another, reused across instructions (66 allocations here;
  // the per-lane interpreter made 67). Filling a dense row plus scratch
  // vectors per instruction made 16,028.
  const vm::Program program =
      vm::assemble(vm::suite_program("vm-bitonic", 32).text, 32);
  vm::LoweredProgram lowered;
  const std::uint64_t allocs =
      allocations_during([&] { lowered = vm::lower_program(program); });
  ASSERT_GT(lowered.kernel.instructions.size(), 4000u);
  EXPECT_LE(allocs, 66u);
}

TEST(AllocGate, VmLoweringEvaluatesUniformValuesOnce) {
  // vm-bitonic at w = 32: 128 threads, 15,625 interpreter steps, of which
  // the li/mov/ALU steps cost a per-thread interpreter 1,230,208 values.
  // Loop counters and the arithmetic on them stay block-uniform (one
  // value each), and under a mask a per-lane result is computed in the
  // active threads only. Measured: 39,560 values.
  const vm::Program program =
      vm::assemble(vm::suite_program("vm-bitonic", 32).text, 32);
  const vm::LoweredProgram lowered = vm::lower_program(program);
  ASSERT_EQ(lowered.steps, 15'625u);
  EXPECT_LE(lowered.alu_lane_evaluations, 39'560u);
}

TEST(AllocGate, HierSimRunAllocationsStayAtTheDenseRowCount) {
  // vm-bitonic at w = 32 on the hot memory path (4-line L1, 2 MSHRs).
  // Per-run set-up (the per-SM sources, cores and caches) must not grow
  // beyond what the dense-row machine allocated over these nine runs.
  const vm::LoweredProgram& lowered = bitonic_capture().lowered;
  const auto map =
      core::make_matrix_map(core::Scheme::kRap, 32, lowered.rows, 1);
  std::uint64_t allocs = 0;
  std::uint64_t dispatches = 0;
  for (const std::uint32_t sms : {1u, 2u, 4u}) {
    for (const char* scheduler : {"roundrobin", "gto", "dwr"}) {
      hier::HierConfig config;
      config.sms = sms;
      config.width = 32;
      config.scheduler = scheduler;
      config.path = hier::PathParams::defaults();
      config.path.l1.lines = 4;
      config.path.mshrs = 2;
      hier::HierSim sim(config, *map);
      (void)sim.run(lowered.kernel, core::Scheme::kRap);  // warm-up
      allocs += allocations_during([&] {
        dispatches += sim.run(lowered.kernel, core::Scheme::kRap).dispatches;
      });
    }
  }
  ASSERT_GT(dispatches, 0u);
  EXPECT_LE(allocs, 6975u) << "dense rows: 6,975 over 151,200 dispatches";
}

TEST(AllocGate, CongestionValueDoesNotAllocateUpToWidth256) {
  // The thread's scratch is sized by its first warp of 256 lanes.
  const auto big = core::make_matrix_map(core::Scheme::kRap, 256, 256, 1);
  (void)core::congestion_value(std::vector<std::uint64_t>(256, 0), *big);
  for (const std::uint32_t w : {1u, 16u, 24u, 32u, 64u, 128u, 256u}) {
    for (const core::Scheme scheme :
         {core::Scheme::kRaw, core::Scheme::kRas, core::Scheme::kRap}) {
      const auto map = core::make_matrix_map(scheme, w, w, 5);
      std::vector<std::uint64_t> addrs(w);
      for (std::uint32_t t = 0; t < w; ++t) addrs[t] = t * w + (t * t) % w;
      EXPECT_EQ(allocations_during(
                    [&] { (void)core::congestion_value(addrs, *map); }),
                0u)
          << core::scheme_name(scheme) << " w=" << w;
    }
  }
}

TEST(AllocGate, Estimate2dAllocationsDoNotGrowWithTrials) {
  // One-time set-up (function statics) happens outside the counted runs.
  (void)access::estimate_congestion_2d(core::Scheme::kRap,
                                       access::Pattern2d::kRandom, 32, 100, 9);
  for (const core::Scheme scheme : core::table2_schemes()) {
    for (const access::Pattern2d pattern :
         {access::Pattern2d::kContiguous, access::Pattern2d::kStride,
          access::Pattern2d::kDiagonal, access::Pattern2d::kRandom,
          access::Pattern2d::kMalicious}) {
      const auto run = [&](std::uint64_t trials) {
        return allocations_during([&] {
          (void)access::estimate_congestion_2d(scheme, pattern, 32, trials, 9);
        });
      };
      EXPECT_EQ(run(2000), run(20000))
          << core::scheme_name(scheme) << " "
          << access::pattern2d_name(pattern);
    }
  }
}

TEST(AllocGate, Estimate4dAllocationsDoNotGrowWithTrials) {
  (void)access::estimate_congestion_4d(core::Scheme::kRap3P,
                                       access::Pattern4d::kRandom, 16, 100, 9);
  for (const core::Scheme scheme : core::table4_schemes()) {
    const auto run = [&](std::uint64_t trials) {
      return allocations_during([&] {
        (void)access::estimate_congestion_4d(
            scheme, access::Pattern4d::kRandom, 16, trials, 9);
      });
    };
    EXPECT_EQ(run(200), run(2000)) << core::scheme_name(scheme);
  }
}

TEST(AllocGate, RawAnalyzeKernelOnBitonic) {
  // 144 sites x 115 loop variables, almost all of zero stride at a given
  // site. The dense residue sweep copied every reached binding once per
  // variable: 1,031,745 allocations per call. The sparse sweep skips the
  // zero-stride variables and materializes into reused buffers (26,701
  // with libstdc++ 12); the gate leaves room for other libraries.
  const analyze::KernelDesc kernel = tools::builtin_kernel("bitonic", 32);
  const std::uint64_t allocs = allocations_during(
      [&] { (void)analyze::analyze_kernel(kernel, core::Scheme::kRaw); });
  EXPECT_LT(allocs, 40000u) << "before the sparse residue sweep: 1,031,745";
}

TEST(AllocGate, SynthesisClosureAllocationsPerClass) {
  // tensor4d-stride3 at w = 32: 32,768 classes per closure, built once by
  // the search and once, independently, by the audit. Before the
  // allocation-free ingest: 557,470 allocations for the 2 x 32,768
  // classes seen (8.5 per class). Then the ingest allocated only for the
  // classes it stored, only one trace per lane-uniform group was reduced,
  // and the residue DP and the class dedupe indexed flat vectors instead
  // of node-based hash maps: 8,390 allocations, 0.128 per class seen (a
  // node map per DP sweep and a RAW prover pass took it to 14,642). Now
  // the uniform key digits fold, so the closure stores one class, in
  // one arena, and the candidates are generated as they are scored: 142
  // allocations with libstdc++ 12, 0.00217 per class seen.
  const analyze::KernelDesc kernel =
      tools::builtin_kernel("tensor4d-stride3", 32);
  analyze::SynthesisResult result;
  const std::uint64_t allocs = allocations_during([&] {
    result = analyze::synthesize_mapping(kernel);
    (void)analyze::certify_mapping(kernel, result.mapping);
  });
  ASSERT_EQ(result.classes, 32768u);
  const double per_class =
      static_cast<double>(allocs) / static_cast<double>(2 * result.classes);
  EXPECT_LE(per_class, 0.00217)
      << allocs << " allocations; before the allocation-free ingest: 557,470";
}

TEST(AllocGate, SynthesisClosureReducesOneTracePerLaneUniformGroup) {
  // The closure still counts every class, but materializes and reduces
  // one warp trace per lane group (analyze/synth.hpp, THE ORACLE). Each
  // tensor4d-stride closure's 32,768 classes at w = 32 share one group:
  // every lane keeps the key digits below the stride, and no loop
  // variable moves lane 0's stride digit off 0, so no lane carries. The catalog
  // reduced 141,753 traces when every class was reduced, 4,569 with
  // separate carry-free and column-uniform rules (1,024 per stride
  // kernel), and 859 with the windowed rule.
  for (const char* name :
       {"tensor4d-stride1", "tensor4d-stride2", "tensor4d-stride3"}) {
    const analyze::SynthesisResult stride = analyze::synthesize_mapping(
        tools::builtin_kernel(name, 32));
    EXPECT_EQ(stride.classes, 32768u) << name;
    EXPECT_EQ(stride.traces_reduced, 1u) << name;
  }

  std::uint64_t classes = 0;
  std::uint64_t traces = 0;
  for (const analyze::KernelDesc& kernel : tools::builtin_kernels(32)) {
    const analyze::SynthesisResult result =
        analyze::synthesize_mapping(kernel);
    EXPECT_LE(result.traces_reduced, result.classes) << kernel.name;
    classes += result.classes;
    traces += result.traces_reduced;
  }
  EXPECT_EQ(classes, 141753u);
  EXPECT_LE(traces, 859u);
}

TEST(AllocGate, SynthesisCatalogPassAllocations) {
  // One w = 32 catalog pass, each kernel searched and then audited: the
  // unit of the synth-catalog benchmark. 107,015 allocations while the
  // search ran the RAW prover for its baseline and its residue DP and
  // class dedupe were node-based hash maps; 45,679 with libstdc++ 12
  // while every class allocated its own entries, sites and binding and
  // every search built its whole candidate list up front; 5,494 since
  // the classes live in one arena and the candidates are generated as
  // they are scored.
  const std::vector<analyze::KernelDesc> catalog = tools::builtin_kernels(32);
  const std::uint64_t allocs = allocations_during([&] {
    for (const analyze::KernelDesc& kernel : catalog) {
      const analyze::SynthesisResult result =
          analyze::synthesize_mapping(kernel);
      (void)analyze::certify_mapping(kernel, result.mapping);
    }
  });
  EXPECT_LE(allocs, 5494u);
}

TEST(AllocGate, SynthesisStoresEachCongestionClassOnce) {
  // A key digit shared by every entry of a class adds one table term to
  // every bank under every member, so it folds like the column
  // (analyze/synth.hpp, THE ORACLE). Each tensor4d-stride closure at
  // w = 32 stored 1,024 such classes before, and the catalog 3,148.
  for (const char* name :
       {"tensor4d-stride1", "tensor4d-stride2", "tensor4d-stride3"}) {
    EXPECT_EQ(analyze::synthesize_mapping(tools::builtin_kernel(name, 32))
                  .classes_stored,
              1u)
        << name;
  }
  std::uint64_t stored = 0;
  for (const analyze::KernelDesc& kernel : tools::builtin_kernels(32)) {
    stored += analyze::synthesize_mapping(kernel).classes_stored;
  }
  EXPECT_LE(stored, 60u);
}

TEST(AllocGate, SynthesisCandidateMemoryDoesNotGrowWithDraws) {
  // The search draws each candidate as it scores it, so the draw count
  // bounds the work, never the memory: every search below stops at its
  // floor after a few candidates, whatever the family size. Building the
  // candidate list up front materialized 2 x draws mappings.
  for (const char* name : {"transpose-crsw", "tensor4d-stride3", "bitonic"}) {
    const analyze::KernelDesc kernel = tools::builtin_kernel(name, 32);
    const auto run = [&](std::uint64_t draws) {
      analyze::SynthesisOptions options;
      options.random_draws = draws;
      return allocations_during(
          [&] { (void)analyze::synthesize_mapping(kernel, options); });
    };
    EXPECT_EQ(run(48), run(std::uint64_t{1} << 40)) << name;
  }
}

TEST(AllocGate, WrappedSiteKeyIndexFollowsTheReachedStates) {
  // A wrapped row/col site over 2^40 + 3 rows: its residue keys span
  // row_mod * w = 2^45 + 96 values, but the 64 x 48 bindings reach at
  // most 3,072 of them. The DP's key index is sized from the states a
  // sweep can reach, so the bytes follow the states, not the key range.
  analyze::KernelDesc kernel;
  kernel.name = "wrapped-2^40";
  kernel.width = 32;
  kernel.rows = (std::uint64_t{1} << 40) + 3;
  kernel.vars = {{"u", 64}, {"v", 48}};
  analyze::AccessSite site;
  site.name = "ring";
  site.form = analyze::IndexForm::kRowCol;
  site.row_mod = kernel.rows;
  site.row = {5, 1, {std::int64_t{1} << 30, 3}};
  site.col = {0, 0, {1, 0}};
  kernel.sites = {site};

  analyze::SynthesisResult result;
  analyze::CongestionCertificate audit;
  const std::uint64_t bytes = bytes_allocated_during([&] {
    result = analyze::synthesize_mapping(kernel);
    audit = analyze::certify_mapping(kernel, result.mapping);
  });
  EXPECT_EQ(result.coverage, analyze::Coverage::kSymbolic);
  EXPECT_EQ(result.classes, 64u * 48u);
  EXPECT_TRUE(audit.exact());
  EXPECT_EQ(audit.bound, result.certificate.bound);
  EXPECT_EQ(result.certificate.bound, 1.0);
  EXPECT_EQ(result.baseline_bound, 32.0);  // every lane in one column
  // Measured: 505,461 bytes for the search and the audit, 165 per state.
  EXPECT_LT(bytes, 256u * result.classes);
}

}  // namespace
}  // namespace rapsim
