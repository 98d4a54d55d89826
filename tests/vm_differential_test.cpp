// VM suite differential sweep — the acceptance bar for the workload VM:
//
//   1. the raw-hostile sorting workloads (vm-mergesort-round,
//      vm-shearsort) are PROVABLY conflicted under RAW (exact bound > 1)
//      yet the layout synthesizer certifies a conflict-free (bound 1)
//      permute-shift mapping, confirmed on the full DMM by replaying the
//      executor's lowered kernel under the synthesized map;
//   2. re-describing bitonic through the VM extraction (which replaced
//      the old opaque-callback descriptor) never loosened a bound: for
//      every scheme x width the new affine IR's certified worst-warp
//      bound is <= the old hand-written descriptor's;
//   3. the same holds for the transpose, reduction and matmul programs
//      that replaced their hand-written descriptors: extraction is
//      complete and every certified bound is <= the retired
//      descriptor's, recorded below;
//   4. RAP keeps its Theorem-2-style promise on the suite: observed
//      max congestion under a random permute-shift draw stays within
//      the analyzer's certified bound for every suite program.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analyze/passes.hpp"
#include "analyze/synth.hpp"
#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/extract.hpp"
#include "vm/suite.hpp"
#include "workloads/catalog.hpp"

namespace rapsim::analyze {
namespace {

vm::Program suite_source(const std::string& name, std::uint32_t width) {
  return vm::assemble(vm::suite_program(name, width).text, width);
}

// Run the executor's lowered kernel under `map` and return its stats.
dmm::RunStats run_lowered(const vm::LoweredProgram& low,
                          const core::AddressMap& map) {
  dmm::Dmm machine(dmm::DmmConfig{low.width, 1}, map);
  return machine.run(low.kernel);
}

TEST(VmDifferential, RawHostileSortsGetCertifiedConflictFreeMappings) {
  for (const std::uint32_t width : {16u, 32u}) {
    for (const char* name : {"vm-mergesort-round", "vm-shearsort"}) {
      const std::string label = std::string(name) + " w=" +
                                std::to_string(width);
      const vm::Program program = suite_source(name, width);
      const vm::ExtractResult ext = vm::extract_kernel(program);
      ASSERT_TRUE(ext.complete) << label;

      // Provably conflicted raw: the exact worst-warp bound exceeds 1.
      const KernelAnalysis raw =
          analyze_kernel(ext.kernel, core::Scheme::kRaw);
      ASSERT_TRUE(raw.worst.exact()) << label;
      EXPECT_GT(raw.worst.bound, 1.0) << label;

      // The synthesizer finds a bound-1 member of the permute-shift
      // family and certifies it globally optimal.
      const SynthesisResult synth = synthesize_mapping(ext.kernel);
      EXPECT_EQ(synth.certificate.bound, 1.0) << label;
      EXPECT_EQ(synth.witness.kind, WitnessKind::kGlobalOptimal) << label;

      // Certified on the IR, confirmed on the machine: the executor's
      // lowering replayed under the synthesized map never serializes.
      const vm::LoweredProgram low = vm::lower_program(program);
      const auto map = make_synth_map(synth.mapping,
                                      program.memory_words);
      const dmm::RunStats stats = run_lowered(low, *map);
      EXPECT_EQ(stats.max_congestion, 1u) << label;

      // ... while the raw machine really does serialize.
      const auto raw_map =
          core::make_matrix_map(core::Scheme::kRaw, width, low.rows, 1);
      EXPECT_GT(run_lowered(low, *raw_map).max_congestion, 1u) << label;
    }
  }
}

// The pre-VM bitonic descriptor, reproduced verbatim: one opaque site
// pair per partner distance j, warps enumerated through variable "u".
// The VM extraction replaced it with pure affine sites; this pins the
// "bounds tighten or stay equal" half of that change.
KernelDesc old_opaque_bitonic(std::uint64_t n, std::uint32_t width) {
  KernelDesc kernel;
  kernel.name = "bitonic-opaque";
  kernel.width = width;
  kernel.rows = n / width;
  kernel.vars = {{"u", (n / 2) / width}};
  for (std::uint64_t j = n / 2; j >= 1; j /= 2) {
    const auto make = [width, j](bool hi) {
      return [width, j, hi](std::uint32_t lane,
                            std::span<const std::uint64_t> binding) {
        const std::uint64_t t =
            (binding.empty() ? 0 : binding[0]) * width + lane;
        const std::uint64_t i = ((t & ~(j - 1)) << 1) | (t & (j - 1));
        return hi ? (i | j) : i;
      };
    };
    AccessSite lo;
    lo.name = "pair(j=" + std::to_string(j) + ").lo";
    lo.dir = AccessDir::kStore;
    lo.form = IndexForm::kOpaque;
    lo.warp = "u";
    lo.opaque = make(false);
    AccessSite hi;
    hi.name = "pair(j=" + std::to_string(j) + ").hi";
    hi.dir = AccessDir::kStore;
    hi.form = IndexForm::kOpaque;
    hi.warp = "u";
    hi.opaque = make(true);
    kernel.sites.push_back(std::move(lo));
    kernel.sites.push_back(std::move(hi));
    if (j > 1) kernel.add_barrier();
  }
  return kernel;
}

TEST(VmDifferential, VmBitonicBoundsNoWorseThanTheOldOpaqueDescriptor) {
  for (const std::uint32_t width : {16u, 32u}) {
    const std::uint64_t n = 8ull * width;
    const vm::ExtractResult ext = vm::extract_kernel(
        vm::assemble(vm::bitonic_text(n, width), width));
    ASSERT_TRUE(ext.complete) << "w=" << width;
    const KernelDesc old_desc = old_opaque_bitonic(n, width);
    for (const core::Scheme scheme :
         {core::Scheme::kRaw, core::Scheme::kPad, core::Scheme::kRas,
          core::Scheme::kRap}) {
      const std::string label = std::string(core::scheme_name(scheme)) +
                                " w=" + std::to_string(width);
      const KernelAnalysis now = analyze_kernel(ext.kernel, scheme);
      const KernelAnalysis before = analyze_kernel(old_desc, scheme);
      EXPECT_LE(now.worst.bound, before.worst.bound) << label;
    }
    // The affine description is not just no-worse, it is exactly tight:
    // bitonic touches contiguous 2j-aligned blocks, so raw is bound 1.
    const KernelAnalysis raw = analyze_kernel(ext.kernel, core::Scheme::kRaw);
    EXPECT_TRUE(raw.worst.exact()) << "w=" << width;
    EXPECT_EQ(raw.worst.bound, 1.0) << "w=" << width;
  }
}

// Certified worst-warp bounds of the hand-written descriptors the
// transpose, reduction and matmul programs replaced, recorded from those
// descriptors before they were deleted.
struct DescriptorBounds {
  const char* name;
  std::uint32_t width;
  double raw, ras, rap, pad;
};
constexpr DescriptorBounds kRetiredDescriptorBounds[] = {
    {"transpose-crsw", 16, 16, 9.1564204211535216, 1, 1},
    {"transpose-crsw", 32, 32, 9.3651127594621322, 1, 1},
    {"transpose-crsw", 64, 64, 9.7540287411525739, 1, 1},
    {"transpose-srcw", 16, 16, 9.1564204211535216, 1, 1},
    {"transpose-srcw", 32, 32, 9.3651127594621322, 1, 1},
    {"transpose-srcw", 64, 64, 9.7540287411525739, 1, 1},
    {"transpose-drdw", 16, 1, 16, 16, 2},
    {"transpose-drdw", 32, 1, 17.730225518924264, 17.730225518924264, 2},
    {"transpose-drdw", 64, 1, 18.508057482305148, 18.508057482305148, 2},
    {"reduction-interleaved", 16, 8, 16, 16, 1},
    {"reduction-interleaved", 32, 8, 17.730225518924264, 17.730225518924264,
     1},
    {"reduction-interleaved", 64, 8, 18.508057482305148, 18.508057482305148,
     1},
    {"reduction-sequential", 16, 1, 1, 1, 1},
    {"reduction-sequential", 32, 1, 1, 1, 1},
    {"reduction-sequential", 64, 1, 1, 1, 1},
    {"matmul-rowmajorb", 16, 1, 1, 1, 1},
    {"matmul-rowmajorb", 32, 1, 1, 1, 1},
    {"matmul-rowmajorb", 64, 1, 1, 1, 1},
    {"matmul-transposedb", 16, 16, 9.1564204211535216, 1, 1},
    {"matmul-transposedb", 32, 32, 9.3651127594621322, 1, 1},
    {"matmul-transposedb", 64, 64, 9.7540287411525739, 1, 1},
};

TEST(VmDifferential, CatalogProgramsBoundsNoWorseThanTheRetiredDescriptors) {
  for (const DescriptorBounds& old : kRetiredDescriptorBounds) {
    const std::string label =
        std::string(old.name) + " w=" + std::to_string(old.width);
    const std::string text =
        workloads::workload_program(old.name, old.width).text;
    const vm::ExtractResult ext =
        vm::extract_kernel(vm::assemble(text, old.width));
    ASSERT_TRUE(ext.complete) << label;
    const std::pair<core::Scheme, double> schemes[] = {
        {core::Scheme::kRaw, old.raw},
        {core::Scheme::kRas, old.ras},
        {core::Scheme::kRap, old.rap},
        {core::Scheme::kPad, old.pad}};
    for (const auto& [scheme, bound] : schemes) {
      EXPECT_LE(analyze_kernel(ext.kernel, scheme).worst.bound, bound)
          << label << " " << core::scheme_name(scheme);
    }
  }
}

TEST(VmDifferential, ObservedCongestionStaysWithinCertifiedRapBounds) {
  const std::uint32_t width = 16;
  for (const vm::SuiteProgram& entry : vm::suite_programs(width)) {
    const vm::Program program = vm::assemble(entry.text, width);
    const vm::ExtractResult ext = vm::extract_kernel(program);
    ASSERT_TRUE(ext.complete) << entry.name;
    const KernelAnalysis rap =
        analyze_kernel(ext.kernel, core::Scheme::kRap);
    const vm::LoweredProgram low = vm::lower_program(program);
    for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
      const auto map =
          core::make_matrix_map(core::Scheme::kRap, width, low.rows, seed);
      const dmm::RunStats stats = run_lowered(low, *map);
      if (rap.worst.exact()) {
        EXPECT_LE(static_cast<double>(stats.max_congestion),
                  rap.worst.bound)
            << entry.name << " seed=" << seed;
      } else {
        // Expectation bounds: any single draw may exceed the mean, but
        // never the trivial width ceiling — and the certified bound must
        // itself be sane.
        EXPECT_LE(stats.max_congestion, width) << entry.name;
        EXPECT_GE(rap.worst.bound, 1.0) << entry.name;
      }
    }
  }
}

}  // namespace
}  // namespace rapsim::analyze
