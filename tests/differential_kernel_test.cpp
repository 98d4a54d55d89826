// Differential harness for the WHOLE-KERNEL symbolic passes: every
// built-in kernel IR x scheme {RAW, PAD, RAS, RAP} x width {16, 32, 64}.
//
// Two layers:
//
//   1. TRACE level — for every access site, the certified worst binding's
//      materialized trace is scored against concrete mapping draws:
//      exact certificates must be attained by EVERY draw, expected-upper
//      certificates must dominate the observed mean; and no enumerated
//      class may exceed the site's bound (exact rules).
//   2. DMM level — for the kernels that also have concrete dmm::Kernel
//      builders (transpose, matmul, reduction, bitonic, histogram), the
//      simulated run's worst warp-instruction congestion must MATCH the
//      symbolic kernel-level certificate (exact) or be dominated by it in
//      the mean (expected-upper).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analyze/passes.hpp"
#include "builtin_kernels.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "transpose/runner.hpp"
#include "workload_kernels.hpp"
#include "workloads/bitonic.hpp"
#include "workloads/histogram.hpp"
#include "workloads/matmul.hpp"
#include "workloads/reduction.hpp"

namespace rapsim::analyze {
namespace {

using core::Scheme;

constexpr Scheme kSchemes[] = {Scheme::kRaw, Scheme::kPad, Scheme::kRas,
                               Scheme::kRap};
constexpr std::uint32_t kWidths[] = {16, 32, 64};
constexpr std::uint64_t kDraws = 12;

bool randomized(Scheme scheme) {
  return scheme == Scheme::kRas || scheme == Scheme::kRap;
}

bool has_duplicates(std::vector<std::uint64_t> trace) {
  std::sort(trace.begin(), trace.end());
  return std::adjacent_find(trace.begin(), trace.end()) != trace.end();
}

TEST(DifferentialKernel, SiteCertificatesMatchMappingDraws) {
  for (const std::uint32_t w : kWidths) {
    for (const auto& kernel : tools::builtin_kernels(w)) {
      const auto traces = enumerate_warp_traces(kernel, 512);
      for (const Scheme scheme : kSchemes) {
        const KernelAnalysis analysis = analyze_kernel(kernel, scheme);
        ASSERT_FALSE(analysis.any_out_of_bounds)
            << kernel.name << " w=" << w;
        for (const SiteAnalysis& site : analysis.sites) {
          const std::string what = kernel.name + "/" + site.site + " w=" +
                                   std::to_string(w) + " " +
                                   core::scheme_name(scheme);
          ASSERT_FALSE(site.witness_trace.empty()) << what;
          // Atomic streams with repeated addresses do not merge; the
          // trace-level congestion_value models CRCW merging, so only
          // duplicate-free streams are comparable here. (No built-in
          // atomic site produces duplicates.)
          if (site.dir == AccessDir::kAtomic &&
              has_duplicates(site.witness_trace)) {
            continue;
          }
          const std::uint64_t seeds = randomized(scheme) ? kDraws : 1;
          double sum_max = 0.0;
          for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
            const auto map =
                core::make_matrix_map(scheme, w, kernel.rows, seed);
            const double observed = core::congestion_value(
                site.witness_trace, *map);
            sum_max += observed;
            if (site.cert.exact()) {
              // Exact: every draw attains the bound on the witness.
              EXPECT_EQ(observed, site.cert.bound)
                  << what << " seed=" << seed;
            } else {
              EXPECT_LE(observed, std::max(site.cert.bound,
                                           1.0 * kernel.width))
                  << what << " seed=" << seed;
            }
          }
          if (!site.cert.exact()) {
            // Expected-upper: the bound dominates the observed mean.
            EXPECT_LE(sum_max / static_cast<double>(seeds),
                      site.cert.bound + 1e-9)
                << what;
          }
        }
        // No enumerated class may beat the kernel-level claim under a
        // deterministic scheme (randomized draws vary; use seed 1).
        if (!randomized(scheme) && analysis.worst.exact()) {
          const auto map = core::make_matrix_map(scheme, w, kernel.rows, 1);
          for (const auto& trace : traces) {
            EXPECT_LE(core::congestion_value(trace, *map),
                      analysis.worst.bound)
                << kernel.name << " w=" << w << " "
                << core::scheme_name(scheme);
          }
        }
      }
    }
  }
}

TEST(DifferentialKernel, BothCatalogViewsResolveEverySharedName) {
  // The lint catalog and the executable catalog read one program list, so
  // a workload both list has one name, and each view resolves it.
  for (const std::uint32_t w : kWidths) {
    std::vector<std::string> shared;
    const std::vector<KernelDesc> lint = tools::builtin_kernels(w);
    for (const tools::WorkloadKernel& entry : tools::workload_kernels(w)) {
      if (std::any_of(lint.begin(), lint.end(), [&](const KernelDesc& k) {
            return k.name == entry.name;
          })) {
        shared.push_back(entry.name);
      }
    }
    // Transposes, reductions, matmuls, bitonic, vm-shearsort and
    // vm-mergesort-round.
    EXPECT_EQ(shared.size(), 10u) << "w=" << w;
    for (const std::string& name : shared) {
      const tools::WorkloadKernel executable = tools::workload_kernel(name, w);
      const KernelDesc ir = tools::builtin_kernel(name, w);
      EXPECT_EQ(executable.name, name);
      EXPECT_EQ(ir.name, name);
      EXPECT_EQ(executable.rows, ir.rows) << name << " w=" << w;
    }
  }
}

/// DMM-level check shared by all concrete workloads: compare the
/// simulated worst warp-instruction congestion against the symbolic
/// kernel certificate.
class DmmCheck {
 public:
  DmmCheck(const KernelDesc& desc, Scheme scheme)
      : analysis_(analyze_kernel(desc, scheme)), scheme_(scheme),
        what_(desc.name + " w=" + std::to_string(desc.width) + " " +
              core::scheme_name(scheme)) {}

  [[nodiscard]] std::uint64_t seeds() const {
    return randomized(scheme_) ? 6 : 1;
  }

  void observe(std::uint32_t max_congestion) {
    sum_ += max_congestion;
    ++count_;
    if (analysis_.worst.exact()) {
      EXPECT_EQ(static_cast<double>(max_congestion), analysis_.worst.bound)
          << what_;
    }
  }

  void finish() const {
    if (!analysis_.worst.exact() && count_ > 0) {
      EXPECT_LE(sum_ / static_cast<double>(count_),
                analysis_.worst.bound + 1e-9)
          << what_;
    }
  }

 private:
  KernelAnalysis analysis_;
  Scheme scheme_;
  std::string what_;
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

TEST(DifferentialKernel, TransposeKernelsMatchDmm) {
  const std::map<transpose::Algorithm, std::string> names = {
      {transpose::Algorithm::kCrsw, "transpose-crsw"},
      {transpose::Algorithm::kSrcw, "transpose-srcw"},
      {transpose::Algorithm::kDrdw, "transpose-drdw"}};
  for (const std::uint32_t w : kWidths) {
    for (const auto algorithm :
         {transpose::Algorithm::kCrsw, transpose::Algorithm::kSrcw,
          transpose::Algorithm::kDrdw}) {
      for (const Scheme scheme : kSchemes) {
        DmmCheck check(tools::builtin_kernel(names.at(algorithm), w), scheme);
        for (std::uint64_t seed = 1; seed <= check.seeds(); ++seed) {
          const auto report =
              transpose::run_transpose(algorithm, scheme, w, 1, seed);
          ASSERT_TRUE(report.correct);
          check.observe(report.stats.max_congestion);
        }
        check.finish();
      }
    }
  }
}

TEST(DifferentialKernel, MatmulKernelsMatchDmm) {
  for (const std::uint32_t w : kWidths) {
    for (const auto layout : {workloads::MatmulLayout::kRowMajorB,
                              workloads::MatmulLayout::kTransposedB}) {
      for (const Scheme scheme : kSchemes) {
        DmmCheck check(
            tools::builtin_kernel(layout == workloads::MatmulLayout::kRowMajorB
                                      ? "matmul-rowmajorb"
                                      : "matmul-transposedb",
                                  w),
            scheme);
        for (std::uint64_t seed = 1; seed <= check.seeds(); ++seed) {
          const auto report = workloads::run_matmul(layout, scheme, w, 1,
                                                    seed);
          ASSERT_TRUE(report.correct);
          check.observe(report.stats.max_congestion);
        }
        check.finish();
      }
    }
  }
}

TEST(DifferentialKernel, ReductionKernelsMatchDmm) {
  for (const std::uint32_t w : kWidths) {
    const std::uint64_t n = 8ull * w;
    for (const auto variant : {workloads::ReductionVariant::kInterleaved,
                               workloads::ReductionVariant::kSequential}) {
      for (const Scheme scheme : kSchemes) {
        DmmCheck check(
            tools::builtin_kernel(
                variant == workloads::ReductionVariant::kInterleaved
                    ? "reduction-interleaved"
                    : "reduction-sequential",
                w),
            scheme);
        for (std::uint64_t seed = 1; seed <= check.seeds(); ++seed) {
          const auto report =
              workloads::run_reduction(variant, scheme, n, w, 1, seed);
          ASSERT_TRUE(report.correct);
          check.observe(report.stats.max_congestion);
        }
        check.finish();
      }
    }
  }
}

TEST(DifferentialKernel, BitonicKernelMatchesDmm) {
  for (const std::uint32_t w : kWidths) {
    const std::uint64_t n = 8ull * w;
    for (const Scheme scheme : kSchemes) {
      DmmCheck check(tools::builtin_kernel("bitonic", w), scheme);
      for (std::uint64_t seed = 1; seed <= check.seeds(); ++seed) {
        const auto report = workloads::run_bitonic_sort(scheme, n, w, 1, seed);
        ASSERT_TRUE(report.sorted);
        check.observe(report.stats.max_congestion);
      }
      check.finish();
    }
  }
}

TEST(DifferentialKernel, HistogramHotBinMatchesDmm) {
  // Fully skewed input: every item is the hot value, which is exactly the
  // warp-uniform "bin" binding the IR closes over.
  for (const std::uint32_t w : kWidths) {
    const workloads::HistogramConfig config{w, 2 * w, 32};
    for (const Scheme scheme : kSchemes) {
      DmmCheck check(workloads::describe_histogram_kernel(config), scheme);
      for (std::uint64_t seed = 1; seed <= check.seeds(); ++seed) {
        const auto input = workloads::make_input(config, 1.0, seed);
        const auto report =
            workloads::run_histogram(config, scheme, input, seed);
        ASSERT_TRUE(report.correct);
        check.observe(report.stats.max_congestion);
      }
      check.finish();
    }
  }
}

}  // namespace
}  // namespace rapsim::analyze
