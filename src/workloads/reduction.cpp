#include "workloads/reduction.hpp"

#include <stdexcept>

#include "core/factory.hpp"

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
  if (n < 2 || (n & (n - 1)) != 0 || n % width != 0) {
    throw std::invalid_argument(
        "build_reduction_kernel: n must be a power of two multiple of w");
  }
  dmm::Kernel kernel;
  kernel.num_threads = static_cast<std::uint32_t>(n / 2);

  // Each step: active threads load their left operand into r0, add the
  // right operand (kLoadAdd), then store back — three instructions, so
  // the SIMD one-class-per-instruction rule holds.
  for (std::uint64_t active = n / 2; active >= 1; active /= 2) {
    dmm::Row load(kernel.num_threads), add(kernel.num_threads),
        store(kernel.num_threads);
    for (std::uint64_t t = 0; t < active; ++t) {
      std::uint64_t left = 0, right = 0;
      if (variant == ReductionVariant::kInterleaved) {
        const std::uint64_t stride = (n / 2) / active;  // 2^s
        left = t * 2 * stride;
        right = left + stride;
      } else {
        left = t;
        right = t + active;
      }
      load[t] = dmm::ThreadOp::load(left);
      add[t] = dmm::ThreadOp::load_add(right);
      store[t] = dmm::ThreadOp::store(left);
    }
    kernel.push(std::move(load));
    kernel.push(std::move(add));
    kernel.push(std::move(store));
    // Next step reads partial sums written by other warps: synchronize,
    // exactly like the __syncthreads() in the CUDA reduction kernels.
    if (active > 1) kernel.push_barrier();
  }
  return kernel;
}

analyze::KernelDesc describe_reduction_kernel(ReductionVariant variant,
                                              std::uint64_t n,
                                              std::uint32_t width) {
  if (n < 2 || (n & (n - 1)) != 0 || n % width != 0) {
    throw std::invalid_argument(
        "describe_reduction_kernel: n must be a power of two multiple of w");
  }
  using analyze::AccessDir;
  using analyze::AccessSite;

  analyze::KernelDesc kernel;
  kernel.name =
      std::string("reduction-") + reduction_variant_name(variant);
  kernel.width = width;
  kernel.rows = n / width;

  std::size_t step = 0;
  for (std::uint64_t active = n / 2; active >= 1; active /= 2, ++step) {
    const std::string prefix = "s" + std::to_string(step);
    // Lanes and the step's warp variable: full warps while active >= w,
    // a partial warp (and no variable) below that.
    const std::uint32_t lanes =
        active >= width ? width : static_cast<std::uint32_t>(active);
    std::int64_t warp_coeff = 0;
    std::size_t var = kernel.vars.size();
    std::string warp_var;
    if (active > width) {
      warp_var = "u" + std::to_string(step);
      kernel.vars.push_back({warp_var, active / width});
    } else {
      var = SIZE_MAX;  // single warp: no variable needed
    }

    std::int64_t lane_coeff = 0;
    std::int64_t right_offset = 0;
    if (variant == ReductionVariant::kInterleaved) {
      const std::int64_t stride =
          static_cast<std::int64_t>((n / 2) / active);  // 2^s
      lane_coeff = 2 * stride;
      warp_coeff = 2 * stride * width;
      right_offset = stride;  // left + 2^s
    } else {
      lane_coeff = 1;
      warp_coeff = width;
      right_offset = static_cast<std::int64_t>(active);  // left + n/2^(s+1)
    }

    const auto make_expr = [&](std::int64_t base) {
      analyze::AffineExpr expr;
      expr.base = base;
      expr.lane_coeff = lane_coeff;
      if (var != SIZE_MAX) {
        expr.coeffs.assign(kernel.vars.size(), 0);
        expr.coeffs[var] = warp_coeff;
      }
      return expr;
    };
    AccessSite left;
    left.name = prefix + ".left";
    left.dir = AccessDir::kStore;  // also loaded; the stream is identical
    left.lanes = lanes;
    left.warp = warp_var;
    left.flat = make_expr(0);
    AccessSite right;
    right.name = prefix + ".right";
    right.dir = AccessDir::kLoad;
    right.lanes = lanes;
    right.warp = warp_var;
    right.flat = make_expr(right_offset);
    kernel.sites.push_back(std::move(left));
    kernel.sites.push_back(std::move(right));
    // Mirror build_reduction_kernel: a __syncthreads() after every step
    // that feeds a successor (the next step reads what this one wrote).
    if (active > 1) kernel.add_barrier();
  }
  // Earlier steps referenced shorter coefficient vectors; that is fine —
  // AffineExpr treats missing trailing coefficients as zero.
  return kernel;
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
