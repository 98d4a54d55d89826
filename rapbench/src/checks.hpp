// Output checks. Each returns nullopt when the output is right and
// otherwise a message naming the cell, the expected and the actual
// value. Simulated statistics are checks, not metrics: a change that
// only speeds the simulator up must leave them bit-identical.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "access/pattern2d.hpp"
#include "core/mapping.hpp"
#include "dmm/machine.hpp"
#include "hier/hier.hpp"

namespace rapbench {

using Failure = std::optional<std::string>;

struct Table2Cell {
  rapsim::core::Scheme scheme = rapsim::core::Scheme::kRaw;
  rapsim::access::Pattern2d pattern = rapsim::access::Pattern2d::kContiguous;
  std::uint32_t width = 16;

  [[nodiscard]] std::string label() const;
};

/// One Table II cell estimated from `trials` warps. The exact cells must
/// hold on every trial (every contiguous cell = 1, RAW stride = w, RAP
/// stride = 1, RAW diagonal = 1). Every other mean must lie within
/// 0.04 + 4 / sqrt(trials) of the paper's Table II value (congestion's
/// standard deviation is below 1 in all of them, so that is more than
/// four standard errors on top of the paper's rounding).
[[nodiscard]] Failure check_table2_cell(const Table2Cell& cell, double mean,
                                        std::uint64_t min, std::uint64_t max,
                                        std::uint64_t trials);

/// Every RunStats field must match bit for bit.
[[nodiscard]] Failure check_run_stats(const std::string& cell,
                                      const rapsim::dmm::RunStats& expected,
                                      const rapsim::dmm::RunStats& actual);

/// The whole-hierarchy counters must match bit for bit.
[[nodiscard]] Failure check_hier_result(const std::string& cell,
                                        const rapsim::hier::HierResult& expected,
                                        const rapsim::hier::HierResult& actual);

/// A synthesized mapping: the auditor's bound must equal the searched
/// bound, and neither may exceed the kernel's RAW baseline.
[[nodiscard]] Failure check_synth(const std::string& kernel, double searched,
                                  double audited, double raw_baseline);

}  // namespace rapbench
