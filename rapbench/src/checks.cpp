#include "checks.hpp"

#include <array>
#include <cmath>
#include <sstream>

namespace rapbench {

namespace {

using rapsim::access::Pattern2d;
using rapsim::core::Scheme;

constexpr std::array<std::uint32_t, 5> kPaperWidths = {16, 32, 64, 128, 256};

// The paper's Table II (as quoted in bench/table2_congestion_sim.cpp),
// for the cells that are expectations rather than exact values.
constexpr std::array<double, 5> kRasStrideOrDiagonal = {3.08, 3.53, 3.96, 4.38,
                                                        4.77};
constexpr std::array<double, 5> kRapDiagonal = {3.20, 3.61, 4.00, 4.41, 4.78};
constexpr std::array<double, 5> kRandom = {2.92, 3.44, 3.90, 4.34, 4.75};

/// The exact value of a cell, or nullopt for an expectation cell.
std::optional<std::uint64_t> exact_value(const Table2Cell& cell) {
  if (cell.pattern == Pattern2d::kContiguous) return 1;
  if (cell.scheme == Scheme::kRaw && cell.pattern == Pattern2d::kStride) {
    return cell.width;
  }
  if (cell.scheme == Scheme::kRap && cell.pattern == Pattern2d::kStride) {
    return 1;
  }
  if (cell.scheme == Scheme::kRaw && cell.pattern == Pattern2d::kDiagonal) {
    return 1;
  }
  return std::nullopt;
}

std::optional<double> paper_value(const Table2Cell& cell) {
  std::size_t column = kPaperWidths.size();
  for (std::size_t i = 0; i < kPaperWidths.size(); ++i) {
    if (kPaperWidths[i] == cell.width) column = i;
  }
  if (column == kPaperWidths.size()) return std::nullopt;
  if (cell.pattern == Pattern2d::kRandom) return kRandom[column];
  if (cell.scheme == Scheme::kRas) return kRasStrideOrDiagonal[column];
  if (cell.scheme == Scheme::kRap && cell.pattern == Pattern2d::kDiagonal) {
    return kRapDiagonal[column];
  }
  return std::nullopt;
}

template <typename T>
void compare(std::ostringstream& out, const char* field, const T& expected,
             const T& actual) {
  if (expected == actual) return;
  out << (out.tellp() > 0 ? "; " : "") << field << " expected " << expected
      << " got " << actual;
}

Failure finish(const std::string& cell, const std::ostringstream& out) {
  if (out.str().empty()) return std::nullopt;
  return cell + ": " + out.str();
}

}  // namespace

std::string Table2Cell::label() const {
  return std::string("table2 ") + rapsim::core::scheme_name(scheme) + "/" +
         rapsim::access::pattern2d_name(pattern) + "/w=" +
         std::to_string(width);
}

Failure check_table2_cell(const Table2Cell& cell, double mean,
                          std::uint64_t min, std::uint64_t max,
                          std::uint64_t trials) {
  std::ostringstream out;
  if (const auto exact = exact_value(cell)) {
    if (min != *exact || max != *exact) {
      out << "expected every trial = " << *exact << ", got min " << min
          << " max " << max;
    }
    return finish(cell.label(), out);
  }
  const auto paper = paper_value(cell);
  if (!paper) return cell.label() + ": not a Table II cell";
  const double tolerance =
      0.04 + 4.0 / std::sqrt(static_cast<double>(trials == 0 ? 1 : trials));
  if (!(std::fabs(mean - *paper) <= tolerance)) {
    out << "expected " << *paper << " +- " << tolerance << ", got " << mean;
  }
  return finish(cell.label(), out);
}

Failure check_run_stats(const std::string& cell,
                        const rapsim::dmm::RunStats& expected,
                        const rapsim::dmm::RunStats& actual) {
  std::ostringstream out;
  out.precision(17);
  compare(out, "time", expected.time, actual.time);
  compare(out, "total_stages", expected.total_stages, actual.total_stages);
  compare(out, "dispatches", expected.dispatches, actual.dispatches);
  compare(out, "max_congestion", expected.max_congestion,
          actual.max_congestion);
  compare(out, "avg_congestion", expected.avg_congestion,
          actual.avg_congestion);
  return finish(cell, out);
}

Failure check_hier_result(const std::string& cell,
                          const rapsim::hier::HierResult& expected,
                          const rapsim::hier::HierResult& actual) {
  std::ostringstream out;
  out.precision(17);
  compare(out, "cycles", expected.cycles, actual.cycles);
  compare(out, "dispatches", expected.dispatches, actual.dispatches);
  compare(out, "total_stages", expected.total_stages, actual.total_stages);
  compare(out, "max_congestion", expected.max_congestion,
          actual.max_congestion);
  compare(out, "avg_congestion", expected.avg_congestion,
          actual.avg_congestion);
  compare(out, "l2_hits", expected.l2_hits, actual.l2_hits);
  compare(out, "l2_misses", expected.l2_misses, actual.l2_misses);
  compare(out, "l2_queue_cycles", expected.l2_queue_cycles,
          actual.l2_queue_cycles);
  return finish(cell, out);
}

Failure check_synth(const std::string& kernel, double searched,
                    double audited, double raw_baseline) {
  std::ostringstream out;
  compare(out, "audited bound", searched, audited);
  if (!(searched <= raw_baseline)) {
    out << (out.tellp() > 0 ? "; " : "") << "bound " << searched
        << " exceeds the RAW baseline " << raw_baseline;
  }
  return finish("synth " + kernel, out);
}

}  // namespace rapbench
