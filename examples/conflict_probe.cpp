// Conflict probe: analyze a user-supplied access pattern.
//
// The paper's pitch is that a CUDA developer should not need to analyze
// bank conflicts by hand — RAP absorbs them. This tool demonstrates the
// "before" workflow: feed it a warp access pattern (a comma-separated list
// of `row:col` cells, or one of the named patterns) and it reports the
// congestion under RAW, RAS and RAP, plus the per-bank request histogram
// under RAW so the conflict is visible.
//
//   $ conflict_probe --cells=0:0,1:0,2:0,3:0 --width=4
//   $ conflict_probe --pattern=stride --width=32
//   $ conflict_probe --pattern=random --width=32 --trials=10000

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "access/montecarlo.hpp"
#include "access/pattern2d.hpp"
#include "analyze/advisor.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "util/cli.hpp"

namespace {

using namespace rapsim;

std::vector<std::pair<std::uint64_t, std::uint64_t>> parse_cells(
    const std::string& spec) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cells;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) continue;
    cells.emplace_back(std::strtoull(item.substr(0, colon).c_str(), nullptr, 10),
                       std::strtoull(item.substr(colon + 1).c_str(), nullptr, 10));
  }
  return cells;
}

access::Pattern2d parse_pattern(const std::string& name) {
  if (name == "contiguous") return access::Pattern2d::kContiguous;
  if (name == "stride") return access::Pattern2d::kStride;
  if (name == "diagonal") return access::Pattern2d::kDiagonal;
  if (name == "random") return access::Pattern2d::kRandom;
  if (name == "malicious") return access::Pattern2d::kMalicious;
  std::fprintf(stderr, "unknown pattern '%s'\n", name.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_uint("width", 32));
  const std::uint64_t seed = args.get_uint("seed", 1);

  if (const auto cells_spec = args.get("cells")) {
    const auto cells = parse_cells(*cells_spec);
    if (cells.empty()) {
      std::fprintf(stderr, "--cells parsed to nothing\n");
      return 1;
    }
    std::uint64_t max_row = 0;
    for (const auto& [i, j] : cells) max_row = std::max(max_row, i);

    std::printf("probing %zu explicit cells on a %llux%u matrix\n\n",
                cells.size(), static_cast<unsigned long long>(max_row + 1),
                width);
    for (const core::Scheme scheme : core::table2_schemes()) {
      const auto map =
          core::make_matrix_map(scheme, width, max_row + 1, seed);
      std::vector<std::uint64_t> addrs;
      for (const auto& [i, j] : cells) addrs.push_back(map->index(i, j % width));
      const auto r = core::congestion_of_logical(addrs, *map);
      std::printf("%-3s: congestion %u\n", map->name().c_str(), r.congestion);
      if (scheme == core::Scheme::kRaw) {
        std::printf("     per-bank requests:");
        for (std::uint32_t b = 0; b < width; ++b) {
          if (r.per_bank[b]) std::printf(" bank%u=%u", b, r.per_bank[b]);
        }
        std::printf("\n");
      }
    }

    // Layout advisor: treat the cells as one warp trace.
    analyze::WarpTrace trace;
    const auto raw_map =
        core::make_matrix_map(core::Scheme::kRaw, width, max_row + 1, seed);
    for (const auto& [i, j] : cells) trace.push_back(raw_map->index(i, j % width));
    const auto advice =
        analyze::evaluate_schemes({trace}, width, max_row + 1);
    std::printf("\nadvisor: %s\n", advice.rationale.c_str());
    return 0;
  }

  const auto pattern =
      parse_pattern(args.get_string("pattern", "stride"));
  const std::uint64_t trials = args.get_uint("trials", 10000);
  std::printf("probing pattern '%s' on a %ux%u matrix, %llu trials\n\n",
              access::pattern2d_name(pattern), width, width,
              static_cast<unsigned long long>(trials));
  for (const core::Scheme scheme : core::table2_schemes()) {
    const auto est =
        access::estimate_congestion_2d(scheme, pattern, width, trials, seed);
    std::printf("%-3s: E[congestion] = %.3f  (+/- %.3f, min %u, max %u)\n",
                core::scheme_name(scheme), est.mean, est.ci95, est.min,
                est.max);
  }
  std::printf(
      "\nIf RAW shows congestion >> 1 here, switching the layout to RAP\n"
      "removes the serialization without changing the kernel.\n");
  return 0;
}
