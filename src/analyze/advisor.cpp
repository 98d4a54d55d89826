#include "analyze/advisor.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "analyze/passes.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"

namespace rapsim::analyze {

namespace {

/// Mean and worst warp congestion of the trace under one concrete map.
std::pair<double, double> score_map(const std::vector<WarpTrace>& traces,
                                    const core::AddressMap& map) {
  double sum = 0.0;
  std::uint32_t worst = 0;
  for (const auto& warp : traces) {
    const std::uint32_t c = core::congestion_value(warp, map);
    sum += c;
    worst = std::max(worst, c);
  }
  return {sum / static_cast<double>(traces.size()),
          static_cast<double>(worst)};
}

}  // namespace

Advice evaluate_schemes(const std::vector<WarpTrace>& traces,
                        std::uint32_t width, std::uint64_t rows,
                        std::uint32_t draws, std::uint64_t seed) {
  if (traces.empty()) {
    throw std::invalid_argument("evaluate_schemes: no traces given");
  }
  for (const auto& warp : traces) {
    if (warp.empty() || warp.size() > width) {
      throw std::invalid_argument(
          "evaluate_schemes: each warp trace needs 1..width addresses");
    }
    for (const std::uint64_t a : warp) {
      if (a >= rows * width) {
        throw std::invalid_argument(
            "evaluate_schemes: address outside rows x width array");
      }
    }
  }

  Advice advice;
  const core::Scheme order[] = {core::Scheme::kRaw, core::Scheme::kPad,
                                core::Scheme::kRas, core::Scheme::kRap};
  for (const core::Scheme scheme : order) {
    SchemeScore score;
    score.scheme = scheme;
    const bool randomized =
        scheme == core::Scheme::kRas || scheme == core::Scheme::kRap;
    const std::uint32_t n = randomized ? std::max(draws, 1u) : 1u;
    for (std::uint32_t d = 0; d < n; ++d) {
      const auto map = core::make_matrix_map(scheme, width, rows,
                                             seed * 2654435761ull + d);
      const auto [mean, worst] = score_map(traces, *map);
      score.mean_congestion += mean;
      score.max_congestion += worst;
    }
    score.mean_congestion /= n;
    score.max_congestion /= n;
    score.random_words =
        core::make_matrix_map(scheme, width, rows, seed)->random_words();
    advice.scores.push_back(score);
    advice.certificates.push_back(
        prove_worst_warp(traces, width, rows * width, scheme));
  }

  // Recommendation policy: prefer the cheapest scheme whose *worst* warp
  // stays within 25% of the best observed worst-case; tie-break by fewer
  // random words (RAW < PAD < RAP < RAS in cost). The deterministic
  // schemes are scored on this exact trace, so picking them is only safe
  // when the trace is the production access pattern — the rationale says
  // so when RAP is within noise of the winner.
  double best_worst = advice.scores[0].max_congestion;
  for (const auto& s : advice.scores) {
    best_worst = std::min(best_worst, s.max_congestion);
  }
  const double tolerance = best_worst * 1.25 + 0.01;
  for (const std::size_t idx : {0u, 1u, 3u, 2u}) {  // RAW, PAD, RAP, RAS
    if (advice.scores[idx].max_congestion <= tolerance) {
      advice.recommended = advice.scores[idx].scheme;
      break;
    }
  }

  std::ostringstream why;
  why << "worst-warp congestion: ";
  for (const auto& s : advice.scores) {
    why << core::scheme_name(s.scheme) << "=" << s.max_congestion << " ";
  }
  why << "-> " << core::scheme_name(advice.recommended);
  const auto& rap = advice.scores[3];
  if (advice.recommended != core::Scheme::kRap &&
      rap.max_congestion <= tolerance) {
    why << " (RAP is equivalent and additionally robust to access "
           "patterns not in this trace)";
  }
  // Cite the analyzer's proof rules: an exact certificate pins the worst
  // warp for every draw, an expected-upper one bounds each warp's mean.
  why << "; static proof:";
  for (const auto& cert : advice.certificates) {
    why << " " << core::scheme_name(cert.scheme)
        << (cert.exact() ? "=" : "<=") << cert.bound << " [" << cert.rule
        << "]";
  }
  advice.rationale = why.str();
  return advice;
}

Advice evaluate_kernel(const KernelDesc& kernel,
                       std::uint32_t draws, std::uint64_t seed) {
  Advice advice = evaluate_schemes(enumerate_warp_traces(kernel),
                                   kernel.width, kernel.rows, draws, seed);

  // Upgrade the certificates from per-trace to whole-kernel: the symbolic
  // passes close over every binding, so the cited bound holds for warps
  // the materialized sample never produced.
  std::ostringstream why;
  why << advice.rationale << "; whole-kernel (all "
      << kernel.binding_count() << " bindings):";
  for (std::size_t idx = 0; idx < advice.certificates.size(); ++idx) {
    const KernelAnalysis analysis =
        analyze_kernel(kernel, advice.certificates[idx].scheme);
    advice.certificates[idx] = analysis.worst;
    why << " " << core::scheme_name(analysis.scheme)
        << (analysis.worst.exact() ? "=" : "<=") << analysis.worst.bound
        << " [" << analysis.worst.rule << "]";
  }
  advice.rationale = why.str();
  return advice;
}

}  // namespace rapsim::analyze
