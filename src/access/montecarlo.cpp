#include "access/montecarlo.hpp"

#include <cmath>
#include <memory>
#include <vector>

#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace rapsim::access {

namespace {

constexpr std::size_t kChunks = 64;  // fixed: part of the deterministic contract

/// Seed of trial t's map; trials own their maps, chunks only their warps.
std::uint64_t trial_map_seed(std::uint64_t seed, std::uint64_t trial) {
  return seed * 0x9e3779b97f4a7c15ull + trial + 1;
}

/// One worker's reusable 2-D trial state: the map, redrawn in place for
/// each trial, the address buffer and the bank tally. It allocates only
/// when built and on its first trial, so a worker's allocations do not
/// grow with its trial count.
class Trials2d {
 public:
  Trials2d(core::Scheme scheme, Pattern2d pattern, std::uint32_t width,
           std::uint64_t seed)
      : pattern_(pattern),
        seed_(seed),
        map_(core::make_matrix_map(scheme, width, width,
                                   trial_map_seed(seed, 0))) {}

  /// Trial t: the map make_matrix_map draws from trial_map_seed(seed, t),
  /// then one warp drawn from `rng`, tallied.
  const core::BankTally& run(std::uint64_t t, util::Pcg32& rng) {
    core::redraw_matrix_map(*map_, trial_map_seed(seed_, t));
    const std::uint32_t warp = rng.bounded(map_->width());
    warp_addresses_2d(pattern_, *map_, warp, rng, addrs_);
    core::tally_logical(addrs_, *map_, tally_);
    return tally_;
  }

 private:
  Pattern2d pattern_;
  std::uint64_t seed_;
  std::unique_ptr<core::AddressMap> map_;
  std::vector<std::uint64_t> addrs_;
  core::BankTally tally_;
};

struct ChunkAccumulator {
  util::OnlineStats stats;
  std::uint32_t min = 0;
  std::uint32_t max = 0;
  bool any = false;

  void add(std::uint32_t congestion) {
    stats.add(congestion);
    if (!any) {
      min = max = congestion;
      any = true;
    } else {
      min = std::min(min, congestion);
      max = std::max(max, congestion);
    }
  }
};

CongestionEstimate reduce(const std::vector<ChunkAccumulator>& chunks) {
  util::OnlineStats total;
  CongestionEstimate est;
  bool any = false;
  for (const auto& c : chunks) {
    if (!c.any) continue;
    total.merge(c.stats);
    if (!any) {
      est.min = c.min;
      est.max = c.max;
      any = true;
    } else {
      est.min = std::min(est.min, c.min);
      est.max = std::max(est.max, c.max);
    }
  }
  est.mean = total.mean();
  est.ci95 = total.ci95();
  est.trials = total.count();
  return est;
}

}  // namespace

CongestionEstimate estimate_congestion_2d(core::Scheme scheme,
                                          Pattern2d pattern,
                                          std::uint32_t width,
                                          std::uint64_t trials,
                                          std::uint64_t seed) {
  std::vector<ChunkAccumulator> chunks(kChunks);
  util::parallel_for_chunks(
      trials, kChunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        util::Pcg32 rng(seed ^ (0x32645f5472ull + chunk), chunk);
        Trials2d trial(scheme, pattern, width, seed);
        for (std::size_t t = begin; t < end; ++t) {
          chunks[chunk].add(trial.run(t, rng).congestion());
        }
      });
  return reduce(chunks);
}

util::Tally congestion_distribution_2d(core::Scheme scheme,
                                       Pattern2d pattern, std::uint32_t width,
                                       std::uint64_t trials,
                                       std::uint64_t seed) {
  util::Tally tally;
  util::Pcg32 rng(seed ^ 0x64697374ull, 0);
  Trials2d trial(scheme, pattern, width, seed);
  for (std::uint64_t t = 0; t < trials; ++t) {
    tally.add(trial.run(t, rng).congestion());
  }
  return tally;
}

CongestionProfile profile_congestion_2d(core::Scheme scheme,
                                        Pattern2d pattern, std::uint32_t width,
                                        std::uint64_t trials,
                                        std::uint64_t seed) {
  CongestionProfile profile;
  profile.bank_requests.assign(width, 0);
  util::OnlineStats stats;
  util::Pcg32 rng(seed ^ 0x64697374ull, 0);  // congestion_distribution_2d's stream
  Trials2d trial(scheme, pattern, width, seed);
  for (std::uint64_t t = 0; t < trials; ++t) {
    const core::BankTally& result = trial.run(t, rng);
    profile.distribution.add(result.congestion());
    stats.add(result.congestion());
    for (std::uint32_t b = 0; b < width; ++b) {
      profile.bank_requests[b] += result.bank_count(b);
    }
  }
  profile.estimate.mean = stats.mean();
  profile.estimate.ci95 = stats.ci95();
  profile.estimate.min = static_cast<std::uint32_t>(profile.distribution.min());
  profile.estimate.max = static_cast<std::uint32_t>(profile.distribution.max());
  profile.estimate.trials = stats.count();
  return profile;
}

CongestionEstimate estimate_congestion_4d(core::Scheme scheme,
                                          Pattern4d pattern,
                                          std::uint32_t width,
                                          std::uint64_t trials,
                                          std::uint64_t seed) {
  std::vector<ChunkAccumulator> chunks(kChunks);
  util::parallel_for_chunks(
      trials, kChunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        util::Pcg32 rng(seed ^ (0x34645f5472ull + chunk), chunk);
        // As in Trials2d: one map per worker, redrawn for each trial.
        const auto map =
            core::make_tensor4d_map(scheme, width, trial_map_seed(seed, 0));
        std::vector<std::uint64_t> addrs;
        core::BankTally tally;
        for (std::size_t t = begin; t < end; ++t) {
          core::redraw_tensor4d_map(*map, trial_map_seed(seed, t));
          warp_addresses_4d(pattern, *map, rng, addrs);
          core::tally_logical(addrs, *map, tally);
          chunks[chunk].add(tally.congestion());
        }
      });
  return reduce(chunks);
}

}  // namespace rapsim::access
