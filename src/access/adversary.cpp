#include "access/adversary.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "access/pattern4d.hpp"
#include "core/congestion.hpp"

namespace rapsim::access {

namespace {

/// Generic oblivious attack: one cell per row. Rows can never self-collide
/// under any shift scheme (a row is rotated as a unit), so the adversary's
/// best generic move is to spread across rows and let the bank draws
/// collide; column choice is random to avoid accidentally hitting a
/// conflict-free sub-structure.
void one_cell_per_row_2d(const core::AddressMap& map, util::Pcg32& rng,
                         std::vector<std::uint64_t>& addrs) {
  const std::uint32_t w = map.width();
  for (std::uint32_t t = 0; t < w; ++t) {
    addrs.push_back(map.index(t, rng.bounded(w)));
  }
}

void one_cell_per_row_4d(const core::AddressMap& map, util::Pcg32& rng,
                         std::vector<std::uint64_t>& addrs) {
  const std::uint32_t w = map.width();
  for (std::uint32_t t = 0; t < w; ++t) {
    addrs.push_back(
        core::index(w, {t, rng.bounded(w), rng.bounded(w), rng.bounded(w)}));
  }
}

}  // namespace

std::vector<std::uint64_t> malicious_addresses_2d(const core::AddressMap& map,
                                                  util::Pcg32& rng) {
  std::vector<std::uint64_t> addrs;
  malicious_addresses_2d(map, rng, addrs);
  return addrs;
}

void malicious_addresses_2d(const core::AddressMap& map, util::Pcg32& rng,
                            std::vector<std::uint64_t>& addrs) {
  const std::uint32_t w = map.width();
  addrs.clear();
  addrs.reserve(w);
  switch (map.scheme()) {
    case core::Scheme::kRaw: {
      // All threads on one column: deterministically congestion w.
      const std::uint32_t column = rng.bounded(w);
      for (std::uint32_t t = 0; t < w; ++t) {
        addrs.push_back(map.index(t, column));
      }
      return;
    }
    case core::Scheme::kPad: {
      // The padding skew is public: cells on an anti-diagonal
      // (i + j = const mod w) all share bank (i + j) mod w.
      const std::uint32_t c = rng.bounded(w);
      for (std::uint32_t t = 0; t < w; ++t) {
        addrs.push_back(map.index(t, (c + w - t % w) % w));
      }
      return;
    }
    default:
      // RAS / RAP: no structured attack exists; one cell per row maximizes
      // the collision opportunities (RAP's cross-row collision probability
      // is 1/(w-1), slightly above RAS's 1/w — Section V).
      one_cell_per_row_2d(map, rng, addrs);
  }
}

std::vector<std::uint64_t> malicious_addresses_4d(const core::AddressMap& map,
                                                  util::Pcg32& rng) {
  std::vector<std::uint64_t> addrs;
  malicious_addresses_4d(map, rng, addrs);
  return addrs;
}

void malicious_addresses_4d(const core::AddressMap& map, util::Pcg32& rng,
                            std::vector<std::uint64_t>& addrs) {
  require_tensor4d(map, "malicious_addresses_4d");
  const std::uint32_t w = map.width();
  addrs.clear();
  addrs.reserve(w);

  switch (map.scheme()) {
    case core::Scheme::kRaw: {
      // Any w cells sharing the innermost coordinate l sit in bank l.
      const std::uint32_t l = rng.bounded(w);
      for (std::uint32_t t = 0; t < w; ++t) {
        addrs.push_back(
            core::index(w, {t, rng.bounded(w), rng.bounded(w), l}));
      }
      return;
    }
    case core::Scheme::kRap1P: {
      // shift = p[k]: fixing k and l pins the bank at (l + p[k]) mod w for
      // every (i, j) — the whole warp lands in one bank.
      const std::uint32_t k = rng.bounded(w);
      const std::uint32_t l = rng.bounded(w);
      for (std::uint32_t t = 0; t < w; ++t) {
        addrs.push_back(core::index(w, {0u, t, k, l}));
      }
      return;
    }
    case core::Scheme::kRapR1P: {
      // The paper's index-permutation attack: the 6 arrangements of a
      // distinct triple {a,b,c} all have shift p[a]+p[b]+p[c]; with a
      // common l each group of 6 requests lands in ONE bank regardless of
      // the draw. w/6 disjoint triples fill the warp.
      const std::uint32_t l = rng.bounded(w);
      const std::uint32_t groups = w / 6;
      for (std::uint32_t g = 0; g < groups; ++g) {
        const std::uint32_t a = 3 * g, b = 3 * g + 1, c = 3 * g + 2;
        const std::uint32_t perms[6][3] = {{a, b, c}, {a, c, b}, {b, a, c},
                                           {b, c, a}, {c, a, b}, {c, b, a}};
        for (const auto& ijk : perms) {
          addrs.push_back(core::index(w, {ijk[0], ijk[1], ijk[2], l}));
        }
      }
      // Fill the remaining threads with generic one-per-row cells drawn
      // from untouched i values so addresses stay distinct.
      std::uint32_t next_i = 3 * groups;
      while (addrs.size() < w) {
        addrs.push_back(core::index(
            w, {next_i % w, rng.bounded(w), rng.bounded(w), rng.bounded(w)}));
        ++next_i;
      }
      return;
    }
    case core::Scheme::kRapW2P:
    case core::Scheme::kRap1PW2R: {
      // shift depends on (i, j) through an independent draw per plane:
      // fixing k and l and varying (i, j) reduces to balls-in-bins — the
      // strongest oblivious structure available.
      const std::uint32_t k = rng.bounded(w);
      const std::uint32_t l = rng.bounded(w);
      for (std::uint32_t t = 0; t < w; ++t) {
        addrs.push_back(core::index(w, {t, rng.bounded(w), k, l}));
      }
      return;
    }
    case core::Scheme::kRas:
    case core::Scheme::kRap3P:
    default:
      // No structure to exploit; vary everything across rows.
      one_cell_per_row_4d(map, rng, addrs);
  }
}

AdversarySearchResult search_adversary(
    const std::function<std::unique_ptr<core::AddressMap>(std::uint64_t)>&
        make_map,
    std::uint32_t width, std::uint64_t domain_size, std::uint32_t iterations,
    std::uint32_t sample_draws, std::uint64_t seed) {
  util::Pcg32 rng(seed, /*stream=*/0xadull);

  const auto score = [&](const std::vector<std::uint64_t>& addrs) {
    double sum = 0.0;
    for (std::uint32_t d = 0; d < sample_draws; ++d) {
      const auto map = make_map(seed * 1315423911ull + d);
      sum += core::congestion_value(addrs, *map);
    }
    return sum / sample_draws;
  };

  const auto random_address = [&] {
    // domain_size may exceed 32 bits for large 4-D arrays; compose two
    // bounded draws.
    const std::uint64_t hi = domain_size >> 16;
    if (hi == 0) return static_cast<std::uint64_t>(rng.bounded(
        static_cast<std::uint32_t>(domain_size)));
    for (;;) {
      const std::uint64_t candidate =
          (static_cast<std::uint64_t>(rng.bounded(static_cast<std::uint32_t>(
               hi + 1)))
           << 16) |
          rng.bounded(1u << 16);
      if (candidate < domain_size) return candidate;
    }
  };

  // Start from distinct random addresses.
  std::unordered_set<std::uint64_t> used;
  std::vector<std::uint64_t> current;
  current.reserve(width);
  while (current.size() < width && used.size() < domain_size) {
    const std::uint64_t a = random_address();
    if (used.insert(a).second) current.push_back(a);
  }

  AdversarySearchResult best{current, score(current)};
  double current_score = best.mean_congestion;

  for (std::uint32_t it = 0; it < iterations; ++it) {
    const std::uint32_t victim = rng.bounded(width);
    const std::uint64_t old_addr = current[victim];
    const std::uint64_t new_addr = random_address();
    if (used.contains(new_addr)) continue;
    used.erase(old_addr);
    used.insert(new_addr);
    current[victim] = new_addr;
    const double s = score(current);
    if (s >= current_score) {
      current_score = s;
      if (s > best.mean_congestion) best = {current, s};
    } else {
      used.erase(new_addr);
      used.insert(old_addr);
      current[victim] = old_addr;
    }
  }
  return best;
}

}  // namespace rapsim::access
