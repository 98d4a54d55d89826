// Property-based suites: randomized sweeps over seeds, widths and
// patterns pinning down the library-wide invariants listed in DESIGN.md.

#include <gtest/gtest.h>

#include <set>

#include "access/montecarlo.hpp"
#include "access/pattern2d.hpp"
#include "access/pattern4d.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "core/theory.hpp"
#include "dmm/machine.hpp"
#include "vm/assembler.hpp"
#include "workloads/catalog.hpp"
#include "workloads/run.hpp"

namespace rapsim {
namespace {

using core::Scheme;

// Invariant 2 (DESIGN.md): RAP stride and contiguous congestion is exactly
// 1 for every width and every seed — Theorem 2's deterministic part.
class RapDeterministicOnes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RapDeterministicOnes, StrideAndContiguousAlwaysOne) {
  const std::uint32_t w = GetParam();
  util::Pcg32 rng(w);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto map = core::make_matrix_map(Scheme::kRap, w, w, seed);
    for (std::uint32_t warp = 0; warp < w; ++warp) {
      const auto stride = warp_addresses_2d(access::Pattern2d::kStride, *map,
                                            warp, rng);
      EXPECT_EQ(core::congestion_value(stride, *map), 1u);
      const auto contiguous = warp_addresses_2d(
          access::Pattern2d::kContiguous, *map, warp, rng);
      EXPECT_EQ(core::congestion_value(contiguous, *map), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RapDeterministicOnes,
                         ::testing::Values(2u, 3u, 4u, 7u, 8u, 16u, 32u, 64u),
                         [](const auto& param_info) {
                           return "w" + std::to_string(param_info.param);
                         });

// Congestion is invariant under merging: appending duplicates of existing
// addresses never changes the congestion.
TEST(CongestionProperties, DuplicationInvariance) {
  util::Pcg32 rng(100);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t w = 4u << rng.bounded(4);  // 4..32
    const auto map = core::make_matrix_map(Scheme::kRas, w, w, trial);
    auto addrs = warp_addresses_2d(access::Pattern2d::kRandom, *map, 0, rng);
    const auto base = core::congestion_value(addrs, *map);
    // Duplicate a random subset.
    const std::size_t n = addrs.size();
    for (std::size_t d = 0; d < n / 2; ++d) {
      addrs.push_back(addrs[rng.bounded(static_cast<std::uint32_t>(n))]);
    }
    EXPECT_EQ(core::congestion_value(addrs, *map), base);
  }
}

// Congestion bounds: 1 <= C <= min(#unique, w) for any non-empty access.
TEST(CongestionProperties, RangeBounds) {
  util::Pcg32 rng(200);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t w = 2u << rng.bounded(6);  // 2..64
    const auto map = core::make_matrix_map(Scheme::kRap, w, w, trial);
    const auto addrs =
        warp_addresses_2d(access::Pattern2d::kRandom, *map, 0, rng);
    const auto r = core::congestion_of_logical(addrs, *map);
    EXPECT_GE(r.congestion, 1u);
    EXPECT_LE(r.congestion, std::min<std::uint32_t>(r.unique_requests, w));
  }
}

// Permuting the thread-to-address assignment never changes congestion
// (congestion is a property of the address multiset).
TEST(CongestionProperties, ThreadOrderInvariance) {
  util::Pcg32 rng(300);
  const auto map = core::make_matrix_map(Scheme::kRas, 16, 16, 1);
  for (int trial = 0; trial < 100; ++trial) {
    auto addrs = warp_addresses_2d(access::Pattern2d::kRandom, *map, 0, rng);
    const auto base = core::congestion_value(addrs, *map);
    for (std::size_t i = addrs.size(); i > 1; --i) {
      std::swap(addrs[i - 1], addrs[rng.bounded(static_cast<std::uint32_t>(i))]);
    }
    EXPECT_EQ(core::congestion_value(addrs, *map), base);
  }
}

// DMM timing monotonicity: total stages never exceed time + 1 - latency
// ... precisely: time >= total_stages + latency - 1 is false in general
// (pipelining overlaps), but time >= stages of any single dispatch +
// latency - 1 and time >= dispatches' last slot. We check two sound
// bounds: time >= latency (any non-empty kernel) and
// time <= total_stages * latency * dispatches upper envelope.
TEST(DmmProperties, TimeBounds) {
  util::Pcg32 rng(400);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t w = 4u << rng.bounded(3);  // 4..16
    const std::uint32_t l = 1 + rng.bounded(8);
    const auto map = core::make_matrix_map(Scheme::kRap, w, w, trial);
    dmm::Dmm machine(dmm::DmmConfig{w, l}, *map);
    dmm::Kernel kernel;
    kernel.num_threads = w * w;
    dmm::Row instr(kernel.num_threads);
    for (std::uint32_t t = 0; t < kernel.num_threads; ++t) {
      instr[t] = dmm::ThreadOp::load(rng.bounded(w * w));
    }
    kernel.push(std::move(instr));
    const auto stats = machine.run(kernel);
    EXPECT_GE(stats.time, l);
    EXPECT_GE(stats.time, stats.total_stages + l - 1);  // single round: all
    // dispatches are independent single instructions, so they pack densely:
    EXPECT_LE(stats.time, stats.total_stages + l);
  }
}

/// The catalog transpose `name` at width `w`, lowered.
vm::LoweredProgram transpose_program(const char* name, std::uint32_t w) {
  return vm::lower_program(
      vm::assemble(workloads::workload_program(name, w).text, w));
}

// A transpose through ANY row-rotation mapping is an involution: running
// CRSW from A to B, then CRSW from B back into a third region, recovers A.
// (We emulate by running twice with roles swapped via fresh machines.)
TEST(TransposeProperties, DoubleTransposeIsIdentity) {
  util::Pcg32 rng(500);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t w = 4u << rng.bounded(3);
    const auto scheme =
        std::vector<Scheme>{Scheme::kRaw, Scheme::kRas,
                            Scheme::kRap}[rng.bounded(3)];
    const vm::LoweredProgram crsw = transpose_program("transpose-crsw", w);
    const vm::LoweredProgram srcw = transpose_program("transpose-srcw", w);
    const auto map = core::make_matrix_map(scheme, w, crsw.rows, trial + 1);
    dmm::Dmm machine(dmm::DmmConfig{w, 1}, *map);
    // A at rows [0, w), B at rows [w, 2w).
    const std::uint64_t b = std::uint64_t{w} * w;

    // Fill A with arbitrary values.
    std::vector<std::uint64_t> original(w * w);
    for (std::uint64_t k = 0; k < b; ++k) {
      original[k] = rng();
      machine.store(k, original[k]);
    }
    // Transpose A -> B, copy B -> A, transpose A -> B again.
    machine.run(crsw.kernel);
    for (std::uint64_t k = 0; k < b; ++k) machine.store(k, machine.load(b + k));
    machine.run(srcw.kernel);
    for (std::uint64_t k = 0; k < b; ++k) {
      EXPECT_EQ(machine.load(b + k), original[k]);
    }
  }
}

// All three algorithms agree: same input, same transposed output.
TEST(TransposeProperties, AlgorithmsAgree) {
  const std::uint32_t w = 16;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<std::vector<std::uint64_t>> results;
    for (const char* name :
         {"transpose-crsw", "transpose-srcw", "transpose-drdw"}) {
      const workloads::Workload entry = workloads::workload_program(name, w);
      const vm::LoweredProgram program =
          vm::lower_program(vm::assemble(entry.text, w));
      const auto map = core::make_matrix_map(Scheme::kRap, w, program.rows,
                                             seed);
      dmm::Dmm machine(dmm::DmmConfig{w, 1}, *map);
      EXPECT_TRUE(
          workloads::run_program(program, entry.reference, machine, seed)
              .correct);
      std::vector<std::uint64_t> b;
      for (std::uint64_t k = 0; k < std::uint64_t{w} * w; ++k) {
        b.push_back(machine.load(std::uint64_t{w} * w + k));
      }
      results.push_back(std::move(b));
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[1], results[2]);
  }
}

// Expected congestion grows sub-logarithmically: the measured RAP
// malicious congestion at 4w stays below twice the value at w (the
// log/loglog growth the theorem predicts is much flatter than linear).
TEST(ScalingProperties, CongestionGrowthIsSubLinear) {
  const auto at = [](std::uint32_t w) {
    return access::estimate_congestion_2d(Scheme::kRap,
                                          access::Pattern2d::kMalicious, w,
                                          3000, 42).mean;
  };
  const double c16 = at(16);
  const double c64 = at(64);
  const double c256 = at(256);
  EXPECT_LT(c64, 2.0 * c16);
  EXPECT_LT(c256, 2.0 * c64);
  EXPECT_GT(c64, c16);   // but it does grow
  EXPECT_GT(c256, c64);
}

// Theorem 2's proof device: a warp's congestion never exceeds the sum of
// its two half-warps' congestions (the decomposition the paper uses to
// sidestep the permutation entries' dependence). Verified empirically on
// random and malicious accesses.
TEST(Theorem2ProofDevice, WarpCongestionBoundedByHalfWarpSum) {
  util::Pcg32 rng(600);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t w = 8u << rng.bounded(3);  // 8..32
    const auto map = core::make_matrix_map(Scheme::kRap, w, w, trial);
    const auto pattern = trial % 2 ? access::Pattern2d::kRandom
                                   : access::Pattern2d::kMalicious;
    const auto addrs = warp_addresses_2d(pattern, *map, 0, rng);
    ASSERT_EQ(addrs.size(), w);
    const std::vector<std::uint64_t> first_half(addrs.begin(),
                                                addrs.begin() + w / 2);
    const std::vector<std::uint64_t> second_half(addrs.begin() + w / 2,
                                                 addrs.end());
    const auto full = core::congestion_value(addrs, *map);
    const auto half_sum = core::congestion_value(first_half, *map) +
                          core::congestion_value(second_half, *map);
    EXPECT_LE(full, half_sum);
  }
}

// The rejection loop bounded() used before its two shortcuts.
std::uint32_t reference_bounded(util::Pcg32& rng, std::uint32_t bound) {
  if (bound <= 1) return 0;
  const std::uint32_t threshold = (0u - bound) % bound;
  for (;;) {
    const std::uint32_t r = rng();
    if (r >= threshold) return r % bound;
  }
}

// Pcg32::bounded's power-of-two and r >= bound shortcuts change no draw:
// same outputs and the same generator state afterwards.
TEST(RngProperties, BoundedShortcutsMatchTheRejectionLoop) {
  std::vector<std::uint32_t> bounds = {1u, 2u, 3u, 1u << 31, 0xffffffffu};
  for (unsigned k = 2; k < 32; ++k) {
    bounds.insert(bounds.end(), {(1u << k) - 1, 1u << k, (1u << k) + 1});
  }
  for (const std::uint32_t bound : bounds) {
    util::Pcg32 fast(bound, 5);
    util::Pcg32 reference(bound, 5);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(fast.bounded(bound), reference_bounded(reference, bound))
          << "bound " << bound << " draw " << i;
    }
    for (int i = 0; i < 4; ++i) EXPECT_EQ(fast(), reference());
  }
}

// An in-place redraw is the freshly built map: same translate everywhere.
TEST(MappingProperties, RedrawEqualsFreshMap) {
  for (const Scheme scheme : {Scheme::kRas, Scheme::kRap}) {
    for (const std::uint32_t w : {16u, 24u, 256u}) {
      const auto reused = core::make_matrix_map(scheme, w, w, 0);
      for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        core::redraw_matrix_map(*reused, seed);
        const auto fresh = core::make_matrix_map(scheme, w, w, seed);
        for (std::uint64_t a = 0; a < fresh->size(); ++a) {
          ASSERT_EQ(reused->translate(a), fresh->translate(a))
              << core::scheme_name(scheme) << " w=" << w << " seed " << seed;
        }
      }
    }
  }
}

// 4-D property: random access congestion is scheme-invariant (every
// scheme's random-access row of Table IV is the same O(log/loglog)).
TEST(Properties4d, RandomAccessSchemeInvariance) {
  constexpr std::uint32_t w = 16;
  double reference = -1;
  for (const Scheme s : core::table4_schemes()) {
    const auto c = access::estimate_congestion_4d(
        s, access::Pattern4d::kRandom, w, 4000, 9);
    if (reference < 0) {
      reference = c.mean;
    } else {
      EXPECT_NEAR(c.mean, reference, 0.15) << core::scheme_name(s);
    }
  }
}

}  // namespace
}  // namespace rapsim
