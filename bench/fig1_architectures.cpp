// Reproduction of Figure 1: the DMM and UMM architectures.
//
// The figure is a block diagram (threads -> warps -> MMU -> memory
// banks); this demo prints the structural difference — per-bank address
// lines (DMM) vs one broadcast address line (UMM) — and then *executes*
// the difference: the same warp access costs 1 pipeline slot on the DMM
// when its addresses hit distinct banks in distinct rows, but one slot
// per distinct row on the UMM.

#include <cstdio>

#include "core/mapping.hpp"
#include "dmm/umm.hpp"

int main() {
  using namespace rapsim;
  constexpr std::uint32_t kWidth = 4, kLatency = 5;

  std::printf("== Figure 1: the DMM and the UMM (w = %u) ==\n\n", kWidth);
  std::printf(
      "  DMM                                UMM\n"
      "  T T T T  x %u warps                T T T T  x %u warps\n"
      "     |                                  |\n"
      "  [  MMU  ]  (l = %u pipeline)       [  MMU  ]\n"
      "   | | | |   one address per bank       |      one broadcast address\n"
      "  MB MB MB MB                       MB MB MB MB\n\n",
      kWidth, kWidth, kLatency);

  const core::AddressMap map(core::Scheme::kRaw, kWidth, kWidth);
  // A warp reading one cell per row AND per bank (the diagonal): the
  // defining workload that separates the two machines.
  dmm::Kernel kernel{kWidth, {}, {}};
  dmm::Row instr(kWidth);
  for (std::uint32_t t = 0; t < kWidth; ++t) {
    instr[t] = dmm::ThreadOp::load(static_cast<std::uint64_t>(t) * kWidth + t);
  }
  kernel.push(std::move(instr));

  dmm::Dmm on_dmm(dmm::dmm_config(kWidth, kLatency), map);
  dmm::Dmm on_umm(dmm::umm_config(kWidth, kLatency), map);
  const auto t_dmm = on_dmm.run(kernel);
  const auto t_umm = on_umm.run(kernel);

  std::printf("warp accesses {0, 5, 10, 15} (distinct banks, distinct rows):\n");
  std::printf("  DMM: %llu slot(s), completes at t = %llu  "
              "(each bank serves its own address)\n",
              static_cast<unsigned long long>(t_dmm.total_stages),
              static_cast<unsigned long long>(t_dmm.time));
  std::printf("  UMM: %llu slot(s), completes at t = %llu  "
              "(one row broadcast per slot)\n",
              static_cast<unsigned long long>(t_umm.total_stages),
              static_cast<unsigned long long>(t_umm.time));

  const bool ok = t_dmm.total_stages == 1 && t_umm.total_stages == kWidth;
  std::printf("\n%s\n", ok ? "reproduces the architectural contrast"
                           : "MISMATCH");
  return ok ? 0 : 1;
}
