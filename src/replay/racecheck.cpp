#include "replay/racecheck.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/factory.hpp"
#include "dmm/machine.hpp"

namespace rapsim::replay {

namespace {

constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);

std::size_t warp_var_of(const analyze::KernelDesc& kernel,
                        const analyze::AccessSite& site) {
  if (site.warp.empty()) return kNoVar;
  return kernel.var_index(site.warp);
}

/// Variables whose value changes the site's addresses, excluding the
/// warp variable (enumerated inside each instruction, not across them).
/// Opaque indices may read any binding entry, so every variable counts.
std::vector<std::size_t> enumerated_vars(const analyze::KernelDesc& kernel,
                                         const analyze::AccessSite& site,
                                         std::size_t warp_var) {
  std::vector<std::size_t> vars;
  for (std::size_t v = 0; v < kernel.vars.size(); ++v) {
    if (v == warp_var) continue;
    bool relevant = true;
    switch (site.form) {
      case analyze::IndexForm::kFlat:
        relevant = site.flat.coeff(v) != 0;
        break;
      case analyze::IndexForm::kRowCol:
        relevant = site.row.coeff(v) != 0 || site.col.coeff(v) != 0;
        break;
      case analyze::IndexForm::kOpaque:
        relevant = true;
        break;
    }
    if (relevant) vars.push_back(v);
  }
  return vars;
}

dmm::ThreadOp make_op(analyze::AccessDir dir, std::uint64_t addr) {
  switch (dir) {
    case analyze::AccessDir::kLoad: return dmm::ThreadOp::load(addr);
    case analyze::AccessDir::kStore:
      // Race detection is value-independent; stores write immediate
      // zeros so lowering needs no register state.
      return dmm::ThreadOp::store_imm(addr, 0);
    case analyze::AccessDir::kAtomic: return dmm::ThreadOp::atomic_add(addr);
  }
  return dmm::ThreadOp::none();
}

}  // namespace

LoweredKernel lower_kernel_desc(const analyze::KernelDesc& kernel,
                                std::uint64_t max_instructions) {
  const auto errors = analyze::validate_kernel(kernel);
  if (!errors.empty()) {
    throw std::invalid_argument("lower_kernel_desc: kernel '" + kernel.name +
                                "' is invalid: " + errors.front());
  }
  const std::uint32_t w = kernel.width;

  // One warp per value of any site's warp variable; warp-less sites run
  // in warp 0 alone.
  std::uint64_t num_warps = 1;
  for (const analyze::AccessSite& site : kernel.sites) {
    const std::size_t wv = warp_var_of(kernel, site);
    if (wv != kNoVar) {
      num_warps = std::max(num_warps, kernel.vars[wv].count);
    }
  }

  LoweredKernel out;
  out.kernel.num_threads = static_cast<std::uint32_t>(num_warps) * w;

  std::size_t next_barrier = 0;
  for (std::size_t s = 0; s <= kernel.sites.size(); ++s) {
    while (next_barrier < kernel.barriers.size() &&
           kernel.barriers[next_barrier] == s) {
      out.kernel.push_barrier();
      ++next_barrier;
    }
    if (s == kernel.sites.size() || out.truncated) continue;

    const analyze::AccessSite& site = kernel.sites[s];
    const std::size_t wv = warp_var_of(kernel, site);
    const std::uint64_t warps = wv == kNoVar ? 1 : kernel.vars[wv].count;
    const std::uint32_t lanes = site.lanes == 0 ? w : site.lanes;
    const std::vector<std::size_t> loop_vars =
        enumerated_vars(kernel, site, wv);

    // Odometer over the non-warp variables; each binding is one
    // instruction in which EVERY warp value executes concurrently.
    std::vector<std::uint64_t> binding(kernel.vars.size(), 0);
    while (true) {
      if (out.kernel.instructions.size() >= max_instructions) {
        out.truncated = true;
        break;
      }
      dmm::Row instr(out.kernel.num_threads, dmm::ThreadOp::none());
      for (std::uint64_t g = 0; g < warps; ++g) {
        if (wv != kNoVar) binding[wv] = g;
        const std::vector<std::int64_t> addrs =
            analyze::materialize_site(kernel, site, binding);
        for (std::uint32_t lane = 0; lane < lanes; ++lane) {
          const std::uint32_t thread = static_cast<std::uint32_t>(g) * w + lane;
          instr[thread] =
              make_op(site.dir, static_cast<std::uint64_t>(addrs[lane]));
        }
      }
      if (wv != kNoVar) binding[wv] = 0;
      out.kernel.push(std::move(instr), site.name);

      std::size_t v = 0;
      for (; v < loop_vars.size(); ++v) {
        if (++binding[loop_vars[v]] < kernel.vars[loop_vars[v]].count) break;
        binding[loop_vars[v]] = 0;
      }
      if (v == loop_vars.size()) break;
    }
  }
  return out;
}

RaceCheckReport run_race_check(const analyze::KernelDesc& kernel,
                               const RaceCheckOptions& options) {
  LoweredKernel lowered = lower_kernel_desc(kernel, options.max_instructions);

  const auto map = core::make_matrix_map(options.scheme, kernel.width,
                                         kernel.rows, options.seed);
  dmm::Dmm machine(dmm::DmmConfig{kernel.width, /*latency=*/1}, *map);
  dmm::ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  // Pre-initialize every word so uninitialized-read findings cannot
  // crowd race findings out of the bounded record buffer.
  machine.fill_identity();
  (void)machine.run(lowered.kernel);

  RaceCheckReport report;
  report.truncated = lowered.truncated;
  report.raw_races = sanitizer.count(dmm::FindingKind::kRawRace);
  report.waw_races = sanitizer.count(dmm::FindingKind::kWawRace);
  report.war_races = sanitizer.count(dmm::FindingKind::kWarRace);
  for (const dmm::Finding& finding : sanitizer.findings()) {
    if (dmm::is_race_kind(finding.kind)) report.findings.push_back(finding);
  }
  return report;
}

WitnessReplay replay_race_witness(const analyze::KernelDesc& kernel,
                                  const analyze::RaceFinding& finding,
                                  core::Scheme scheme, std::uint64_t seed) {
  if (finding.first.address != finding.second.address) {
    throw std::invalid_argument(
        "replay_race_witness: witness addresses disagree (" +
        std::to_string(finding.first.address) + " vs " +
        std::to_string(finding.second.address) + ")");
  }
  const std::uint32_t w = kernel.width;
  const std::uint64_t addr = finding.first.address;

  // Two warps, two instructions: the program-order-first access in warp
  // 0, the second in warp 1. Round-robin dispatch starts at warp 0, so
  // the dynamic order matches program order and the sanitizer's
  // RAW/WAW/WAR classification must equal the static finding's kind.
  dmm::Kernel micro;
  micro.num_threads = 2 * w;
  dmm::Row first(micro.num_threads, dmm::ThreadOp::none());
  first[finding.first.lane] = make_op(finding.first.dir, addr);
  micro.push(std::move(first), finding.first.site);
  dmm::Row second(micro.num_threads, dmm::ThreadOp::none());
  second[w + finding.second.lane] = make_op(finding.second.dir, addr);
  micro.push(std::move(second), finding.second.site);

  const auto map = core::make_matrix_map(scheme, w, kernel.rows, seed);
  dmm::Dmm machine(dmm::DmmConfig{w, /*latency=*/1}, *map);
  dmm::ShmemSanitizer sanitizer;
  machine.set_sanitizer(&sanitizer);
  machine.fill_identity();
  (void)machine.run(micro);

  dmm::FindingKind expected = dmm::FindingKind::kRawRace;
  switch (finding.kind) {
    case analyze::RaceKind::kRaw:
      expected = dmm::FindingKind::kRawRace;
      break;
    case analyze::RaceKind::kWaw:
      expected = dmm::FindingKind::kWawRace;
      break;
    case analyze::RaceKind::kWar:
      expected = dmm::FindingKind::kWarRace;
      break;
  }

  WitnessReplay replay;
  replay.findings.assign(sanitizer.findings().begin(),
                         sanitizer.findings().end());
  for (const dmm::Finding& f : replay.findings) {
    if (f.kind == expected && f.logical == addr) {
      replay.triggered = true;
      break;
    }
  }
  return replay;
}

}  // namespace rapsim::replay
