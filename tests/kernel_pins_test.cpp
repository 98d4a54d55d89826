// Digest pins of everything a dmm::Kernel feeds.
//
// The digests below were recorded while kernels were still stored as
// dense rows (num_threads ThreadOps per instruction). The sparse store
// that replaced them must reproduce every one: the kernel content of
// each producer, the captured traces, the Dmm's run statistics and
// dispatch trace, and every HierSim counter. A digest is FNV-1a 64 over
// the values' little-endian words (util/hash.hpp); doubles are hashed by
// their bit patterns, so "equal" means bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "dmm/machine.hpp"
#include "hier/hier.hpp"
#include "replay/replay.hpp"
#include "replay/trace.hpp"
#include "util/hash.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/suite.hpp"
#include "workload_kernels.hpp"

namespace {

using namespace rapsim;

constexpr std::uint32_t kLatency = 2;
constexpr std::uint64_t kSeed = 42;

class Digest {
 public:
  void add(std::uint64_t word) { hash_ = util::fnv1a_u64(word, hash_); }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const std::string& text) {
    add(std::uint64_t{text.size()});
    hash_ = util::fnv1a(text, hash_);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = util::kFnvOffsetBasis;
};

/// (instr, thread, kind, logical, immediate, reg, reg2) of every active
/// op in ascending instruction and thread order, plus the labels.
void add_kernel(Digest& d, const dmm::Kernel& kernel) {
  d.add(std::uint64_t{kernel.num_threads});
  d.add(std::uint64_t{kernel.instructions.size()});
  for (std::size_t i = 0; i < kernel.instructions.size(); ++i) {
    const dmm::Instruction instr = kernel.instructions[i];
    const auto threads = instr.threads();
    for (std::size_t k = 0; k < instr.size(); ++k) {
      const dmm::ThreadOp& op = instr[k];
      d.add(std::uint64_t{i});
      d.add(std::uint64_t{threads[k]});
      d.add(std::uint64_t{static_cast<std::uint8_t>(op.kind)});
      d.add(op.logical);
      d.add(op.immediate);
      d.add(std::uint64_t{op.reg});
      d.add(std::uint64_t{op.reg2});
    }
  }
  d.add(std::uint64_t{kernel.labels.size()});
  for (const std::string& label : kernel.labels) d.add(label);
}

void add_stats(Digest& d, const dmm::RunStats& stats) {
  d.add(stats.time);
  d.add(stats.total_stages);
  d.add(stats.dispatches);
  d.add(std::uint64_t{stats.max_congestion});
  d.add(stats.avg_congestion);
}

constexpr core::Scheme kSchemes[] = {core::Scheme::kRaw, core::Scheme::kRas,
                                     core::Scheme::kRap, core::Scheme::kPad};

struct WidthPins {
  std::uint32_t width;
  std::uint64_t catalog;    // tools::workload_kernels(w)
  std::uint64_t suite;      // lowered vm::suite_programs(w)
  std::uint64_t replayed;   // lower_to_kernel of each catalog capture
  std::uint64_t captures;   // to_binary(capture_run) x scheme
  std::uint64_t runs;       // Dmm::run stats + dispatch CSV x scheme
};

// Recorded from the dense-row kernels, except `catalog`: it was
// re-recorded when transpose, reduction and matmul became programs. Their
// lowered kernels carry site labels where the C++ builders left labels
// empty, and matmul binds A to machine register 0 and the accumulator to
// register 1 (the builder used 1 and 0); every op, thread and address is
// the builder's, which the unchanged captures/runs digests confirm.
constexpr WidthPins kWidthPins[] = {
    {16, 0xafcef2f5bc7fbed5, 0xd9527c6e36026c6a, 0xe04c0d112c7685d8,
     0x7a54be45cb4d60f9, 0x6accb32ecc830c03},
    {32, 0x4caa8c2d99c663e7, 0x103ab38a786effd5, 0x6b4bdaad3ed5dfb3,
     0x972b36d7d43d984d, 0xcd2d20fb31bdcb3d},
    {64, 0x35dbd6b059339480, 0xf0e87261b30697ea, 0xb905e9b1c10b8005,
     0xd390f1015976bb5d, 0x094bde252fc53d46},
};

TEST(KernelPins, ProducersCapturesAndRunsMatchTheDenseRowDigests) {
  for (const WidthPins& pins : kWidthPins) {
    const std::uint32_t w = pins.width;
    const std::string label = "w=" + std::to_string(w);
    Digest catalog, suite, replayed, captures, runs;
    for (const tools::WorkloadKernel& entry : tools::workload_kernels(w)) {
      catalog.add(entry.name);
      add_kernel(catalog, entry.kernel);
      {
        const auto map =
            core::make_matrix_map(core::Scheme::kRaw, w, entry.rows, 0);
        dmm::Dmm recorder(dmm::DmmConfig{w, kLatency}, *map);
        add_kernel(replayed, replay::lower_to_kernel(
                                 replay::capture_run(recorder, entry.kernel)));
      }
      for (const core::Scheme scheme : kSchemes) {
        const auto map = core::make_matrix_map(scheme, w, entry.rows, kSeed);
        dmm::Dmm machine(dmm::DmmConfig{w, kLatency}, *map);
        captures.add(
            replay::to_binary(replay::capture_run(machine, entry.kernel)));
        dmm::Dmm fresh(dmm::DmmConfig{w, kLatency}, *map);
        dmm::Trace trace;
        add_stats(runs, fresh.run(entry.kernel, &trace));
        runs.add(trace.to_csv());
      }
    }
    for (const vm::SuiteProgram& program : vm::suite_programs(w)) {
      suite.add(program.name);
      add_kernel(suite,
                 vm::lower_program(vm::assemble(program.text, w)).kernel);
    }
    EXPECT_EQ(catalog.value(), pins.catalog) << label << " catalog";
    EXPECT_EQ(suite.value(), pins.suite) << label << " suite";
    EXPECT_EQ(replayed.value(), pins.replayed) << label << " replayed";
    EXPECT_EQ(captures.value(), pins.captures) << label << " captures";
    EXPECT_EQ(runs.value(), pins.runs) << label << " runs";
  }
}

void add_hier(Digest& d, const hier::HierResult& r) {
  d.add(r.cycles);
  d.add(r.dispatches);
  d.add(r.total_stages);
  d.add(std::uint64_t{r.max_congestion});
  d.add(r.avg_congestion);
  d.add(r.l2_hits);
  d.add(r.l2_misses);
  d.add(r.l2_queue_cycles);
  d.add(r.est_ns);
  d.add(std::uint64_t{r.sms.size()});
  for (const hier::SmStats& sm : r.sms) {
    d.add(std::uint64_t{sm.sm});
    add_stats(d, sm.run);
    d.add(sm.idle_slots);
    d.add(sm.warp_stall_slots);
    d.add(sm.l1_hits);
    d.add(sm.l1_misses);
    d.add(sm.l2_hits);
    d.add(sm.dram_fills);
    d.add(sm.mshr_stall_cycles);
    d.add(sm.mem_wait_cycles);
    d.add(sm.est_ns);
    d.add(std::uint64_t{sm.warp_dispatches.size()});
    for (const std::uint64_t count : sm.warp_dispatches) d.add(count);
  }
}

TEST(KernelPins, HierResultsMatchTheDenseRowDigests) {
  constexpr std::uint32_t w = 32;
  const struct {
    const char* program;
    std::uint64_t digest;
  } pins[] = {{"vm-bitonic", 0xe2541e4276132a45},
               {"vm-shearsort", 0xbecead01019795a1}};
  for (const auto& pin : pins) {
    const vm::LoweredProgram lowered = vm::lower_program(
        vm::assemble(vm::suite_program(pin.program, w).text, w));
    Digest d;
    for (const std::uint64_t seed : {1u, 2u}) {
      const auto map =
          core::make_matrix_map(core::Scheme::kRap, w, lowered.rows, seed);
      for (const std::uint32_t sms : {1u, 2u, 4u}) {
        for (const char* scheduler : {"roundrobin", "gto", "dwr"}) {
          hier::HierConfig config;
          config.sms = sms;
          config.width = w;
          config.scheduler = scheduler;
          config.path = hier::PathParams::defaults();
          config.path.l1.lines = 4;
          config.path.mshrs = 2;
          hier::HierSim sim(config, *map);
          add_hier(d, sim.run(lowered.kernel, core::Scheme::kRap));
        }
      }
    }
    EXPECT_EQ(d.value(), pin.digest) << pin.program;
  }
}

}  // namespace
