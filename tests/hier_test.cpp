// Unit tests for the hierarchy subsystem (src/hier/): the event core's
// decision semantics against a synthetic warp source, the three
// scheduler policies (including DWR's macro-warp resizing), the
// LRU/shared-path/MSHR memory models, HierSim plumbing, and metric
// flushing. The bit-for-bit pin against the plain Dmm lives in
// hier_differential_test.cpp.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "dmm/kernel.hpp"
#include "dmm/machine.hpp"
#include "hier/event.hpp"
#include "hier/hier.hpp"
#include "hier/memory.hpp"
#include "hier/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/suite.hpp"

namespace {

using namespace rapsim;

// --- synthetic warp source --------------------------------------------------

/// A scriptable source: each warp executes a fixed list of "instructions"
/// (stages, extra_latency, barrier flag); pc is the index into the warp's
/// own list. Barrier entries are consumed by the core's release branch
/// (issue is never called on them).
struct ScriptOp {
  std::uint32_t stages = 1;
  std::uint64_t extra_latency = 0;
  bool barrier = false;
};

class ScriptSource final : public hier::WarpSource {
 public:
  explicit ScriptSource(std::vector<std::vector<ScriptOp>> script)
      : script_(std::move(script)), pc_(script_.size(), 0) {}

  [[nodiscard]] bool done(std::uint32_t warp) const override {
    return pc_[warp] >= script_[warp].size();
  }
  [[nodiscard]] bool at_barrier(std::uint32_t warp) const override {
    return !done(warp) && script_[warp][pc_[warp]].barrier;
  }
  [[nodiscard]] std::size_t pc(std::uint32_t warp) const override {
    return pc_[warp];
  }
  [[nodiscard]] hier::IssueResult issue(std::uint32_t warp) override {
    const ScriptOp& op = script_[warp][pc_[warp]];
    ++issues_;
    return {op.stages, 1, op.stages, op.extra_latency};
  }
  void advance(std::uint32_t warp) override { ++pc_[warp]; }

  [[nodiscard]] std::uint64_t issues() const noexcept { return issues_; }

 private:
  std::vector<std::vector<ScriptOp>> script_;
  std::vector<std::size_t> pc_;
  std::uint64_t issues_ = 0;
};

class RecordingHooks final : public hier::CoreHooks {
 public:
  void on_idle(std::uint64_t slots) override { idle_slots += slots; }
  void on_dispatch(const hier::DispatchEvent& event) override {
    dispatches.push_back(event);
  }
  void on_barrier_release(std::size_t pc) override {
    barrier_pcs.push_back(pc);
  }

  std::uint64_t idle_slots = 0;
  std::vector<hier::DispatchEvent> dispatches;
  std::vector<std::size_t> barrier_pcs;
};

// --- EventCore --------------------------------------------------------------

TEST(EventCore, SingleWarpTimingMatchesClosedForm) {
  // One warp, two instructions of c = 3 stages, latency l = 5: the first
  // occupies slots [0, 2] and completes at 0 + 3 + 5 - 1 = 7; the warp
  // re-issues at 8 (the pipeline idles slots 3..7), so the second
  // completes at 8 + 3 + 5 - 1 = 15.
  ScriptSource source({{{3, 0, false}, {3, 0, false}}});
  hier::RoundRobinScheduler sched;
  sched.reset(1);
  hier::EventCore core(1, 5);
  RecordingHooks hooks;
  const hier::DispatchTotals& totals = core.run(source, sched, &hooks);

  ASSERT_EQ(hooks.dispatches.size(), 2u);
  EXPECT_EQ(hooks.dispatches[0].start, 0u);
  EXPECT_EQ(hooks.dispatches[0].completion, 7u);
  EXPECT_EQ(hooks.dispatches[1].start, 8u);
  EXPECT_EQ(hooks.dispatches[1].completion, 15u);
  EXPECT_EQ(hooks.idle_slots, 5u);  // pipeline waits 3 -> 8
  EXPECT_EQ(totals.last_completion, 15u);
  EXPECT_EQ(totals.total_stages, 6u);
  EXPECT_EQ(totals.dispatches, 2u);
  EXPECT_EQ(totals.max_congestion, 3u);
  EXPECT_DOUBLE_EQ(totals.avg_congestion(), 3.0);
}

TEST(EventCore, ExtraLatencyDelaysCompletionNotPipeline) {
  // Warp 0's first instruction carries a 100-cycle path penalty. The
  // pipeline slot after it is still start + stages: warp 1 dispatches at
  // slot 2 unaffected; only warp 0's own completion and re-issue move.
  ScriptSource source({{{2, 100, false}, {1, 0, false}}, {{2, 0, false}}});
  hier::RoundRobinScheduler sched;
  sched.reset(2);
  hier::EventCore core(2, 1);
  RecordingHooks hooks;
  const hier::DispatchTotals& totals = core.run(source, sched, &hooks);

  ASSERT_EQ(hooks.dispatches.size(), 3u);
  EXPECT_EQ(hooks.dispatches[0].warp, 0u);
  EXPECT_EQ(hooks.dispatches[0].completion, 102u);  // 0 + 2 + 1 - 1 + 100
  EXPECT_EQ(hooks.dispatches[1].warp, 1u);
  EXPECT_EQ(hooks.dispatches[1].start, 2u);  // pipeline not blocked
  EXPECT_EQ(hooks.dispatches[2].warp, 0u);
  EXPECT_EQ(hooks.dispatches[2].start, 103u);  // waits for its own fill
  EXPECT_EQ(totals.last_completion, 104u);     // 103 + 1 + 1 - 1
}

TEST(EventCore, BarrierReleasesAllParkedWarpsTogether) {
  // Two warps, each: one access, a barrier, one access. The barrier must
  // fire exactly once at the common pc and both warps resume from the
  // max outstanding ready time.
  const std::vector<ScriptOp> per_warp = {
      {2, 0, false}, {0, 0, true}, {1, 0, false}};
  ScriptSource source({per_warp, per_warp});
  hier::RoundRobinScheduler sched;
  sched.reset(2);
  hier::EventCore core(2, 3);
  RecordingHooks hooks;
  core.run(source, sched, &hooks);

  ASSERT_EQ(hooks.barrier_pcs.size(), 1u);
  EXPECT_EQ(hooks.barrier_pcs[0], 1u);
  ASSERT_EQ(hooks.dispatches.size(), 4u);
  // Pre-barrier: warp 0 in slots [0,1] completes 4 (ready 5), warp 1 in
  // [2,3] completes 6 (ready 7). Release = max ready = 7.
  EXPECT_GE(hooks.dispatches[2].start, 7u);
  EXPECT_GE(hooks.dispatches[3].start, 7u);
}

TEST(EventCore, RegisterOnlyInstructionsProduceNoDispatchRecords) {
  ScriptSource source({{{0, 0, false}, {2, 0, false}}});
  hier::RoundRobinScheduler sched;
  sched.reset(1);
  hier::EventCore core(1, 1);
  RecordingHooks hooks;
  const hier::DispatchTotals& totals = core.run(source, sched, &hooks);
  EXPECT_EQ(source.issues(), 2u);          // both executed...
  EXPECT_EQ(hooks.dispatches.size(), 1u);  // ...one dispatched
  EXPECT_EQ(totals.dispatches, 1u);
}

TEST(EventCore, RejectsZeroLatencyAndRogueSchedulers) {
  EXPECT_THROW(hier::EventCore(1, 0), std::invalid_argument);

  class Rogue final : public hier::Scheduler {
   public:
    [[nodiscard]] const char* name() const noexcept override {
      return "rogue";
    }
    void reset(std::uint32_t) override {}
    [[nodiscard]] std::uint32_t pick(const hier::SchedulerView&) override {
      return 999;  // never a candidate
    }
    void on_dispatch(std::uint32_t) override {}
  };
  ScriptSource source({{{1, 0, false}}});
  Rogue rogue;
  hier::EventCore core(1, 1);
  EXPECT_THROW(core.step(source, rogue, nullptr), std::logic_error);
}

// --- schedulers -------------------------------------------------------------

/// Forwards to a source and counts the warp-state queries (done,
/// at_barrier, pc) and advances the core makes.
class CountingSource final : public hier::WarpSource {
 public:
  explicit CountingSource(hier::WarpSource& inner) : inner_(inner) {}

  [[nodiscard]] bool done(std::uint32_t warp) const override {
    ++queries_;
    return inner_.done(warp);
  }
  [[nodiscard]] bool at_barrier(std::uint32_t warp) const override {
    ++queries_;
    return inner_.at_barrier(warp);
  }
  [[nodiscard]] std::size_t pc(std::uint32_t warp) const override {
    ++queries_;
    return inner_.pc(warp);
  }
  [[nodiscard]] hier::IssueResult issue(std::uint32_t warp) override {
    return inner_.issue(warp);
  }
  void advance(std::uint32_t warp) override {
    ++advances_;
    inner_.advance(warp);
  }

  [[nodiscard]] std::uint64_t queries() const noexcept { return queries_; }
  [[nodiscard]] std::uint64_t advances() const noexcept { return advances_; }

 private:
  hier::WarpSource& inner_;
  mutable std::uint64_t queries_ = 0;
  std::uint64_t advances_ = 0;
};

TEST(EventCore, QueriesWarpStateOnlyAtStartAndAfterAnAdvance) {
  // A source's state changes only in advance(), so the core reads each
  // warp's done / at_barrier / pc once at its first step and once after
  // each advance — not three times per warp per step, which cost 99,044
  // queries for the 9,140 advances of this sorting network.
  constexpr std::uint32_t w = 32;
  const vm::LoweredProgram lowered = vm::lower_program(
      vm::assemble(vm::suite_program("vm-bitonic", w).text, w));
  const auto map =
      core::make_matrix_map(core::Scheme::kRap, w, lowered.rows, 1);
  for (const char* policy : {"roundrobin", "gto", "dwr"}) {
    dmm::Dmm machine(dmm::DmmConfig{w, 2}, *map);
    machine.begin_run(lowered.kernel);
    dmm::KernelWarpSource inner(machine, lowered.kernel);
    CountingSource source(inner);
    const auto scheduler = hier::make_scheduler(policy);
    scheduler->reset(inner.num_warps());
    hier::EventCore core(inner.num_warps(), 2);
    (void)core.run(source, *scheduler);
    ASSERT_GT(source.advances(), 1000u) << policy;
    EXPECT_LE(source.queries(),
              3 * std::uint64_t{inner.num_warps()} + 3 * source.advances())
        << policy;
  }

  // The same bound over a scripted source with barriers and idle gaps.
  ScriptSource script({{{2, 0}, {1, 0, true}, {1, 5}},
                       {{1, 3}, {1, 0, true}},
                       {{3, 0}, {1, 0, true}, {1, 0}}});
  CountingSource counted(script);
  hier::RoundRobinScheduler rr;
  rr.reset(3);
  hier::EventCore core(3, 2);
  (void)core.run(counted, rr);
  EXPECT_EQ(counted.advances(), 8u);
  EXPECT_LE(counted.queries(), 3 * 3 + 3 * counted.advances())
      << "per-step scan: 58";
}

TEST(Scheduler, FactoryNamesAndErrors) {
  for (const std::string& name : hier::scheduler_names()) {
    EXPECT_NE(hier::make_scheduler(name), nullptr);
  }
  EXPECT_EQ(hier::make_scheduler("rr")->name(),
            std::string("roundrobin"));  // alias
  EXPECT_THROW(hier::make_scheduler("fifo"), std::invalid_argument);
}

TEST(Scheduler, RoundRobinCyclesThroughCandidates) {
  hier::RoundRobinScheduler sched;
  sched.reset(4);
  const std::vector<std::uint32_t> all = {0, 1, 2, 3};
  const std::vector<std::uint64_t> ready(4, 0);

  EXPECT_EQ(sched.pick({all, ready, 0}), 0u);
  sched.on_dispatch(0);
  EXPECT_EQ(sched.pick({all, ready, 0}), 1u);
  sched.on_dispatch(3);
  EXPECT_EQ(sched.pick({all, ready, 0}), 0u);  // wraps past 3

  // With a hole at the pointer, the next candidate in cyclic order wins.
  sched.on_dispatch(0);  // pointer -> 1
  const std::vector<std::uint32_t> holes = {0, 2, 3};
  EXPECT_EQ(sched.pick({holes, ready, 0}), 2u);
}

TEST(Scheduler, GreedySticksUntilWarpLeavesCandidates) {
  hier::GreedyThenOldestScheduler sched;
  sched.reset(3);
  const std::vector<std::uint32_t> all = {0, 1, 2};
  const std::vector<std::uint64_t> ready = {5, 3, 4};

  // No history: oldest (minimum ready time) wins.
  EXPECT_EQ(sched.pick({all, ready, 5}), 1u);
  sched.on_dispatch(1);
  // Greedy: 1 again while it remains a candidate.
  EXPECT_EQ(sched.pick({all, ready, 5}), 1u);
  sched.on_dispatch(1);
  // 1 gone: falls back to the oldest of the rest.
  const std::vector<std::uint32_t> rest = {0, 2};
  EXPECT_EQ(sched.pick({rest, ready, 5}), 2u);
}

TEST(Scheduler, DynamicResizeGrowsAndShrinksMacroWarps) {
  using Dwr = hier::DynamicResizeScheduler;
  Dwr sched;
  sched.reset(8);
  EXPECT_EQ(sched.group_size(), 1u);
  const std::vector<std::uint32_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::uint64_t> ready(8, 0);

  // The first pick has no history; the next kGrowStreak picks build a
  // streak that doubles the group.
  sched.on_dispatch(sched.pick({all, ready, 0}));  // seeds history (warp 0)
  for (std::uint32_t i = 1; i < Dwr::kGrowStreak; ++i) {
    sched.on_dispatch(sched.pick({all, ready, 0}));
  }
  EXPECT_EQ(sched.group_size(), 1u);
  sched.on_dispatch(sched.pick({all, ready, 0}));  // streak full -> group 2
  EXPECT_EQ(sched.group_size(), 2u);

  // Members of the aligned group issue back to back; sustained streaks
  // keep doubling the group.
  for (std::uint32_t i = 0; i < 2 * Dwr::kGrowStreak; ++i) {
    sched.on_dispatch(sched.pick({all, ready, 0}));
  }
  EXPECT_GE(sched.group_size(), 4u);

  // Shrink: grow a fresh instance to group 2 = {0, 1}, then offer only a
  // warp outside the group. Each pick is a divergence that falls back to
  // the ready candidate; the kShrinkMisses-th halves the group.
  Dwr s2;
  s2.reset(8);
  for (std::uint32_t i = 0; i <= Dwr::kGrowStreak; ++i) {
    s2.on_dispatch(s2.pick({all, ready, 0}));
  }
  ASSERT_EQ(s2.group_size(), 2u);
  const std::vector<std::uint32_t> outside = {7};
  for (std::uint32_t miss = 1; miss < Dwr::kShrinkMisses; ++miss) {
    EXPECT_EQ(s2.pick({outside, ready, 0}), 7u);
    EXPECT_EQ(s2.group_size(), 2u);
  }
  EXPECT_EQ(s2.pick({outside, ready, 0}), 7u);
  EXPECT_EQ(s2.group_size(), 1u);
}

// --- memory path ------------------------------------------------------------

TEST(Memory, LruCacheEvictsLeastRecentlyUsed) {
  hier::LruCache cache(2);
  EXPECT_FALSE(cache.access(1));
  EXPECT_FALSE(cache.access(2));
  EXPECT_TRUE(cache.access(1));   // refresh 1 -> victim is 2
  EXPECT_FALSE(cache.access(3));  // evicts 2
  EXPECT_TRUE(cache.access(1));
  EXPECT_FALSE(cache.access(2));  // 2 was evicted
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Memory, ZeroCapacityCacheBypasses) {
  hier::LruCache cache(0);
  EXPECT_FALSE(cache.access(1));
  EXPECT_FALSE(cache.access(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Memory, SharedPathQueuesOnBusyPorts) {
  hier::PathParams params;
  params.line_words = 32;
  params.l2 = {64, 10};
  params.l2_service = 4;
  params.dram_latency = 100;
  params.dram_service = 0;
  hier::SharedPath shared(params);

  // Two cold fills at t = 0: the second waits 4 cycles for the L2 port.
  const hier::FillResult a = shared.fill(7, 0);
  EXPECT_FALSE(a.l2_hit);
  EXPECT_EQ(a.done, 0u + 4 + 10 + 100);
  const hier::FillResult b = shared.fill(8, 0);
  EXPECT_EQ(b.done, 4u + 4 + 10 + 100);
  EXPECT_EQ(shared.queue_cycles(), 4u);

  // Line 7 is now resident: L2 hit, no DRAM term.
  const hier::FillResult c = shared.fill(7, 50);
  EXPECT_TRUE(c.l2_hit);
  EXPECT_EQ(c.done, 50u + 4 + 10);
  EXPECT_EQ(shared.l2_hits(), 1u);
  EXPECT_EQ(shared.l2_misses(), 2u);
}

TEST(Memory, MshrLimitSerializesExcessMisses) {
  hier::PathParams params;
  params.line_words = 32;
  params.l1 = {0, 1};  // no L1 retention: every access misses through
  params.l2 = {0, 0};  // no L2 retention either
  params.l2_service = 0;
  params.dram_latency = 50;
  params.dram_service = 0;
  params.mshrs = 1;
  hier::SharedPath shared(params);
  hier::SmMemoryPath sm(params, &shared);

  // Two distinct lines, one MSHR: the first fill issues at 0 and arrives
  // at 1 + 50 = 51; the second must wait for it to retire, issuing at 51
  // and arriving at 52 + 50 = 102.
  std::vector<std::uint64_t> lines = {1, 2};
  const std::uint64_t extra = sm.access(lines, 0, 0);
  EXPECT_EQ(sm.l1_misses(), 2u);
  EXPECT_EQ(sm.mshr_stall_cycles(), 51u);
  EXPECT_EQ(extra, 102u);
}

TEST(Memory, DisabledPathChargesNothing) {
  hier::SharedPath shared(hier::PathParams::zero());
  hier::SmMemoryPath sm(hier::PathParams::zero(), &shared);
  std::vector<std::uint64_t> lines = {1, 2, 3};
  EXPECT_EQ(sm.access(lines, 0, 10), 0u);
  EXPECT_EQ(sm.l1_misses(), 0u);
}

// --- HierSim ----------------------------------------------------------------

dmm::Kernel contiguous_copy_kernel(std::uint32_t threads) {
  dmm::Kernel kernel;
  kernel.num_threads = threads;
  dmm::Row loads(threads), stores(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    loads[t] = dmm::ThreadOp::load(t);
    stores[t] = dmm::ThreadOp::store(threads + t);
  }
  kernel.push(std::move(loads));
  kernel.push_barrier();
  kernel.push(std::move(stores));
  return kernel;
}

TEST(HierSim, ValidatesConfigUpFront) {
  const auto map = core::make_matrix_map(core::Scheme::kRaw, 16, 8, 1);
  hier::HierConfig config;
  config.width = 16;
  config.sms = 0;
  EXPECT_THROW(hier::HierSim(config, *map), std::invalid_argument);
  config.sms = 1;
  config.scheduler = "nonsense";
  EXPECT_THROW(hier::HierSim(config, *map), std::invalid_argument);
}

TEST(HierSim, EverySmRunsTheKernelAndTotalsAggregate) {
  const std::uint32_t width = 16;
  const auto map = core::make_matrix_map(core::Scheme::kRap, width, 8, 3);
  hier::HierConfig config;
  config.sms = 3;
  config.width = width;
  config.scheduler = "gto";
  config.path = hier::PathParams::defaults();
  hier::HierSim sim(config, *map);

  const dmm::Kernel kernel = contiguous_copy_kernel(width * 4);
  const hier::HierResult result = sim.run(kernel, core::Scheme::kRap);

  ASSERT_EQ(result.sms.size(), 3u);
  std::uint64_t dispatches = 0;
  for (const hier::SmStats& sm : result.sms) {
    EXPECT_GT(sm.run.dispatches, 0u);
    EXPECT_LE(sm.run.time, result.cycles);
    dispatches += sm.run.dispatches;
    EXPECT_GT(sm.est_ns, 0.0);
  }
  EXPECT_EQ(result.dispatches, dispatches);
  EXPECT_GT(result.cycles, 0u);
  // The path is on and every SM touches 128 distinct words cold: someone
  // missed all the way to DRAM.
  EXPECT_GT(result.l2_misses, 0u);
}

TEST(HierSim, RunsAreDeterministic) {
  const std::uint32_t width = 16;
  const auto map = core::make_matrix_map(core::Scheme::kRas, width, 16, 9);
  hier::HierConfig config;
  config.sms = 4;
  config.width = width;
  config.scheduler = "dwr";
  config.path = hier::PathParams::defaults();
  config.path.mshrs = 2;
  const dmm::Kernel kernel = contiguous_copy_kernel(width * 8);

  hier::HierSim sim_a(config, *map);
  hier::HierSim sim_b(config, *map);
  const hier::HierResult a = sim_a.run(kernel, core::Scheme::kRas);
  const hier::HierResult b = sim_b.run(kernel, core::Scheme::kRas);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.l2_queue_cycles, b.l2_queue_cycles);
  for (std::size_t i = 0; i < a.sms.size(); ++i) {
    EXPECT_EQ(a.sms[i].run.time, b.sms[i].run.time);
    EXPECT_EQ(a.sms[i].mem_wait_cycles, b.sms[i].mem_wait_cycles);
  }
}

TEST(HierSim, SchedulerFairnessEveryWarpDispatches) {
  // Under every policy, every warp with work must eventually dispatch —
  // no policy may starve a warp (a dispatched warp leaves the candidate
  // set for at least `latency` slots, so waiting warps get their turn).
  const std::uint32_t width = 16;
  const auto map = core::make_matrix_map(core::Scheme::kRap, width, 16, 5);
  const dmm::Kernel kernel = contiguous_copy_kernel(width * 8);  // 8 warps
  for (const std::string& name : hier::scheduler_names()) {
    hier::HierConfig config;
    config.sms = 2;
    config.width = width;
    config.scheduler = name;
    config.path = hier::PathParams::defaults();
    hier::HierSim sim(config, *map);
    const hier::HierResult result = sim.run(kernel, core::Scheme::kRap);
    for (const hier::SmStats& sm : result.sms) {
      ASSERT_EQ(sm.warp_dispatches.size(), 8u) << name;
      for (std::size_t w = 0; w < sm.warp_dispatches.size(); ++w) {
        EXPECT_GT(sm.warp_dispatches[w], 0u)
            << name << " starved warp " << w;
      }
    }
  }
}

TEST(HierSim, FlushMetricsRegistersHierCounters) {
  const std::uint32_t width = 16;
  const auto map = core::make_matrix_map(core::Scheme::kRap, width, 8, 1);
  hier::HierConfig config;
  config.sms = 2;
  config.width = width;
  config.path = hier::PathParams::defaults();
  hier::HierSim sim(config, *map);
  const hier::HierResult result =
      sim.run(contiguous_copy_kernel(width * 2), core::Scheme::kRap);

  telemetry::MetricsRegistry registry;
  hier::flush_metrics(result, registry, {{"scheme", "RAP"}});
  const auto* cycles =
      registry.find_counter("hier.cycles", {{"scheme", "RAP"}});
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(cycles->value(), result.cycles);
  EXPECT_NE(registry.find_counter("hier.sm_cycles",
                                  {{"scheme", "RAP"}, {"sm", "0"}}),
            nullptr);
  EXPECT_NE(registry.find_counter("hier.l1_misses",
                                  {{"scheme", "RAP"}, {"sm", "1"}}),
            nullptr);
  EXPECT_NE(registry.find_distribution("hier.warp_dispatches",
                                       {{"scheme", "RAP"}, {"sm", "0"}}),
            nullptr);
}

}  // namespace
