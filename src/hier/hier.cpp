#include "hier/hier.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rapsim::hier {

namespace {

[[nodiscard]] bool is_memory_op(dmm::OpKind kind) noexcept {
  switch (kind) {
    case dmm::OpKind::kLoad:
    case dmm::OpKind::kLoadAdd:
    case dmm::OpKind::kLoadMulAdd:
    case dmm::OpKind::kStore:
    case dmm::OpKind::kStoreImm:
    case dmm::OpKind::kAtomicAdd:
      return true;
    default:
      return false;
  }
}

/// KernelWarpSource plus the global-memory path: each dispatched
/// warp-instruction's touched lines must reach the SM's L1, and the
/// slowest fill extends the warp's completion (IssueResult::extra_latency)
/// without blocking the shared-memory pipeline.
class PathWarpSource final : public WarpSource {
 public:
  PathWarpSource(dmm::KernelWarpSource& inner, SmMemoryPath& path,
                 const PathParams& params, const EventCore& core,
                 std::uint32_t width, std::uint32_t latency)
      : inner_(&inner),
        path_(&path),
        params_(&params),
        core_(&core),
        latency_(latency) {
    // A warp-instruction touches at most one line per lane.
    if (params.enabled()) lines_.reserve(width);
  }

  [[nodiscard]] bool done(std::uint32_t warp) const override {
    return inner_->done(warp);
  }
  [[nodiscard]] bool at_barrier(std::uint32_t warp) const override {
    return inner_->at_barrier(warp);
  }
  [[nodiscard]] std::size_t pc(std::uint32_t warp) const override {
    return inner_->pc(warp);
  }

  [[nodiscard]] IssueResult issue(std::uint32_t warp) override {
    IssueResult result = inner_->issue(warp);
    if (result.stages == 0 || !params_->enabled()) return result;
    // Collect the lines this warp-instruction touches (logical address
    // space: the backing store is scheme-independent; only the banked
    // shared memory sees the permuted layout).
    lines_.clear();
    for (const dmm::ThreadOp& op : inner_->ops(warp)) {
      if (is_memory_op(op.kind)) {
        lines_.push_back(op.logical / params_->line_words);
      }
    }
    // At issue time the core's clock IS the dispatch slot (candidates
    // are selected with ready <= now and issue precedes the clock
    // advance), so `now` is this instruction's start.
    const std::uint64_t start = core_->now();
    const std::uint64_t base = start + result.stages + latency_ - 1;
    result.extra_latency = path_->access(lines_, start, base);
    mem_wait_cycles_ += result.extra_latency;
    return result;
  }

  void advance(std::uint32_t warp) override { inner_->advance(warp); }

  [[nodiscard]] std::uint64_t mem_wait_cycles() const noexcept {
    return mem_wait_cycles_;
  }

 private:
  dmm::KernelWarpSource* inner_;
  SmMemoryPath* path_;
  const PathParams* params_;
  const EventCore* core_;
  std::uint32_t latency_;
  std::vector<std::uint64_t> lines_;  // scratch, reused per issue
  std::uint64_t mem_wait_cycles_ = 0;
};

/// Per-SM hooks: SmStats accumulation and the machine's barrier side
/// effects. The telemetry feed is Dmm::run's alone (DmmRunHooks).
class SmHooks final : public CoreHooks {
 public:
  SmHooks(dmm::Dmm& machine, SmStats& stats) : machine_(machine), stats_(stats) {}

  void on_idle(std::uint64_t slots) override { stats_.idle_slots += slots; }

  void on_dispatch(const DispatchEvent& event) override {
    stats_.warp_stall_slots += event.stall_slots;
    ++stats_.warp_dispatches[event.warp];
  }

  void on_barrier_release(std::size_t pc) override {
    machine_.finish_barrier(static_cast<std::uint32_t>(pc));
  }

 private:
  dmm::Dmm& machine_;
  SmStats& stats_;
};

}  // namespace

void HierConfig::validate() const {
  if (sms == 0) throw std::invalid_argument("HierConfig: sms must be > 0");
  if (width == 0) throw std::invalid_argument("HierConfig: width must be > 0");
  if (shared_latency == 0) {
    throw std::invalid_argument("HierConfig: shared_latency must be > 0");
  }
}

HierSim::HierSim(HierConfig config, const core::AddressMap& map)
    : config_(std::move(config)), map_(&map) {
  config_.validate();
  (void)make_scheduler(config_.scheduler);  // fail fast on unknown names
  dmm::DmmConfig dmm_config;
  dmm_config.width = config_.width;
  dmm_config.latency = config_.shared_latency;
  machines_.reserve(config_.sms);
  for (std::uint32_t sm = 0; sm < config_.sms; ++sm) {
    machines_.push_back(std::make_unique<dmm::Dmm>(dmm_config, *map_));
  }
}

HierResult HierSim::run(const dmm::Kernel& kernel, core::Scheme scheme,
                        const gpu::SmTimingParams& timing) {
  HierResult result;
  result.sms.resize(machines_.size());
  if (kernel.num_threads == 0) return result;

  SharedPath shared(config_.path);

  // Per-SM execution state. Built behind stable addresses (unique_ptr)
  // because the source/hooks hold pointers into their own SM's parts.
  struct SmRun {
    dmm::KernelWarpSource inner;
    SmMemoryPath path;
    EventCore core;
    PathWarpSource source;
    std::unique_ptr<Scheduler> scheduler;
    SmHooks hooks;
    bool done = false;

    SmRun(dmm::Dmm& machine, const dmm::Kernel& kernel,
          const HierConfig& config, SharedPath& shared, SmStats& stats)
        : inner(machine, kernel),
          path(config.path, &shared),
          core(inner.num_warps(), config.shared_latency),
          source(inner, path, config.path, core, config.width,
                 config.shared_latency),
          scheduler(make_scheduler(config.scheduler)),
          hooks(machine, stats) {
      scheduler->reset(inner.num_warps());
      stats.warp_dispatches.assign(inner.num_warps(), 0);
    }
  };

  std::vector<std::unique_ptr<SmRun>> runs;
  runs.reserve(machines_.size());
  for (std::uint32_t sm = 0; sm < machines_.size(); ++sm) {
    result.sms[sm].sm = sm;
    machines_[sm]->begin_run(kernel);
    runs.push_back(std::make_unique<SmRun>(*machines_[sm], kernel, config_,
                                           shared, result.sms[sm]));
  }

  // Deterministic interleaving: always step the unfinished SM with the
  // smallest clock (ties to the lowest id), so requests reach the shared
  // L2/DRAM ports in a reproducible order.
  for (;;) {
    std::size_t next = runs.size();
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t sm = 0; sm < runs.size(); ++sm) {
      if (runs[sm]->done) continue;
      if (runs[sm]->core.now() < best) {
        best = runs[sm]->core.now();
        next = sm;
      }
    }
    if (next == runs.size()) break;
    SmRun& r = *runs[next];
    if (!r.core.step(r.source, *r.scheduler, &r.hooks)) r.done = true;
  }

  double congestion_sum = 0.0;
  for (std::size_t sm = 0; sm < runs.size(); ++sm) {
    SmRun& r = *runs[sm];
    SmStats& stats = result.sms[sm];
    const DispatchTotals& totals = r.core.totals();
    stats.run.time = totals.last_completion;
    stats.run.total_stages = totals.total_stages;
    stats.run.dispatches = totals.dispatches;
    stats.run.max_congestion = totals.max_congestion;
    stats.run.avg_congestion = totals.avg_congestion();
    stats.l1_hits = r.path.l1_hits();
    stats.l1_misses = r.path.l1_misses();
    stats.l2_hits = r.path.l2_hits();
    stats.dram_fills = r.path.dram_fills();
    stats.mshr_stall_cycles = r.path.mshr_stall_cycles();
    stats.mem_wait_cycles = r.source.mem_wait_cycles();
    stats.est_ns = gpu::estimate_time_ns(totals.total_stages,
                                         totals.dispatches, scheme, timing);

    result.cycles = std::max(result.cycles, stats.run.time);
    result.dispatches += stats.run.dispatches;
    result.total_stages += stats.run.total_stages;
    result.max_congestion =
        std::max(result.max_congestion, stats.run.max_congestion);
    congestion_sum += totals.congestion_sum;
    result.est_ns = std::max(result.est_ns, stats.est_ns);
  }
  result.avg_congestion =
      result.dispatches != 0
          ? congestion_sum / static_cast<double>(result.dispatches)
          : 0.0;
  result.l2_hits = shared.l2_hits();
  result.l2_misses = shared.l2_misses();
  result.l2_queue_cycles = shared.queue_cycles();
  return result;
}

void flush_metrics(const HierResult& result,
                   telemetry::MetricsRegistry& registry,
                   const telemetry::Labels& labels) {
  registry.counter("hier.cycles", labels).set(result.cycles);
  registry.counter("hier.dispatches", labels).set(result.dispatches);
  registry.counter("hier.total_stages", labels).set(result.total_stages);
  registry.counter("hier.max_congestion", labels).set(result.max_congestion);
  registry.counter("hier.l2_hits", labels).set(result.l2_hits);
  registry.counter("hier.l2_misses", labels).set(result.l2_misses);
  registry.counter("hier.l2_queue_cycles", labels)
      .set(result.l2_queue_cycles);
  registry.gauge("hier.avg_congestion", labels).set(result.avg_congestion);
  registry.gauge("hier.est_ns", labels).set(result.est_ns);

  for (const SmStats& sm : result.sms) {
    telemetry::Labels sm_labels = labels;
    sm_labels["sm"] = std::to_string(sm.sm);
    registry.counter("hier.sm_cycles", sm_labels).set(sm.run.time);
    registry.counter("hier.sm_dispatches", sm_labels).set(sm.run.dispatches);
    registry.counter("hier.l1_hits", sm_labels).set(sm.l1_hits);
    registry.counter("hier.l1_misses", sm_labels).set(sm.l1_misses);
    registry.counter("hier.sm_l2_hits", sm_labels).set(sm.l2_hits);
    registry.counter("hier.dram_fills", sm_labels).set(sm.dram_fills);
    registry.counter("hier.mshr_stall_cycles", sm_labels)
        .set(sm.mshr_stall_cycles);
    registry.counter("hier.mem_wait_cycles", sm_labels)
        .set(sm.mem_wait_cycles);
    registry.counter("hier.idle_slots", sm_labels).set(sm.idle_slots);
    registry.counter("hier.warp_stall_slots", sm_labels)
        .set(sm.warp_stall_slots);
    auto& dist = registry.distribution("hier.warp_dispatches", sm_labels);
    for (const std::uint64_t count : sm.warp_dispatches) {
      dist.observe(count);
    }
  }
}

}  // namespace rapsim::hier
