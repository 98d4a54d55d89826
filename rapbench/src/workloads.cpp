#include "workloads.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "access/montecarlo.hpp"
#include "analyze/synth.hpp"
#include "builtin_kernels.hpp"
#include "core/congestion.hpp"
#include "core/factory.hpp"
#include "hier/scheduler.hpp"
#include "replay/replay.hpp"
#include "replay/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vm/assembler.hpp"
#include "vm/exec.hpp"
#include "vm/extract.hpp"
#include "vm/suite.hpp"
#include "workload_kernels.hpp"

namespace rapbench {

namespace {

using namespace rapsim;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kWidth = 32;   // warp width of the catalog workloads
constexpr std::uint32_t kLatency = 1;  // DMM pipeline latency (replay default)
constexpr std::size_t kMaxPrintedFailures = 20;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Independent seed for one use of the workload seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Run `fn` as one timed call of the round.
template <typename Fn>
auto timed_call(Round& round, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  const std::uint64_t ns = ns_since(start);
  round.busy_ns += ns;
  round.call_ms.push_back(static_cast<double>(ns) / 1e6);
  return result;
}

/// Run `fn` as timed work of the round that is not a call of its own.
template <typename Fn>
auto timed_work(Round& round, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  round.busy_ns += ns_since(start);
  return result;
}

double per(std::uint64_t amount, std::uint64_t count) {
  return count == 0 ? 0.0
                    : static_cast<double>(amount) / static_cast<double>(count);
}

double mean_ns(const Tracer& tracer, const char* span) {
  const LayerTotals t = tracer.totals(span);
  return per(t.total_ns, t.count);
}

double mean_ms(const Tracer& tracer, const char* span) {
  return mean_ns(tracer, span) / 1e6;
}

std::uint64_t translate_all(const core::AddressMap& map,
                            const std::vector<std::uint64_t>& logical) {
  std::uint64_t sum = 0;
  for (const std::uint64_t a : logical) sum += map.translate(a);
  return sum;
}

/// The logical addresses of every memory op of `kernel`, in program order.
std::vector<std::uint64_t> kernel_addresses(const dmm::Kernel& kernel) {
  std::vector<std::uint64_t> out;
  for (const dmm::Instruction& instr : kernel.instructions) {
    for (const dmm::ThreadOp& op : instr) {
      if (op.kind != dmm::OpKind::kNone && op.kind != dmm::OpKind::kMinMax &&
          op.kind != dmm::OpKind::kBarrier) {
        out.push_back(op.logical);
      }
    }
  }
  return out;
}

/// Decorator that opens a "dmm.warp_access" span around each issue(),
/// i.e. around each Dmm warp access the event core asks for.
class TimedWarpSource final : public hier::WarpSource {
 public:
  TimedWarpSource(hier::WarpSource& inner, Tracer& tracer, std::uint32_t name)
      : inner_(inner), tracer_(tracer), name_(name) {}

  [[nodiscard]] bool done(std::uint32_t warp) const override {
    return inner_.done(warp);
  }
  [[nodiscard]] bool at_barrier(std::uint32_t warp) const override {
    return inner_.at_barrier(warp);
  }
  [[nodiscard]] std::size_t pc(std::uint32_t warp) const override {
    return inner_.pc(warp);
  }
  [[nodiscard]] hier::IssueResult issue(std::uint32_t warp) override {
    const Scope span(tracer_, name_);
    return inner_.issue(warp);
  }
  void advance(std::uint32_t warp) override { inner_.advance(warp); }

 private:
  hier::WarpSource& inner_;
  Tracer& tracer_;
  std::uint32_t name_;
};

/// The event-core probe: Dmm::run's body (begin_run, KernelWarpSource,
/// a round-robin EventCore) with the core's run and each warp access in
/// spans of their own. The RunStats it returns must equal Dmm::run's.
class EventCoreProbe {
 public:
  explicit EventCoreProbe(Tracer& tracer)
      : tracer_(tracer),
        run_(tracer.intern("hier.event_core_run")),
        access_(tracer.intern("dmm.warp_access")),
        scheduler_(hier::make_scheduler("roundrobin")) {}

  dmm::RunStats run(const dmm::Kernel& kernel, const core::AddressMap& map);

  /// Memory dispatches over every run() so far.
  [[nodiscard]] std::uint64_t dispatches() const noexcept {
    return dispatches_;
  }

 private:
  Tracer& tracer_;
  std::uint32_t run_;
  std::uint32_t access_;
  std::unique_ptr<hier::Scheduler> scheduler_;
  std::uint64_t dispatches_ = 0;
};

dmm::RunStats EventCoreProbe::run(const dmm::Kernel& kernel,
                                  const core::AddressMap& map) {
  dmm::Dmm machine(dmm::DmmConfig{map.width(), kLatency}, map);
  machine.begin_run(kernel);
  dmm::KernelWarpSource source(machine, kernel);
  TimedWarpSource timed(source, tracer_, access_);
  scheduler_->reset(source.num_warps());
  hier::EventCore core(source.num_warps(), kLatency);
  const Scope span(tracer_, run_);
  const hier::DispatchTotals& totals = core.run(timed, *scheduler_);
  dispatches_ += totals.dispatches;
  dmm::RunStats stats;
  stats.time = totals.last_completion;
  stats.total_stages = totals.total_stages;
  stats.dispatches = totals.dispatches;
  stats.max_congestion = totals.max_congestion;
  stats.avg_congestion = totals.avg_congestion();
  return stats;
}

/// Metrics of the event-core probe shared by catalog-replay and
/// hier-hotpath.
void add_event_core_metrics(const Tracer& tracer, std::uint64_t dispatches,
                            std::vector<Metric>& out) {
  const LayerTotals access = tracer.totals("dmm.warp_access");
  out.push_back({"dmm.warp_access_ns", per(access.total_ns, access.count), "ns"});
  out.push_back({"dmm.allocs_per_warp_access", per(access.allocs, access.count),
                 "count"});
  out.push_back({"hier.core_step_self_ns",
                 per(tracer.totals("hier.event_core_run").self_ns, dispatches),
                 "ns"});
}

// ---------------------------------------------------------------------------
// table2-sweep

class Table2Sweep final : public Workload {
 public:
  Table2Sweep(std::uint64_t seed, bool traced)
      : seed_(derive_seed(seed, 1)), traced_(traced) {}

  void setup(Tracer&, Outcomes& outcomes) override {
    cells_.clear();
    for (const core::Scheme scheme : core::table2_schemes()) {
      for (const access::Pattern2d pattern : access::table2_patterns()) {
        for (const std::uint32_t width : kWidths) {
          cells_.push_back({scheme, pattern, width});
        }
      }
    }
    // Warm-up: the w = 16 column once, single-threaded, checked.
    for (const Table2Cell& cell : cells_) {
      if (cell.width != kWidths.front()) continue;
      const util::Tally tally = access::congestion_distribution_2d(
          cell.scheme, cell.pattern, cell.width, kTracedTrials, seed_);
      outcomes.setup(check_table2_cell(cell, tally.mean(), tally.min(),
                                       tally.max(), tally.count()));
    }
  }

  void round(Round& round, Outcomes& outcomes) override {
    for (const Table2Cell& cell : cells_) {
      if (traced_) {
        // The traced run's untraced baseline: the same single-threaded
        // trial loop the traced round mirrors.
        const util::Tally tally = timed_call(round, [&] {
          return access::congestion_distribution_2d(
              cell.scheme, cell.pattern, cell.width, kTracedTrials, seed_);
        });
        round.ops += kTracedTrials;
        outcomes.call(check_table2_cell(cell, tally.mean(), tally.min(),
                                        tally.max(), tally.count()));
      } else {
        const access::CongestionEstimate est = timed_call(round, [&] {
          return access::estimate_congestion_2d(cell.scheme, cell.pattern,
                                                cell.width, kTrials, seed_);
        });
        round.ops += kTrials;
        outcomes.call(
            check_table2_cell(cell, est.mean, est.min, est.max, est.trials));
      }
    }
  }

  void traced_round(Tracer& tracer, Round& round, Outcomes& outcomes) override {
    const std::uint32_t make_map = tracer.intern("core.make_map");
    const std::uint32_t addresses = tracer.intern("access.warp_addresses");
    const std::uint32_t congestion = tracer.intern("core.congestion");
    const std::uint32_t translate = tracer.intern("core.translate");

    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const Table2Cell& cell = cells_[c];
      // The per-trial calls of access::congestion_distribution_2d (a fresh
      // map, one warp, its congestion), each in a span of its own.
      const util::Tally tally = timed_call(round, [&] {
        util::Tally out;
        util::Pcg32 rng(seed_, c);
        for (std::uint64_t t = 0; t < kTracedTrials; ++t) {
          std::unique_ptr<core::MatrixMap> map;
          {
            const Scope span(tracer, make_map);
            map = core::make_matrix_map(cell.scheme, cell.width, cell.width,
                                        seed_ * 0x9e3779b97f4a7c15ull + t + 1);
          }
          const std::uint32_t warp = rng.bounded(cell.width);
          std::vector<std::uint64_t> addrs;
          {
            const Scope span(tracer, addresses);
            addrs = access::warp_addresses_2d(cell.pattern, *map, warp, rng);
          }
          const Scope span(tracer, congestion);
          out.add(core::congestion_value(addrs, *map));
        }
        return out;
      });
      round.ops += kTracedTrials;
      trials_ += kTracedTrials;
      outcomes.call(check_table2_cell(cell, tally.mean(), tally.min(),
                                      tally.max(), tally.count()));

      // Translation probe, outside the timed call: one span over the
      // addresses of kProbeTrials trials, so its clock reads are negligible.
      util::Pcg32 rng(seed_ ^ 0x70726f6265ull, c);
      std::vector<std::unique_ptr<core::MatrixMap>> maps;
      std::vector<std::vector<std::uint64_t>> streams;
      for (std::uint64_t t = 0; t < kProbeTrials; ++t) {
        maps.push_back(core::make_matrix_map(cell.scheme, cell.width,
                                             cell.width, seed_ + t));
        streams.push_back(access::warp_addresses_2d(
            cell.pattern, *maps.back(), rng.bounded(cell.width), rng));
      }
      const Scope span(tracer, translate);
      for (std::size_t t = 0; t < maps.size(); ++t) {
        sink_ += translate_all(*maps[t], streams[t]);
        translated_ += streams[t].size();
      }
    }
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(
      const Tracer& tracer) const override {
    const std::uint64_t trial_allocs = tracer.totals("core.make_map").allocs +
                                       tracer.totals("access.warp_addresses").allocs +
                                       tracer.totals("core.congestion").allocs;
    return {
        {"core.make_map_ns", mean_ns(tracer, "core.make_map"), "ns"},
        {"core.allocs_per_trial", per(trial_allocs, trials_), "count"},
        {"access.warp_addresses_ns", mean_ns(tracer, "access.warp_addresses"),
         "ns"},
        {"core.congestion_ns", mean_ns(tracer, "core.congestion"), "ns"},
        {"core.translate_ns",
         per(tracer.totals("core.translate").total_ns, translated_), "ns"},
    };
  }

 private:
  static constexpr std::array<std::uint32_t, 5> kWidths = {16, 32, 64, 128,
                                                           256};
  static constexpr std::uint64_t kTrials = 20000;       // per cell
  static constexpr std::uint64_t kTracedTrials = 2000;  // per cell, traced
  static constexpr std::uint64_t kProbeTrials = 64;     // translate probe

  std::uint64_t seed_;
  bool traced_;
  std::vector<Table2Cell> cells_;
  std::uint64_t trials_ = 0;
  std::uint64_t translated_ = 0;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Set-up probe for the VM layer: the per-program assemble / lower /
// extract calls the catalogs make internally, made again with spans.

void vm_probe(Tracer& tracer, const std::vector<std::string>& programs,
              bool lower, bool extract) {
  const std::uint32_t assemble_span = tracer.intern("vm.assemble");
  const std::uint32_t lower_span = tracer.intern("vm.lower");
  const std::uint32_t extract_span = tracer.intern("vm.extract");
  for (const std::string& name : programs) {
    const vm::SuiteProgram source = vm::suite_program(name, kWidth);
    vm::Program program;
    {
      const Scope span(tracer, assemble_span);
      program = vm::assemble(source.text, kWidth);
    }
    if (lower) {
      const Scope span(tracer, lower_span);
      (void)vm::lower_program(program);
    }
    if (extract) {
      const Scope span(tracer, extract_span);
      (void)vm::extract_kernel(program);
    }
  }
}

void add_vm_metrics(const Tracer& tracer, std::vector<Metric>& out) {
  out.push_back({"vm.assemble_ms", mean_ms(tracer, "vm.assemble"), "ms"});
  out.push_back({"vm.lower_ms", mean_ms(tracer, "vm.lower"), "ms"});
  out.push_back({"vm.extract_ms", mean_ms(tracer, "vm.extract"), "ms"});
}

// ---------------------------------------------------------------------------
// catalog-replay

const std::array<core::Scheme, 4> kReplaySchemes = {
    core::Scheme::kRaw, core::Scheme::kRas, core::Scheme::kRap,
    core::Scheme::kPad};

class CatalogReplay final : public Workload {
 public:
  CatalogReplay(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}

  void setup(Tracer& tracer, Outcomes&) override {
    const std::uint32_t make_map = tracer.intern("core.make_map");
    probe_ = std::make_unique<EventCoreProbe>(tracer);
    const std::vector<tools::WorkloadKernel> catalog =
        tools::workload_kernels(kWidth);
    if (traced_) {
      std::vector<std::string> programs;
      for (const vm::SuiteProgram& p : vm::suite_programs(kWidth)) {
        programs.push_back(p.name);
      }
      vm_probe(tracer, programs, /*lower=*/true, /*extract=*/false);
    }
    items_.clear();
    for (std::size_t e = 0; e < catalog.size(); ++e) {
      const tools::WorkloadKernel& entry = catalog[e];
      Item item;
      item.name = entry.name;
      // One capture serves every scheme: the lowered trace keeps each
      // instruction's lanes and addresses, which is all the schedule
      // and the congestion depend on.
      const auto capture_map =
          core::make_matrix_map(core::Scheme::kRaw, kWidth, entry.rows, 0);
      dmm::Dmm recorder(dmm::DmmConfig{kWidth, kLatency}, *capture_map);
      const replay::AccessTrace trace =
          replay::capture_run(recorder, entry.kernel);
      item.bytes = replay::to_binary(trace);
      item.records = trace.records.size();
      if (traced_) {
        for (const replay::TraceRecord& record : trace.records) {
          item.addresses.insert(item.addresses.end(), record.addrs.begin(),
                                record.addrs.end());
        }
      }
      for (std::size_t s = 0; s < kReplaySchemes.size(); ++s) {
        {
          const Scope span(tracer, make_map);
          item.maps[s] = core::make_matrix_map(
              kReplaySchemes[s], kWidth, entry.rows,
              derive_seed(seed_, 100 + e * kReplaySchemes.size() + s));
        }
        dmm::Dmm native(dmm::DmmConfig{kWidth, kLatency}, *item.maps[s]);
        item.expected[s] = native.run(entry.kernel);
      }
      items_.push_back(std::move(item));
    }
  }

  void round(Round& round, Outcomes& outcomes) override {
    for (const Item& item : items_) {
      const replay::AccessTrace trace =
          timed_work(round, [&] { return replay::parse_trace(item.bytes); });
      for (std::size_t s = 0; s < kReplaySchemes.size(); ++s) {
        const replay::ReplayResult result = timed_call(
            round, [&] { return replay::replay_trace(trace, *item.maps[s]); });
        round.ops += item.records;
        outcomes.call(check_run_stats(cell_label(item, s), item.expected[s],
                                      result.stats));
      }
    }
  }

  void traced_round(Tracer& tracer, Round& round, Outcomes& outcomes) override {
    const std::uint32_t decode = tracer.intern("replay.decode");
    const std::uint32_t lower = tracer.intern("replay.lower");
    const std::uint32_t execute = tracer.intern("replay.execute");
    const std::uint32_t translate = tracer.intern("core.translate");
    for (const Item& item : items_) {
      const replay::AccessTrace trace = timed_work(round, [&] {
        const Scope span(tracer, decode);
        return replay::parse_trace(item.bytes);
      });
      decoded_ += item.records;
      for (std::size_t s = 0; s < kReplaySchemes.size(); ++s) {
        // replay_trace's body: lower the trace, then run it on a Dmm.
        const dmm::RunStats stats = timed_call(round, [&] {
          dmm::Kernel kernel;
          {
            const Scope span(tracer, lower);
            kernel = replay::lower_to_kernel(trace);
          }
          const Scope span(tracer, execute);
          return probe_->run(kernel, *item.maps[s]);
        });
        round.ops += item.records;
        replayed_ += item.records;
        outcomes.call(
            check_run_stats(cell_label(item, s), item.expected[s], stats));

        const Scope span(tracer, translate);
        sink_ += translate_all(*item.maps[s], item.addresses);
        translated_ += item.addresses.size();
      }
    }
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(
      const Tracer& tracer) const override {
    const LayerTotals decode = tracer.totals("replay.decode");
    const LayerTotals lower = tracer.totals("replay.lower");
    const LayerTotals execute = tracer.totals("replay.execute");
    std::vector<Metric> out = {
        {"replay.decode_ns_per_record", per(decode.total_ns, decoded_), "ns"},
        {"replay.lower_ns_per_record", per(lower.total_ns, replayed_), "ns"},
        {"replay.execute_ns_per_record", per(execute.total_ns, replayed_),
         "ns"},
        {"replay.allocs_per_record",
         per(decode.allocs + lower.allocs + execute.allocs, replayed_),
         "count"},
        {"core.translate_ns",
         per(tracer.totals("core.translate").total_ns, translated_), "ns"},
        {"core.make_map_ns", mean_ns(tracer, "core.make_map"), "ns"},
    };
    add_event_core_metrics(tracer, probe_->dispatches(), out);
    add_vm_metrics(tracer, out);
    return out;
  }

 private:
  struct Item {
    std::string name;
    std::string bytes;  // RAPT binary encoding of the captured trace
    std::uint64_t records = 0;
    std::vector<std::uint64_t> addresses;  // logical stream (traced only)
    std::array<std::unique_ptr<core::MatrixMap>, 4> maps;
    std::array<dmm::RunStats, 4> expected;  // native Dmm::run per scheme
  };

  static std::string cell_label(const Item& item, std::size_t s) {
    return "catalog-replay " + item.name + "/" +
           core::scheme_name(kReplaySchemes[s]);
  }

  std::uint64_t seed_;
  bool traced_;
  std::vector<Item> items_;
  std::unique_ptr<EventCoreProbe> probe_;
  std::uint64_t decoded_ = 0;
  std::uint64_t replayed_ = 0;
  std::uint64_t translated_ = 0;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// hier-hotpath

struct HierCell {
  std::uint32_t sms;
  const char* scheduler;
  std::uint64_t committed_cycles;  // BENCH_hier.json, map seed 1
};

// The ext_hier_scaling grid and its committed simulated cycle counts.
constexpr std::array<HierCell, 9> kHierCells = {{
    {1, "roundrobin", 22413}, {1, "gto", 22452}, {1, "dwr", 22413},
    {2, "roundrobin", 22297}, {2, "gto", 22343}, {2, "dwr", 22297},
    {4, "roundrobin", 22683}, {4, "gto", 22685}, {4, "dwr", 22683},
}};

std::string hier_label(const HierCell& cell) {
  return "sms" + std::to_string(cell.sms) + "." + cell.scheduler;
}

class HierHotpath final : public Workload {
 public:
  HierHotpath(std::uint64_t seed, bool) : seed_(seed) {}

  void setup(Tracer& tracer, Outcomes& outcomes) override {
    const std::uint32_t assemble = tracer.intern("vm.assemble");
    const std::uint32_t lower = tracer.intern("vm.lower");
    const std::uint32_t make_map = tracer.intern("core.make_map");
    probe_ = std::make_unique<EventCoreProbe>(tracer);
    vm::Program program;
    {
      const Scope span(tracer, assemble);
      program = vm::assemble(vm::suite_program("vm-bitonic", kWidth).text,
                             kWidth);
    }
    vm::LoweredProgram lowered;
    {
      const Scope span(tracer, lower);
      lowered = vm::lower_program(program);
    }
    kernel_ = std::move(lowered.kernel);
    addresses_ = kernel_addresses(kernel_);

    // The first map's seed is the workload seed, so the reference seed 1
    // is the configuration BENCH_hier.json was recorded with. The other
    // maps keep a round's cost, and its slowest calls, from hanging on
    // one map draw.
    maps_.clear();
    sims_.clear();
    references_.clear();
    for (std::size_t m = 0; m < kMaps; ++m) {
      const std::uint64_t map_seed = m == 0 ? seed_ : derive_seed(seed_, 10 + m);
      {
        const Scope span(tracer, make_map);
        maps_.push_back(core::make_matrix_map(core::Scheme::kRap, kWidth,
                                              lowered.rows, map_seed));
      }
      for (const HierCell& cell : kHierCells) {
        hier::HierConfig config;
        config.sms = cell.sms;
        config.width = kWidth;
        config.scheduler = cell.scheduler;
        config.path = hier::PathParams::defaults();
        config.path.l1.lines = 4;  // ext_hier_scaling's hot path
        config.path.mshrs = 2;
        sims_.push_back(std::make_unique<hier::HierSim>(config, *maps_.back()));
        references_.push_back(sims_.back()->run(kernel_, core::Scheme::kRap));
        if (map_seed == 1 &&
            references_.back().cycles != cell.committed_cycles) {
          outcomes.setup(label(sims_.size() - 1) + ": cycles expected " +
                         std::to_string(cell.committed_cycles) + " got " +
                         std::to_string(references_.back().cycles));
        }
      }
    }

    // The differential pin: 1 SM, round-robin, no memory path == Dmm::run.
    hier::HierConfig zero;
    zero.width = kWidth;
    zero_sim_ = std::make_unique<hier::HierSim>(zero, *maps_.front());
    dmm::Dmm machine(dmm::DmmConfig{kWidth, kLatency}, *maps_.front());
    dmm_reference_ = machine.run(kernel_);
    outcomes.setup(check_run_stats(
        "hier-hotpath sms1.roundrobin zero path vs Dmm::run", dmm_reference_,
        zero_sim_->run(kernel_, core::Scheme::kRap).sms.front().run));
  }

  void round(Round& round, Outcomes& outcomes) override {
    for (std::size_t c = 0; c < sims_.size(); ++c) {
      const hier::HierResult result = timed_call(
          round, [&] { return sims_[c]->run(kernel_, core::Scheme::kRap); });
      round.ops += result.dispatches;
      outcomes.call(check_hier_result(label(c), references_[c], result));
    }
  }

  void traced_round(Tracer& tracer, Round& round, Outcomes& outcomes) override {
    const std::uint32_t run = tracer.intern("hier.run");
    const std::uint32_t path = tracer.intern("hier.run_1sm_path");
    const std::uint32_t zero_path = tracer.intern("hier.run_1sm_zero_path");
    const std::uint32_t translate = tracer.intern("core.translate");
    for (std::size_t c = 0; c < sims_.size(); ++c) {
      const hier::HierResult result = timed_call(round, [&] {
        const Scope span(tracer, run);
        return sims_[c]->run(kernel_, core::Scheme::kRap);
      });
      round.ops += result.dispatches;
      run_dispatches_ += result.dispatches;
      outcomes.call(check_hier_result(label(c), references_[c], result));
    }

    // Probes outside the timed calls. The memory path's cost: the 1-SM
    // round-robin run with the path, then without it.
    {
      const Scope span(tracer, path);
      (void)sims_.front()->run(kernel_, core::Scheme::kRap);
    }
    dmm::RunStats zero_stats;
    {
      const Scope span(tracer, zero_path);
      zero_stats = zero_sim_->run(kernel_, core::Scheme::kRap).sms.front().run;
    }
    path_dispatches_ += zero_stats.dispatches;
    outcomes.call(check_run_stats("hier-hotpath zero path", dmm_reference_,
                                  zero_stats));
    // The event core and the Dmm warp access on their own.
    outcomes.call(check_run_stats("hier-hotpath event core", dmm_reference_,
                                  probe_->run(kernel_, *maps_.front())));
    const Scope span(tracer, translate);
    sink_ += translate_all(*maps_.front(), addresses_);
    translated_ += addresses_.size();
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(
      const Tracer& tracer) const override {
    const LayerTotals run = tracer.totals("hier.run");
    const double path_ns = per(tracer.totals("hier.run_1sm_path").total_ns,
                               path_dispatches_);
    const double zero_ns = per(
        tracer.totals("hier.run_1sm_zero_path").total_ns, path_dispatches_);
    std::vector<Metric> out = {
        {"hier.run_ns_per_dispatch", per(run.total_ns, run_dispatches_), "ns"},
        {"hier.memory_path_ns_per_dispatch", path_ns - zero_ns, "ns"},
        {"hier.allocs_per_dispatch", per(run.allocs, run_dispatches_),
         "count"},
        {"core.translate_ns",
         per(tracer.totals("core.translate").total_ns, translated_), "ns"},
        {"core.make_map_ns", mean_ns(tracer, "core.make_map"), "ns"},
    };
    // The simulated counters of the first map's cells.
    for (std::size_t c = 0; c < kHierCells.size(); ++c) {
      const hier::HierResult& r = references_[c];
      const std::string suffix = "." + hier_label(kHierCells[c]);
      std::uint64_t l1_hits = 0, l1_misses = 0, mshr = 0, stalls = 0;
      for (const hier::SmStats& sm : r.sms) {
        l1_hits += sm.l1_hits;
        l1_misses += sm.l1_misses;
        mshr += sm.mshr_stall_cycles;
        stalls += sm.warp_stall_slots;
      }
      out.push_back({"hier.cycles" + suffix, static_cast<double>(r.cycles),
                     "cycles"});
      out.push_back({"hier.l1_miss_ratio" + suffix,
                     per(l1_misses, l1_hits + l1_misses), "ratio"});
      out.push_back({"hier.l2_queue_cycles" + suffix,
                     static_cast<double>(r.l2_queue_cycles), "cycles"});
      out.push_back({"hier.mshr_stall_cycles" + suffix,
                     static_cast<double>(mshr), "cycles"});
      out.push_back({"hier.warp_stall_slots" + suffix,
                     static_cast<double>(stalls), "slots"});
    }
    add_event_core_metrics(tracer, probe_->dispatches(), out);
    add_vm_metrics(tracer, out);
    return out;
  }

 private:
  static constexpr std::size_t kMaps = 8;

  /// Sims are ordered map-major: index = map * kHierCells.size() + cell.
  static std::string label(std::size_t index) {
    return "hier-hotpath map" + std::to_string(index / kHierCells.size()) +
           "/" + hier_label(kHierCells[index % kHierCells.size()]);
  }

  std::uint64_t seed_;
  dmm::Kernel kernel_;
  std::vector<std::uint64_t> addresses_;
  std::vector<std::unique_ptr<core::MatrixMap>> maps_;
  std::vector<std::unique_ptr<hier::HierSim>> sims_;
  std::vector<hier::HierResult> references_;  // one per sim
  std::unique_ptr<hier::HierSim> zero_sim_;
  dmm::RunStats dmm_reference_;
  std::uint64_t run_dispatches_ = 0;
  std::uint64_t path_dispatches_ = 0;
  std::unique_ptr<EventCoreProbe> probe_;
  std::uint64_t translated_ = 0;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// synth-catalog

class SynthCatalog final : public Workload {
 public:
  SynthCatalog(std::uint64_t seed, bool traced) : traced_(traced) {
    options_.seed = derive_seed(seed, 3);
  }

  void setup(Tracer& tracer, Outcomes&) override {
    kernels_ = tools::builtin_kernels(kWidth);
    if (traced_) {
      vm_probe(tracer, {"vm-mergesort-round", "vm-shearsort"},
               /*lower=*/false, /*extract=*/true);
    }
  }

  void round(Round& round, Outcomes& outcomes) override {
    for (const analyze::KernelDesc& kernel : kernels_) {
      const auto [result, audited] = timed_call(round, [&] {
        analyze::SynthesisResult searched =
            analyze::synthesize_mapping(kernel, options_);
        analyze::CongestionCertificate audit =
            analyze::certify_mapping(kernel, searched.mapping);
        return std::pair{std::move(searched), std::move(audit)};
      });
      round.ops += 1;
      outcomes.call(check_synth(kernel.name, result.certificate.bound,
                                audited.bound, result.baseline_bound));
    }
  }

  void traced_round(Tracer& tracer, Round& round, Outcomes& outcomes) override {
    const std::uint32_t synthesize = tracer.intern("analyze.synthesize");
    const std::uint32_t certify = tracer.intern("analyze.certify");
    for (const analyze::KernelDesc& kernel : kernels_) {
      const auto [result, audited] = timed_call(round, [&] {
        analyze::SynthesisResult searched;
        {
          const Scope span(tracer, synthesize);
          searched = analyze::synthesize_mapping(kernel, options_);
        }
        const Scope span(tracer, certify);
        analyze::CongestionCertificate audit =
            analyze::certify_mapping(kernel, searched.mapping);
        return std::pair{std::move(searched), std::move(audit)};
      });
      round.ops += 1;
      ++kernels_traced_;
      classes_ += result.classes;
      candidates_ += result.candidates;
      pruned_ += result.witness.pruned;
      outcomes.call(check_synth(kernel.name, result.certificate.bound,
                                audited.bound, result.baseline_bound));
    }
  }

  [[nodiscard]] std::vector<Metric> layer_metrics(
      const Tracer& tracer) const override {
    const double rounds = per(kernels_traced_, kernels_.size());
    std::vector<Metric> out = {
        {"analyze.synthesize_ms", mean_ms(tracer, "analyze.synthesize"), "ms"},
        {"analyze.certify_ms", mean_ms(tracer, "analyze.certify"), "ms"},
        // Per catalog pass (17 kernels).
        {"analyze.classes", static_cast<double>(classes_) / rounds, "count"},
        {"analyze.candidates", static_cast<double>(candidates_) / rounds,
         "count"},
        // Base: candidates = evaluated + pruned.
        {"analyze.prune_ratio", per(pruned_, candidates_), "ratio"},
        {"analyze.allocs_per_kernel",
         per(tracer.totals("analyze.synthesize").allocs +
                 tracer.totals("analyze.certify").allocs,
             kernels_traced_),
         "count"},
    };
    add_vm_metrics(tracer, out);
    return out;
  }

 private:
  bool traced_;
  analyze::SynthesisOptions options_;
  std::vector<analyze::KernelDesc> kernels_;
  std::uint64_t kernels_traced_ = 0;
  std::uint64_t classes_ = 0;
  std::uint64_t candidates_ = 0;
  std::uint64_t pruned_ = 0;
};

}  // namespace

void Outcomes::call(const Failure& failure) {
  ++attempted;
  if (!failure) return;
  if (failed++ < kMaxPrintedFailures) {
    std::printf("FAIL %s\n", failure->c_str());
  }
}

void Outcomes::setup(const Failure& failure) {
  if (!failure) return;
  setup_ok = false;
  std::printf("FAIL set-up: %s\n", failure->c_str());
}

const std::vector<WorkloadInfo>& workload_infos() {
  static const std::vector<WorkloadInfo> infos = {
      {"table2-sweep", "one simulated warp access (one Table II trial)",
       "one Table II cell", true},
      {"catalog-replay", "one replayed access record",
       "one (trace, scheme) replay_trace"},
      {"hier-hotpath", "one dispatched warp-instruction", "one HierSim::run"},
      {"synth-catalog", "one kernel synthesized and audited", "one kernel"},
  };
  return infos;
}

const std::vector<Metric>& layer_metric_catalog() {
  static const std::vector<Metric> catalog = [] {
    std::vector<Metric> out = {
        {"core.make_map_ns", 0, "ns"},
        {"core.allocs_per_trial", 0, "count"},
        {"access.warp_addresses_ns", 0, "ns"},
        {"core.congestion_ns", 0, "ns"},
        {"core.translate_ns", 0, "ns"},
        {"dmm.warp_access_ns", 0, "ns"},
        {"dmm.allocs_per_warp_access", 0, "count"},
        {"hier.core_step_self_ns", 0, "ns"},
        {"replay.decode_ns_per_record", 0, "ns"},
        {"replay.lower_ns_per_record", 0, "ns"},
        {"replay.execute_ns_per_record", 0, "ns"},
        {"replay.allocs_per_record", 0, "count"},
        {"hier.run_ns_per_dispatch", 0, "ns"},
        {"hier.memory_path_ns_per_dispatch", 0, "ns"},
        {"hier.allocs_per_dispatch", 0, "count"},
    };
    for (const HierCell& cell : kHierCells) {
      const std::string suffix = "." + hier_label(cell);
      out.push_back({"hier.cycles" + suffix, 0, "cycles"});
      out.push_back({"hier.l1_miss_ratio" + suffix, 0, "ratio"});
      out.push_back({"hier.l2_queue_cycles" + suffix, 0, "cycles"});
      out.push_back({"hier.mshr_stall_cycles" + suffix, 0, "cycles"});
      out.push_back({"hier.warp_stall_slots" + suffix, 0, "slots"});
    }
    out.insert(out.end(), {
                              {"vm.assemble_ms", 0, "ms"},
                              {"vm.lower_ms", 0, "ms"},
                              {"vm.extract_ms", 0, "ms"},
                              {"analyze.synthesize_ms", 0, "ms"},
                              {"analyze.certify_ms", 0, "ms"},
                              {"analyze.classes", 0, "count"},
                              {"analyze.candidates", 0, "count"},
                              {"analyze.prune_ratio", 0, "ratio"},
                              {"analyze.allocs_per_kernel", 0, "count"},
                              {"trace.overhead_pct", 0, "%"},
                          });
    return out;
  }();
  return catalog;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool traced) {
  if (name == "table2-sweep") return std::make_unique<Table2Sweep>(seed, traced);
  if (name == "catalog-replay") {
    return std::make_unique<CatalogReplay>(seed, traced);
  }
  if (name == "hier-hotpath") return std::make_unique<HierHotpath>(seed, traced);
  if (name == "synth-catalog") {
    return std::make_unique<SynthCatalog>(seed, traced);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace rapbench
