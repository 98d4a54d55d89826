// The benchmark's four workloads. Each one is driven as a closed loop by
// one caller: set-up builds every input from the workload seed, then
// rounds of calls run back to back, each call waiting for the previous
// one, and every call's output is checked.
//
//   table2-sweep    Table II through access::estimate_congestion_2d
//   catalog-replay  RAPT decode + replay of the executable catalog
//   hier-hotpath    HierSim on vm-bitonic, {1,2,4} SMs x 3 schedulers
//   synth-catalog   synthesize_mapping + certify_mapping, lint catalog
//
// A traced round makes the same calls with a span around each call into
// a layer (and, where a layer is only reachable inside a library call,
// a probe that makes that layer's public calls itself); layer_metrics()
// turns the span totals into the per-layer metrics.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace rapbench {

/// One round of calls.
struct Round {
  std::uint64_t ops = 0;
  std::uint64_t busy_ns = 0;     // time inside the round's timed work
  std::vector<double> call_ms;   // one latency per call
};

/// Check outcomes across set-up and every call.
struct Outcomes {
  std::uint64_t attempted = 0;  // calls checked
  std::uint64_t failed = 0;     // calls whose check failed
  bool setup_ok = true;

  void call(const Failure& failure);
  void setup(const Failure& failure);
};

struct WorkloadInfo {
  std::string name;
  std::string op;    // what ops_per_s counts
  std::string call;  // what one call_ms sample times
  /// Runs its calls on RAPSIM_THREADS workers rather than on the caller.
  bool multithreaded = false;
};

[[nodiscard]] const std::vector<WorkloadInfo>& workload_infos();

/// Every per-layer metric the traced run reports, with its unit.
[[nodiscard]] const std::vector<Metric>& layer_metric_catalog();

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build every input the calls use, and run the reference checks.
  virtual void setup(Tracer& tracer, Outcomes& outcomes) = 0;
  /// One round of calls, untraced.
  virtual void round(Round& round, Outcomes& outcomes) = 0;
  /// One round with spans around the calls into each layer.
  virtual void traced_round(Tracer& tracer, Round& round,
                            Outcomes& outcomes) = 0;
  /// The per-layer metrics this workload measures (a subset of the
  /// catalog), from the spans and counters of its traced rounds.
  [[nodiscard]] virtual std::vector<Metric> layer_metrics(
      const Tracer& tracer) const = 0;
};

/// `traced` selects the smaller traced-run sizes (single-threaded Table
/// II cells). Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool traced);

}  // namespace rapbench
