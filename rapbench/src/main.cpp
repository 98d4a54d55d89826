// rapbench: the repository's benchmark.
//
//   rapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans-out <path>]
//
// Builds the workload's inputs from the seed (set-up), then runs rounds
// of checked calls back to back until --seconds have passed, finishing
// the round in progress. With --trace 0 it reports the end-to-end
// metrics: untraced runs repeat the set-up between rounds and report its
// median, and scale a single-threaded workload's host times by the
// host's measured speed. With --trace 1 it alternates untraced and
// traced rounds and reports the per-layer metrics, every span's self
// time and the tracing overhead, and writes the kept spans to
// --spans-out. Human-readable lines come first; the last line is the
// JSON result.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using namespace rapbench;
using Clock = std::chrono::steady_clock;

constexpr double kSetupShare = 0.1;

// Iterations per second of machine_speed()'s loop on the machine the
// bounds in BENCHMARK.json were set on (a 4-vCPU 2 GHz Xeon VM).
constexpr double kReferenceSpeed = 2.3e7;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string spans_out;
};

std::optional<Options> parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--seed" || flag == "--seconds" || flag == "--trace") {
      const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return std::nullopt;
      if (flag == "--seed") options.seed = n;
      if (flag == "--seconds") options.seconds = n;
      if (flag == "--trace") {
        if (n > 1) return std::nullopt;
        options.trace = n == 1;
      }
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.seconds == 0) {
    return std::nullopt;
  }
  return options;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The host's current speed: iterations per second of a fixed loop of
/// the operations the simulator's hot paths are made of (hash-map
/// updates, integer division, small heap allocations). It runs a few
/// milliseconds and shares no code with the simulator, so no change to
/// src/ moves it.
double machine_speed() {
  constexpr std::uint64_t kIterations = 50000;
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    counts[(x >> 33) % 1021] += i;
    if (counts.size() == 512) counts.clear();
    x += (x >> 40) / (i % 7 + 1);
  }
  const double seconds = seconds_since(start);
  volatile std::uint64_t sink = x + counts.size();
  (void)sink;
  return static_cast<double>(kIterations) / seconds;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double rate(const Round& round) {
  return round.busy_ns == 0 ? 0.0
                            : static_cast<double>(round.ops) * 1e9 /
                                  static_cast<double>(round.busy_ns);
}

void print_metric(const Metric& metric, const std::string& note = {}) {
  std::printf("  %-44s %14.6g %-7s %s\n", metric.name.c_str(), metric.value,
              metric.unit.c_str(), note.c_str());
}

int run(int argc, char** argv) {
  const std::optional<Options> parsed = parse(argc, argv);
  const WorkloadInfo* info = nullptr;
  if (parsed) {
    for (const WorkloadInfo& w : workload_infos()) {
      if (w.name == parsed->workload) info = &w;
    }
  }
  if (!info) {
    std::fprintf(stderr,
                 "usage: rapbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\nworkloads:");
    for (const WorkloadInfo& w : workload_infos()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Options& options = *parsed;

  const char* threads_env = std::getenv("RAPSIM_THREADS");
  std::printf("rapbench workload=%s seed=%llu seconds=%llu trace=%d\n",
              info->name.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.seconds),
              options.trace ? 1 : 0);
  std::printf("machine: nproc=%u RAPSIM_THREADS=%s workers=%zu "
              "compiler=%s build=%s\n",
              std::thread::hardware_concurrency(),
              threads_env ? threads_env : "unset",
              rapsim::util::worker_count(), __VERSION__, RAPBENCH_BUILD_TYPE);
  std::printf("op: %s; call: %s; closed loop, 1 caller\n", info->op.c_str(),
              info->call.c_str());

  Tracer tracer(options.trace);
  Outcomes outcomes;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  const auto set_up = [&] {
    workload.reset();  // one workload's inputs in memory at a time
    workload = make_workload(info->name, options.seed, options.trace);
    const Clock::time_point start = Clock::now();
    workload->setup(tracer, outcomes);
    setup_s.push_back(seconds_since(start));
    setup_total += setup_s.back();
  };
  set_up();

  // Untraced runs set up again between rounds while set-up has taken
  // under kSetupShare of the run, so set-up samples spread over the
  // whole run instead of one moment of it, and sample the host's speed
  // after every round.
  std::vector<double> rates, traced_rates, call_ms, speeds;
  const Clock::time_point start = Clock::now();
  do {
    Round round;
    workload->round(round, outcomes);
    rates.push_back(rate(round));
    call_ms.insert(call_ms.end(), round.call_ms.begin(), round.call_ms.end());
    if (options.trace) {
      Round traced;
      workload->traced_round(tracer, traced, outcomes);
      traced_rates.push_back(rate(traced));
    } else {
      if (!info->multithreaded) speeds.push_back(machine_speed());
      if (setup_total < kSetupShare * seconds_since(start)) set_up();
    }
  } while (seconds_since(start) < static_cast<double>(options.seconds));

  std::vector<Metric> metrics;
  if (!options.trace) {
    // A single-threaded workload's host times are scaled to the reference
    // machine speed: a shared host that slows down for minutes slows
    // machine_speed() with it, and the ratio cancels. machine_speed() runs
    // on one thread and does not track what slows a multi-threaded
    // workload, whose times stay unscaled. The unscaled medians are
    // printed beside the scaled ones.
    const double slowdown =
        speeds.empty() ? 1.0 : kReferenceSpeed / median(speeds);
    std::printf("end-to-end (host time, %s; %zu rounds, %zu calls):\n",
                speeds.empty() ? "unscaled"
                               : ("host at " + std::to_string(1.0 / slowdown) +
                                  " of the reference speed")
                                     .c_str(),
                rates.size(), call_ms.size());
    const auto add = [&](const std::string& name, double raw, bool is_rate,
                         const std::string& unit, const std::string& note) {
      metrics.push_back({name, is_rate ? raw * slowdown : raw / slowdown, unit});
      char unscaled[64];
      std::snprintf(unscaled, sizeof unscaled, "; unscaled %.6g", raw);
      print_metric(metrics.back(), note + unscaled);
    };
    add("ops_per_s", median(rates), true, "ops/s", "median over rounds");
    add("call_ms_p50", median(call_ms), false, "ms",
        "median of " + std::to_string(call_ms.size()) + " calls");
    if (const auto tail = tail_percentile(call_ms)) {
      add("call_ms_p" + std::to_string(tail->percentile), tail->value, false,
          "ms", std::to_string(tail->beyond) + " calls beyond it");
    }
    add("setup_s", median(setup_s), false, "s",
        "median of " + std::to_string(setup_s.size()) + " set-ups");
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    print_metric(metrics.back());
  } else {
    // Every catalog metric is printed; a layer this workload never calls
    // reads 0.
    const std::vector<Metric> measured = workload->layer_metrics(tracer);
    for (Metric metric : layer_metric_catalog()) {
      for (const Metric& m : measured) {
        if (m.name == metric.name) metric.value = m.value;
      }
      if (metric.name == "trace.overhead_pct") {
        const double traced = median(traced_rates);
        metric.value =
            traced > 0.0 ? (median(rates) / traced - 1.0) * 100.0 : 0.0;
      }
      metrics.push_back(std::move(metric));
    }
    std::printf("tracing overhead: untraced %.6g ops/s, traced %.6g ops/s "
                "(medians over %zu rounds each)\n",
                median(rates), median(traced_rates), rates.size());
    std::printf("spans (self = duration minus child spans):\n");
    std::printf("  %-28s %10s %14s %14s %12s\n", "span", "count",
                "mean_ns", "mean_self_ns", "allocs/span");
    for (const std::string& name : tracer.names()) {
      const LayerTotals t = tracer.totals(name);
      if (t.count == 0) continue;
      const double n = static_cast<double>(t.count);
      std::printf("  %-28s %10llu %14.1f %14.1f %12.2f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) / n,
                  static_cast<double>(t.self_ns) / n,
                  static_cast<double>(t.allocs) / n);
    }
    std::printf("per-layer metrics:\n");
    for (const Metric& metric : metrics) print_metric(metric);
    if (!options.spans_out.empty()) {
      std::ofstream out(options.spans_out);
      out << tracer.chrome_trace() << '\n';
      if (!out) {
        std::fprintf(stderr, "rapbench: cannot write %s\n",
                     options.spans_out.c_str());
        return 1;
      }
    }
  }

  const bool correct = outcomes.setup_ok && outcomes.failed == 0;
  std::printf("error_rate %.6g (%llu of %llu calls failed their check%s)\n",
              outcomes.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcomes.failed) /
                        static_cast<double>(outcomes.attempted),
              static_cast<unsigned long long>(outcomes.failed),
              static_cast<unsigned long long>(outcomes.attempted),
              outcomes.setup_ok ? "" : "; a set-up check failed");
  std::printf("%s\n", result_line(correct, outcomes.attempted,
                                  outcomes.failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rapbench: %s\n", e.what());
    return 1;
  }
}
