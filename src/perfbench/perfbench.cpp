#include "perfbench/perfbench.hpp"

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "telemetry/json.hpp"

namespace rapsim::perfbench {

Aggregate aggregate_latencies(const util::Tally& latency_ns,
                              std::uint64_t wall_ns) {
  if (latency_ns.count() == 0) return {};
  util::OnlineStats stats;
  for (const auto& [value, count] : latency_ns.histogram()) {
    stats.add_repeated(static_cast<double>(value), count);
  }
  const auto samples = static_cast<double>(latency_ns.count());
  Aggregate agg;
  agg.samples = latency_ns.count();
  agg.items = 1;
  agg.total_ns = wall_ns;
  agg.ops_per_sec =
      wall_ns > 0 ? samples / (static_cast<double>(wall_ns) / 1e9) : 0.0;
  agg.ns_per_op = static_cast<double>(latency_ns.percentile(50.0));
  agg.p50_ns = latency_ns.percentile(50.0);
  agg.p95_ns = latency_ns.percentile(95.0);
  agg.p99_ns = latency_ns.percentile(99.0);
  agg.min_ns = latency_ns.min();
  agg.max_ns = latency_ns.max();
  agg.mean_ns = stats.mean();
  agg.stddev_ns = stats.stddev();
  return agg;
}

MachineInfo capture_machine() {
  MachineInfo info;
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) == 0 && host[0] != '\0') {
    info.hostname = host;
  } else {
    info.hostname = "unknown";
  }
  struct utsname uts = {};
  if (::uname(&uts) == 0) {
    info.os = std::string(uts.sysname) + " " + uts.release;
  } else {
    info.os = "unknown";
  }
#if defined(__VERSION__)
  info.compiler = __VERSION__;
#else
  info.compiler = "unknown";
#endif
  info.hardware_threads = std::thread::hardware_concurrency();
  return info;
}

void BenchReport::set_config(const std::string& key, std::uint64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void BenchReport::set_config(const std::string& key,
                             const std::string& value) {
  config_.emplace_back(key, "\"" + telemetry::json_escape(value) + "\"");
}

void BenchReport::add(const std::string& metric_name,
                      const Aggregate& aggregate) {
  metrics_.emplace_back(metric_name, aggregate);
}

std::string BenchReport::to_json() const {
  telemetry::JsonWriter json;
  json.begin_object();
  json.kv("schema_version", 1);
  json.kv("bench", std::string_view(bench_));
  json.kv("unix_time", static_cast<std::int64_t>(std::time(nullptr)));

  json.key("machine").begin_object();
  json.kv("hostname", std::string_view(machine_.hostname));
  json.kv("os", std::string_view(machine_.os));
  json.kv("compiler", std::string_view(machine_.compiler));
  json.kv("hardware_threads", machine_.hardware_threads);
  json.end_object();

  json.key("config").begin_object();
  for (const auto& [key, serialized] : config_) {
    json.key(key).raw_value(serialized);
  }
  json.end_object();

  json.key("metrics").begin_array();
  for (const auto& [name, agg] : metrics_) {
    json.begin_object();
    json.kv("name", std::string_view(name));
    json.kv("samples", agg.samples);
    json.kv("items", agg.items);
    json.kv("total_ns", agg.total_ns);
    json.kv("ops_per_sec", agg.ops_per_sec);
    json.kv("ns_per_op", agg.ns_per_op);
    json.kv("p50_ns", agg.p50_ns);
    json.kv("p95_ns", agg.p95_ns);
    json.kv("p99_ns", agg.p99_ns);
    json.kv("min_ns", agg.min_ns);
    json.kv("max_ns", agg.max_ns);
    json.kv("mean_ns", agg.mean_ns);
    json.kv("stddev_ns", agg.stddev_ns);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

void write_bench_json(const std::string& path, const BenchReport& report) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path());
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("perfbench: cannot write " + tmp);
    out << report.to_json() << '\n';
    if (!out) throw std::runtime_error("perfbench: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("perfbench: cannot rename " + tmp + " to " +
                             path);
  }
}

}  // namespace rapsim::perfbench
