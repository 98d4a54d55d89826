// Low-overhead metrics registry — the machine-readable side of every run.
//
// Three metric kinds cover everything the simulator reports:
//
//   * Counter       — monotonically increasing uint64 (bank requests,
//                     dispatches, stall slots)
//   * Gauge         — last-written double (occupancy ratios, derived rates)
//   * Distribution  — OnlineStats moments + an exact integer Tally, so the
//                     JSON exporter can emit mean/stddev AND p50/p95/p99
//                     of discrete observables such as congestion
//
// Metrics are identified by (name, labels); labels are free-form key/value
// pairs (scheme=RAP, width=32, seed=7, bank=13 ...). Lookup is a map walk
// — callers on hot paths (Dmm::run) do NOT talk to the registry per
// access; they fill a RunTelemetry sink (plain vectors) and flush it here
// once per run. References returned by counter()/gauge()/distribution()
// are stable for the registry's lifetime, so a caller may also cache one
// and increment it directly.
//
// to_json() renders one stable-schema document:
//   {"counters":[{"name":...,"labels":{...},"value":N}, ...],
//    "gauges":[...], "distributions":[{"name":...,"count":...,"mean":...,
//    "p50":...,"p95":...,"p99":...,"histogram":{...}}, ...]}

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/stats.hpp"

namespace rapsim::telemetry {

/// Metric labels, ordered so serialization is deterministic.
using Labels = std::map<std::string, std::string>;

class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  void set(std::uint64_t value) noexcept { value_ = value; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

class Distribution {
 public:
  void observe(std::uint64_t value) {
    stats_.add(static_cast<double>(value));
    tally_.add(value);
  }
  /// O(1) weighted observation — used when flushing a histogram.
  void observe_repeated(std::uint64_t value, std::size_t count) {
    stats_.add_repeated(static_cast<double>(value), count);
    tally_.add_count(value, count);
  }
  [[nodiscard]] const util::OnlineStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const util::Tally& tally() const noexcept { return tally_; }
  [[nodiscard]] std::uint64_t percentile(double p) const noexcept {
    return tally_.percentile(p);
  }

 private:
  util::OnlineStats stats_;
  util::Tally tally_;
};

class MetricsRegistry {
 public:
  /// Find-or-create. The returned reference stays valid until the
  /// registry is destroyed.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Distribution& distribution(const std::string& name,
                             const Labels& labels = {});

  /// Read-only lookup: nullptr when the metric was never registered.
  /// Unlike the find-or-create accessors these let asserting code (tests,
  /// schema checks) probe for a metric's absence without materializing it.
  [[nodiscard]] const Counter* find_counter(const std::string& name,
                                            const Labels& labels = {}) const;
  [[nodiscard]] const Distribution* find_distribution(
      const std::string& name, const Labels& labels = {}) const;

  [[nodiscard]] std::size_t size() const noexcept;

  /// Stable-schema JSON document of every registered metric.
  [[nodiscard]] std::string to_json() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    T metric;
  };
  /// Key = name + '\0' + serialized labels (deterministic order).
  template <typename T>
  using EntryMap = std::map<std::string, Entry<T>>;

  EntryMap<Counter> counters_;
  EntryMap<Gauge> gauges_;
  EntryMap<Distribution> distributions_;
};

}  // namespace rapsim::telemetry
