#include "telemetry/metrics.hpp"

#include "telemetry/json.hpp"

namespace rapsim::telemetry {

namespace {

std::string make_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\0';
    key += k;
    key += '\0';
    key += v;
  }
  return key;
}

void write_labels(JsonWriter& json, const Labels& labels) {
  json.key("labels").begin_object();
  for (const auto& [k, v] : labels) json.kv(k, std::string_view(v));
  json.end_object();
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  auto& entry = counters_[make_key(name, labels)];
  if (entry.name.empty()) {
    entry.name = name;
    entry.labels = labels;
  }
  return entry.metric;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  auto& entry = gauges_[make_key(name, labels)];
  if (entry.name.empty()) {
    entry.name = name;
    entry.labels = labels;
  }
  return entry.metric;
}

Distribution& MetricsRegistry::distribution(const std::string& name,
                                            const Labels& labels) {
  auto& entry = distributions_[make_key(name, labels)];
  if (entry.name.empty()) {
    entry.name = name;
    entry.labels = labels;
  }
  return entry.metric;
}

const Counter* MetricsRegistry::find_counter(const std::string& name,
                                             const Labels& labels) const {
  const auto it = counters_.find(make_key(name, labels));
  return it == counters_.end() ? nullptr : &it->second.metric;
}

const Distribution* MetricsRegistry::find_distribution(
    const std::string& name, const Labels& labels) const {
  const auto it = distributions_.find(make_key(name, labels));
  return it == distributions_.end() ? nullptr : &it->second.metric;
}

std::size_t MetricsRegistry::size() const noexcept {
  return counters_.size() + gauges_.size() + distributions_.size();
}

std::string MetricsRegistry::to_json() const {
  JsonWriter json;
  json.begin_object();

  json.key("counters").begin_array();
  for (const auto& [key, entry] : counters_) {
    json.begin_object();
    json.kv("name", std::string_view(entry.name));
    write_labels(json, entry.labels);
    json.kv("value", entry.metric.value());
    json.end_object();
  }
  json.end_array();

  json.key("gauges").begin_array();
  for (const auto& [key, entry] : gauges_) {
    json.begin_object();
    json.kv("name", std::string_view(entry.name));
    write_labels(json, entry.labels);
    json.kv("value", entry.metric.value());
    json.end_object();
  }
  json.end_array();

  json.key("distributions").begin_array();
  for (const auto& [key, entry] : distributions_) {
    const auto& stats = entry.metric.stats();
    json.begin_object();
    json.kv("name", std::string_view(entry.name));
    write_labels(json, entry.labels);
    json.kv("count", static_cast<std::uint64_t>(stats.count()));
    json.kv("mean", stats.mean());
    json.kv("stddev", stats.stddev());
    json.kv("min", stats.min());
    json.kv("max", stats.max());
    json.kv("p50", entry.metric.percentile(50.0));
    json.kv("p95", entry.metric.percentile(95.0));
    json.kv("p99", entry.metric.percentile(99.0));
    json.key("histogram").begin_object();
    for (const auto& [value, count] : entry.metric.tally().histogram()) {
      json.kv(std::to_string(value), static_cast<std::uint64_t>(count));
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();

  json.end_object();
  return json.str();
}

}  // namespace rapsim::telemetry
