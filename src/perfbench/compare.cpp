#include "perfbench/compare.hpp"

#include <map>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace rapsim::perfbench {

namespace {

struct ParsedMetric {
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
};

struct ParsedDoc {
  std::string bench;
  std::string hostname;
  std::map<std::string, ParsedMetric> metrics;  // ordered for stable output
};

double number_field(const telemetry::JsonValue& object, const char* key,
                    const std::string& where) {
  const telemetry::JsonValue* value = object.find(key);
  if (!value || !value->is_number()) {
    throw std::invalid_argument("bench document " + where +
                                ": missing numeric '" + key + "'");
  }
  return value->as_number();
}

ParsedDoc parse_doc(const std::string& text, const std::string& where) {
  telemetry::JsonValue doc;
  try {
    doc = telemetry::parse_json(text);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("bench document " + where +
                                ": " + e.what());
  }
  if (!doc.is_object()) {
    throw std::invalid_argument("bench document " + where +
                                ": not a JSON object");
  }
  const telemetry::JsonValue* version = doc.find("schema_version");
  if (!version || !version->is_integer() || version->as_integer() != 1) {
    throw std::invalid_argument("bench document " + where +
                                ": schema_version must be 1");
  }
  ParsedDoc parsed;
  const telemetry::JsonValue* bench = doc.find("bench");
  if (!bench || !bench->is_string()) {
    throw std::invalid_argument("bench document " + where +
                                ": missing 'bench' name");
  }
  parsed.bench = bench->as_string();
  if (const telemetry::JsonValue* machine = doc.find("machine")) {
    if (const telemetry::JsonValue* host = machine->find("hostname");
        host && host->is_string()) {
      parsed.hostname = host->as_string();
    }
  }
  const telemetry::JsonValue* metrics = doc.find("metrics");
  if (!metrics || !metrics->is_array()) {
    throw std::invalid_argument("bench document " + where +
                                ": missing 'metrics' array");
  }
  for (const telemetry::JsonValue& entry : metrics->as_array()) {
    const telemetry::JsonValue* name = entry.find("name");
    if (!name || !name->is_string()) {
      throw std::invalid_argument("bench document " + where +
                                  ": metric without a name");
    }
    ParsedMetric metric;
    metric.ns_per_op = number_field(entry, "ns_per_op", where);
    metric.ops_per_sec = number_field(entry, "ops_per_sec", where);
    parsed.metrics[name->as_string()] = metric;
  }
  return parsed;
}

}  // namespace

CompareResult compare_bench_json(const std::string& baseline_json,
                                 const std::string& current_json,
                                 double threshold) {
  const ParsedDoc baseline = parse_doc(baseline_json, "(baseline)");
  const ParsedDoc current = parse_doc(current_json, "(current)");
  if (baseline.bench != current.bench) {
    throw std::invalid_argument("bench documents disagree on the bench: '" +
                                baseline.bench + "' vs '" + current.bench +
                                "'");
  }

  CompareResult result;
  result.bench = baseline.bench;
  result.same_machine = baseline.hostname == current.hostname;

  for (const auto& [name, base] : baseline.metrics) {
    const auto it = current.metrics.find(name);
    if (it == current.metrics.end()) {
      result.only_baseline.push_back(name);
      continue;
    }
    MetricDelta delta;
    delta.name = name;
    delta.baseline_ns_per_op = base.ns_per_op;
    delta.current_ns_per_op = it->second.ns_per_op;
    delta.baseline_ops_per_sec = base.ops_per_sec;
    delta.current_ops_per_sec = it->second.ops_per_sec;
    if (base.ns_per_op > 0.0) {
      delta.ratio = it->second.ns_per_op / base.ns_per_op;
      delta.regressed = delta.ratio >= 1.0 + threshold;
    }
    result.regression = result.regression || delta.regressed;
    result.deltas.push_back(std::move(delta));
  }
  for (const auto& [name, metric] : current.metrics) {
    (void)metric;
    if (baseline.metrics.find(name) == baseline.metrics.end()) {
      result.only_current.push_back(name);
    }
  }
  return result;
}

}  // namespace rapsim::perfbench
