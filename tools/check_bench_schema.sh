#!/usr/bin/env bash
# Validate the BENCH_<name>.json perf-trajectory schema.
#
#   tools/check_bench_schema.sh [path/to/ext_serve_throughput]
#
# Runs a small serve throughput bench with --bench-json and checks the
# emitted document parses and carries every field tools/bench_compare
# and the committed BENCH_serve.json rely on: schema_version 1, bench name, machine identity, config, and
# the full per-metric aggregate (samples/items/total_ns/ops_per_sec/
# ns_per_op/p50/p95/p99/min/max/mean/stddev). Registered as the ctest
# entry `bench_schema` with SKIP_RETURN_CODE 77: a host without python3
# skips rather than fails.

set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
# shellcheck source=tools/json_schema_lib.sh
. "$HERE/json_schema_lib.sh"

BIN="${1:-build/bench/ext_serve_throughput}"
if [ ! -x "$BIN" ]; then
  echo "check_bench_schema: bench binary not found: $BIN" >&2
  exit 1
fi

json_schema_require_python3 check_bench_schema 77

DOC="$(json_schema_tmpfile)"
"$BIN" --bench-json="$DOC" --requests=64 --unique=8 --clients=2 > /dev/null

json_schema_validate "$DOC" <<'EOF'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)

def require(cond, what):
    if not cond:
        sys.exit(f"bench schema violation: {what}")

require(doc.get("schema_version") == 1, "schema_version must be 1")
require(isinstance(doc.get("bench"), str) and doc["bench"],
        "bench must be a non-empty string")
require(isinstance(doc.get("unix_time"), int), "unix_time must be an int")

machine = doc.get("machine")
require(isinstance(machine, dict), "machine must be an object")
for key in ("hostname", "os", "compiler"):
    require(isinstance(machine.get(key), str) and machine[key],
            f"machine.{key} must be a non-empty string")
require(isinstance(machine.get("hardware_threads"), int),
        "machine.hardware_threads must be an int")

require(isinstance(doc.get("config"), dict), "config must be an object")

metrics = doc.get("metrics")
require(isinstance(metrics, list) and metrics,
        "metrics must be a non-empty array")
INT_FIELDS = ("samples", "items", "total_ns", "p50_ns", "p95_ns",
              "p99_ns", "min_ns", "max_ns")
NUM_FIELDS = ("ops_per_sec", "ns_per_op", "mean_ns", "stddev_ns")
for metric in metrics:
    require(isinstance(metric, dict), "each metric must be an object")
    require(isinstance(metric.get("name"), str) and metric["name"],
            "metric.name must be a non-empty string")
    name = metric["name"]
    for key in INT_FIELDS:
        require(isinstance(metric.get(key), int) and metric[key] >= 0,
                f"{name}.{key} must be a non-negative int")
    for key in NUM_FIELDS:
        require(isinstance(metric.get(key), (int, float)),
                f"{name}.{key} must be a number")
    require(metric["samples"] > 0, f"{name} recorded no samples")
    require(metric["ns_per_op"] > 0, f"{name}.ns_per_op must be positive")
    require(metric["min_ns"] <= metric["p50_ns"] <= metric["max_ns"],
            f"{name} percentiles out of order")

print(f"check_bench_schema: OK ({doc['bench']}: "
      f"{len(metrics)} metric(s) validated)")
EOF
