#!/usr/bin/env bash
# Validate the machine-readable contract of the hierarchy simulator:
#
#   tools/check_hier_schema.sh [path/to/rapsim-hier]
#
# rapsim-hier --format=json: the run document must parse, carry
# schema_version 1, echo the configuration (including the full path
# geometry), report consistent totals (total.dispatches = sum over SMs,
# cycles = max over SMs), and embed a metrics registry dump with the
# hier.* counters.
#
# Registered as the ctest entry `hier_schema` with SKIP_RETURN_CODE 77:
# a host without python3 skips rather than fails.

set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
# shellcheck source=tools/json_schema_lib.sh
. "$HERE/json_schema_lib.sh"

HIER_BIN="${1:-build/tools/rapsim-hier}"
if [ ! -x "$HIER_BIN" ]; then
  echo "check_hier_schema: binary not found: $HIER_BIN" >&2
  exit 1
fi

json_schema_require_python3 check_hier_schema 77

DOC="$(json_schema_tmpfile)"
trap 'rm -f "$DOC"' EXIT

"$HIER_BIN" --workload=bitonic --width=16 --sms=2 --scheduler=gto \
    --scheme=rap --format=json > "$DOC"

json_schema_validate "$DOC" <<'EOF'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)

def require(cond, what):
    if not cond:
        sys.exit(f"hier run schema violation: {what}")

require(doc.get("schema_version") == 1, "schema_version must be 1")

config = doc.get("config")
require(isinstance(config, dict), "config must be an object")
require(config.get("workload") == "bitonic", "config.workload must echo")
require(config.get("width") == 16, "config.width must echo")
require(config.get("sms") == 2, "config.sms must echo")
require(config.get("scheduler") == "gto", "config.scheduler must echo")
require(isinstance(config.get("scheme"), str) and config["scheme"],
        "config.scheme must be a non-empty string")
path = config.get("path")
require(isinstance(path, dict), "config.path must be an object")
require(path.get("enabled") is True, "path must default to enabled")
for key in ("line_words", "l1_lines", "l1_latency", "l2_lines",
            "l2_latency", "l2_service", "dram_latency", "dram_service",
            "mshrs"):
    require(isinstance(path.get(key), int) and path[key] >= 0,
            f"path.{key} must be a non-negative int")

total = doc.get("total")
require(isinstance(total, dict), "total must be an object")
for key in ("cycles", "dispatches", "total_stages", "max_congestion",
            "l2_hits", "l2_misses", "l2_queue_cycles"):
    require(isinstance(total.get(key), int) and total[key] >= 0,
            f"total.{key} must be a non-negative int")
for key in ("avg_congestion", "est_ns"):
    require(isinstance(total.get(key), (int, float)),
            f"total.{key} must be a number")
require(total["cycles"] > 0, "total.cycles must be positive")

sms = doc.get("sms")
require(isinstance(sms, list) and len(sms) == 2,
        "sms must be an array of 2 entries")
for i, sm in enumerate(sms):
    require(isinstance(sm, dict), f"sms[{i}] must be an object")
    require(sm.get("sm") == i, f"sms[{i}].sm must be {i}")
    for key in ("cycles", "dispatches", "total_stages", "max_congestion",
                "l1_hits", "l1_misses", "l2_hits", "dram_fills",
                "mshr_stall_cycles", "mem_wait_cycles", "idle_slots",
                "warp_stall_slots"):
        require(isinstance(sm.get(key), int) and sm[key] >= 0,
                f"sms[{i}].{key} must be a non-negative int")
require(total["dispatches"] == sum(sm["dispatches"] for sm in sms),
        "total.dispatches must be the sum over SMs")
require(total["cycles"] == max(sm["cycles"] for sm in sms),
        "total.cycles must be the max over SMs")

metrics = doc.get("metrics")
require(isinstance(metrics, dict), "metrics must be a registry dump")
counters = {c["name"] for c in metrics.get("counters", [])}
for name in ("hier.cycles", "hier.dispatches", "hier.l2_hits",
             "hier.sm_cycles", "hier.l1_misses"):
    require(name in counters, f"missing registry counter {name}")

print(f"check_hier_schema: run document OK "
      f"({total['cycles']} cycles over {len(sms)} SMs)")
EOF
