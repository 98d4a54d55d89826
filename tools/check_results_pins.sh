#!/usr/bin/env bash
# Check that the deterministic benches still print results/ byte for byte.
#
#   tools/check_results_pins.sh [BENCH_DIR] [RESULTS_DIR]
#
# Runs every bench that has a results/<name>.txt with its committed
# defaults (as tools/run_all.sh does: stdout and stderr together) and
# compares the output with that file. Two reports are skipped:
# micro_mapping_overhead prints host timings, and ext_workloads runs for
# ~20 s, so CI compares it in a step of its own. Registered as the ctest
# entry `results_pins`.

set -uo pipefail

BENCH_DIR="${1:-build/bench}"
RESULTS_DIR="${2:-results}"

status=0
checked=0
for expected in "$RESULTS_DIR"/*.txt; do
  name="$(basename "$expected" .txt)"
  case "$name" in
    micro_mapping_overhead | ext_workloads) continue ;;
  esac
  bench="$BENCH_DIR/$name"
  if [ ! -x "$bench" ]; then
    echo "results_pins: no bench binary for $expected" >&2
    status=1
    continue
  fi
  if ! "$bench" 2>&1 | cmp -s - "$expected"; then
    echo "results_pins: $name output differs from $expected" >&2
    "$bench" 2>&1 | diff "$expected" - | head -20 >&2
    status=1
  fi
  checked=$((checked + 1))
done
echo "results_pins: $checked reports checked"
exit "$status"
