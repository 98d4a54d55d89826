#!/usr/bin/env bash
# Build, test, and regenerate every experiment into results/.
#
#   tools/run_all.sh [build-dir]
#
# Bench binaries accept --format=csv|markdown|ascii; this script captures
# the default ascii renderings, one file per experiment, plus combined
# test and bench logs at the repository root (test_output.txt /
# bench_output.txt, the names EXPERIMENTS.md references).
#
# Machine-readable telemetry lands under results/metrics/: the Table II
# congestion JSON (stable schema, validated by check_metrics_schema.sh),
# the Figure 3 chrome://tracing timeline (open in ui.perfetto.dev), and a
# rapsim_profile document per transpose algorithm — see "Observability"
# in README.md. Performance is measured by rapbench (BENCHMARK.json);
# the perf section here covers only the serve engine's BENCH_serve.json.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

# Prefer Ninja when available; fall back to the default generator so
# Make-only hosts still work. The choice only applies on first configure —
# an already-configured build dir keeps its generator (CMake refuses to
# switch in place).
GENERATOR=()
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ] && command -v ninja >/dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi
cmake -B "$BUILD_DIR" "${GENERATOR[@]}"
cmake --build "$BUILD_DIR"

ctest --test-dir "$BUILD_DIR" 2>&1 | tee test_output.txt

mkdir -p results
: > bench_output.txt
for bench in "$BUILD_DIR"/bench/*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  echo "=== $name ===" | tee -a bench_output.txt
  "$bench" 2>&1 | tee "results/$name.txt" | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done

echo "=== machine-readable metrics -> results/metrics/ ==="
mkdir -p results/metrics
"$BUILD_DIR"/bench/table2_congestion_sim --format=json \
  > results/metrics/table2_congestion_sim.json
"$BUILD_DIR"/bench/fig3_dmm_pipeline \
  --chrome-trace=results/metrics/fig3_pipeline.trace.json > /dev/null
for workload in transpose-crsw transpose-srcw transpose-drdw; do
  "$BUILD_DIR"/examples/rapsim_profile --workload="$workload" --format=json \
    > "results/metrics/profile_${workload}.json"
done
tools/check_metrics_schema.sh "$BUILD_DIR"/bench/table2_congestion_sim

echo "=== demo replay campaign -> results/replay/ ==="
REPLAY="$BUILD_DIR/tools/rapsim-replay"
"$REPLAY" campaign examples/contiguous_stride.trace \
          examples/same_bank_adversary.trace \
          --schemes=raw,ras,rap,pad --trials=8 --results=results/replay
tools/check_replay_schema.sh "$REPLAY" \
  examples/contiguous_stride.trace examples/same_bank_adversary.trace

echo "=== serve daemon drill -> results/serve/ ==="
mkdir -p results/serve
tools/serve_smoke.sh "$BUILD_DIR"/tools/rapsim-served \
                     "$BUILD_DIR"/tools/rapsim-client
tools/check_serve_schema.sh "$BUILD_DIR"/tools/rapsim-served \
                            "$BUILD_DIR"/tools/rapsim-client || [ $? -eq 77 ]
# One short-lived daemon run whose drained metrics + span trace land in
# the results drop (the bench's stdout is already captured as
# results/ext_serve_throughput.txt by the loop above). Open the trace in
# ui.perfetto.dev to see each request's phase flame.
SERVE_SOCK="$(mktemp -u)"
"$BUILD_DIR"/tools/rapsim-served --socket="$SERVE_SOCK" \
  --metrics-out=results/serve/metrics.json \
  --trace-out=results/serve/spans.trace.json > /dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
for scheme in raw ras rap pad; do
  "$BUILD_DIR"/tools/rapsim-client certify --socket="$SERVE_SOCK" \
    --addresses="0,32,64,96,128" --width=32 --scheme="$scheme" > /dev/null
done
"$BUILD_DIR"/tools/rapsim-client stats --socket="$SERVE_SOCK" \
  > results/serve/stats.json
"$BUILD_DIR"/tools/rapsim-client shutdown --socket="$SERVE_SOCK" > /dev/null
wait "$SERVE_PID"

echo "=== serve perf trajectory -> results/bench/ ==="
mkdir -p results/bench
# A fresh BENCH_serve.json, compared against the committed baseline
# NON-fatally: a regression prints loudly but does not abort the sweep.
# Every other performance number is rapbench's (BENCHMARK.json).
"$BUILD_DIR"/bench/ext_serve_throughput \
  --bench-json=results/bench/BENCH_serve.json
tools/check_bench_schema.sh "$BUILD_DIR"/bench/ext_serve_throughput \
  || [ $? -eq 77 ]
"$BUILD_DIR"/tools/bench_compare BENCH_serve.json \
  results/bench/BENCH_serve.json \
  || echo "bench_compare: BENCH_serve.json moved past the threshold (see above)"

echo "=== workload VM suite -> results/vm/ ==="
mkdir -p results/vm
# The Sitchinava suite as .rvm programs (DESIGN.md §15): capture every
# program-origin workload's deterministic address stream once, sweep the
# captured traces through a resumable campaign, and lint the shipped
# example program end to end (extraction -> congestion proof -> layout
# synthesis -> race certificate) into one JSON report.
VM_TRACES=()
for workload in bitonic vm-shearsort vm-mergesort-round \
                vm-permute-identity vm-permute-bitrev vm-permute-derange; do
  "$REPLAY" capture --workload="$workload" --width=16 \
    > "results/vm/${workload}.trace"
  VM_TRACES+=("results/vm/${workload}.trace")
done
"$REPLAY" capture --program=examples/shearsort.rvm --width=16 \
  > results/vm/shearsort_example.trace
"$REPLAY" campaign "${VM_TRACES[@]}" results/vm/shearsort_example.trace \
  --schemes=raw,ras,rap,pad --trials=8 --results=results/vm/campaign
"$BUILD_DIR"/tools/rapsim-lint --program=examples/shearsort.rvm \
  --width=16 --synthesize --format=json --fail-on=never \
  --out=results/vm/lint_shearsort_example.json

echo "=== hierarchy simulation -> results/hier/ ==="
mkdir -p results/hier
# One full-path hierarchy run per scheduler (DESIGN.md §16): same
# workload, map seed and memory path, so the three documents differ only
# by warp-scheduling policy. The per-SM stats and hier.* metric registry
# are embedded in each JSON document.
HIER="$BUILD_DIR/tools/rapsim-hier"
for scheduler in roundrobin gto dwr; do
  "$HIER" --workload=bitonic --width=32 --sms=4 --scheduler="$scheduler" \
    --scheme=rap --format=json > "results/hier/bitonic_${scheduler}.json"
done
"$HIER" --program=examples/shearsort.rvm --width=16 --sms=2 \
  --scheduler=gto --scheme=rap --format=json \
  > results/hier/shearsort_example.json
tools/check_hier_schema.sh "$BUILD_DIR"/tools/rapsim-hier || [ $? -eq 77 ]
# HMM cost counters for the tiled-transpose cells (same registry schema).
"$BUILD_DIR"/bench/ext_tiled_transpose --seeds=2 \
  --metrics-out=results/metrics/hmm_tiled_transpose.json > /dev/null

echo "=== static lint reports -> results/analysis/ ==="
mkdir -p results/analysis
LINT="$BUILD_DIR/tools/rapsim-lint"
"$LINT" --list | while read -r kernel; do
  "$LINT" --kernel="$kernel" --format=json --fail-on=never \
    --out="results/analysis/lint_${kernel}.json"
done
tools/check_lint_schema.sh "$LINT"

echo "=== layout synthesis -> results/analysis/ ==="
# Full search per catalog kernel: the JSON report gains a "synthesis"
# block (winning spec, certificate, optimality witness) and SYNTHESIZE
# fix-its on every warning a family member can beat.
"$LINT" --list | while read -r kernel; do
  "$LINT" --kernel="$kernel" --synthesize --format=json --fail-on=never \
    --out="results/analysis/synth_${kernel}.json"
done

echo "done: $(ls results | wc -l) experiment reports in results/," \
     "$(ls results/metrics | wc -l) metric files in results/metrics/," \
     "$(ls results/analysis | wc -l) lint reports in results/analysis/"
