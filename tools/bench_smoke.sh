#!/usr/bin/env bash
# Smoke of the perf-trajectory loop with real binaries, no python needed:
#
#   tools/bench_smoke.sh [path/to/ext_serve_throughput] [path/to/bench_compare]
#
#   1. a small serve throughput run (--bench-json) writes a document;
#   2. bench_compare of the document against itself exits 0 (a trajectory
#      point never regresses against itself);
#   3. a hand-degraded copy (ns_per_op doubled via sed) makes
#      bench_compare exit 1 — the regression gate actually fires;
#   4. mismatched bench names exit 2 (usage/diagnostic path).
#
# Registered as the ctest entry `bench_smoke`; also run by run_all.sh.

set -euo pipefail

BENCH="${1:-build/bench/ext_serve_throughput}"
COMPARE="${2:-build/tools/bench_compare}"
for bin in "$BENCH" "$COMPARE"; do
  if [ ! -x "$bin" ]; then
    echo "bench_smoke: binary not found: $bin" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
fail() { echo "bench_smoke: $*" >&2; exit 1; }

BASE="$WORK/base.json"
"$BENCH" --bench-json="$BASE" --requests=64 --unique=8 --clients=2 > /dev/null
[ -s "$BASE" ] || fail "bench wrote no document"

# --- self-compare passes ------------------------------------------------
"$COMPARE" "$BASE" "$BASE" > "$WORK/self.out" \
  || fail "self-compare exited nonzero: $(cat "$WORK/self.out")"
grep -q "verdict: ok" "$WORK/self.out" || fail "self-compare verdict not ok"
echo "bench_smoke: self-compare OK"

# --- a degraded ns_per_op trips the gate --------------------------------
# Inflate every ns_per_op by a numeric-prefix injection (well past the
# default 30% threshold); the document stays valid JSON.
sed 's/"ns_per_op": *\([0-9][0-9.]*\)/"ns_per_op":9999999\1/' "$BASE" \
    > "$WORK/slow.json"
RC=0
"$COMPARE" "$BASE" "$WORK/slow.json" > "$WORK/slow.out" || RC=$?
[ "$RC" -eq 1 ] || fail "degraded compare exited $RC, want 1"
grep -q "REGRESSED" "$WORK/slow.out" || fail "no REGRESSED marker printed"
echo "bench_smoke: regression gate fires OK"

# --- mismatched bench names are a usage error ---------------------------
sed 's/"bench":"/"bench":"other-/' "$BASE" > "$WORK/other.json"
RC=0
"$COMPARE" "$BASE" "$WORK/other.json" > /dev/null 2>&1 || RC=$?
[ "$RC" -eq 2 ] || fail "mismatched-name compare exited $RC, want 2"
echo "bench_smoke: mismatched bench name rejected OK"

echo "bench_smoke: PASS"
