#!/usr/bin/env bash
# Build the whole tree under a sanitizer set and run tests against the
# instrumented binaries.
#
#   tools/run_sanitized.sh [extra ctest args...]          # ASan + UBSan
#   tools/run_sanitized.sh --tsan [extra ctest args...]   # ThreadSanitizer
#
# The default mode builds with RAPSIM_SANITIZE=ON (ASan + UBSan) in
# build-asan/ and runs the full tier-1 suite. --tsan builds with
# RAPSIM_SANITIZE=thread in build-tsan/ and runs the concurrency-bearing
# suites (serve transport, worker-pool campaign, parallel helpers) —
# the host-side counterpart of the guest-side race verifier — plus the
# `layering` check, so every configuration runs it. Exits 77
# (the autotools SKIP convention) when the toolchain cannot link TSan
# binaries, so CI treats an absent runtime as skipped, not failed.
# Keeps the regular build/ untouched; re-runs are incremental.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

MODE=address
if [[ "${1:-}" == "--tsan" ]]; then
  MODE=thread
  shift
fi

if [[ "$MODE" == "thread" ]]; then
  BUILD="$ROOT/build-tsan"

  # Probe for a working TSan toolchain before the expensive build: some
  # images ship the compiler flag but not libtsan.
  probe="$(mktemp -d)"
  trap 'rm -rf "$probe"' EXIT
  echo 'int main() { return 0; }' > "$probe/probe.cpp"
  if ! c++ -fsanitize=thread "$probe/probe.cpp" -o "$probe/probe" \
      >/dev/null 2>&1; then
    echo "run_sanitized.sh: ThreadSanitizer unavailable (cannot link" \
         "-fsanitize=thread); skipping" >&2
    exit 77
  fi

  cmake -B "$BUILD" -S "$ROOT" -DRAPSIM_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=Debug
  cmake --build "$BUILD" -j "$(nproc)"

  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

  cd "$BUILD"
  # The threaded subset: socket serve transport, the service's worker
  # pool and response cache (and the serve_schema ctest, which drives
  # every method through that pool), campaign worker pool, and the
  # parallel utility layer; plus the library-order check.
  ctest --output-on-failure -j "$(nproc)" \
    -R "Serve|Service|ResponseCache|serve_schema|Campaign|Parallel|^layering$" \
    "$@"
  exit 0
fi

BUILD="$ROOT/build-asan"

cmake -B "$BUILD" -S "$ROOT" -DRAPSIM_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build "$BUILD" -j "$(nproc)"

# halt_on_error keeps a UBSan report from scrolling past unnoticed;
# detect_leaks stays on (the default) to catch allocator misuse in tests.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

cd "$BUILD"
ctest --output-on-failure -j "$(nproc)" "$@"
