#!/usr/bin/env python3
"""Build rapbench from source and run one workload.

    python3 rapbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository. The benchmark is
built with CMake into $CARGO_TARGET_DIR/rapbench (default
.bench_build/rapbench at the checkout root); the first run configures
and compiles it, later runs only check that it is up to date. Build
output goes to stderr, so the last line on stdout is the benchmark's
JSON result. Untraced runs pin RAPSIM_THREADS to min(4, nproc), the
thread count of the Table II sweep; traced runs use one thread, because
spans are recorded by the calling thread. Traced runs write their spans
as a chrome trace next to the build.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "rapbench")


def build(directory):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", directory, "--target", "rapbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "mapping.hpp")):
        print("rapbench: the rapsim sources (src/) are not next to "
              "rapbench/; run from a full checkout", file=sys.stderr)
        return 1

    directory = build_dir()
    try:
        build(directory)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"rapbench: build failed: {error}", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env["RAPSIM_THREADS"] = "1" if args.trace else str(
        min(4, os.cpu_count() or 1))
    command = [os.path.join(directory, "rapbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            directory, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"rapbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
