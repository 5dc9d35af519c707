#!/usr/bin/env python3
"""Builds and runs the repo benchmark; NOTES.md beside this file says what
it measures and why.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --unit-tests

Run it from the root of a checkout. The first call configures and builds
the library and the perfbench binary (Release) under .bench_build/perfbench;
later calls rebuild only what changed. The binary's last stdout line is the
result JSON. This script checks that the result's metric names and units are
the ones BENCHMARK.json declares, and exits nonzero without printing a result
when the build, the run or that check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configures once, then builds `target`; build logs go to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT}: run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = BUILD / "CMakeCache.txt"
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not cache.is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            if not step(["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release", *generator]):
                cache.unlink(missing_ok=True)  # so the next run reconfigures
                fail("configure failed")
        if not step(["cmake", "--build", str(BUILD), "--target", target,
                     "-j", jobs]):
            fail("build failed")
    return BUILD / target


def step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    return done.returncode == 0


def check_result(line, trace):
    """The result line must carry exactly the declared metrics."""
    try:
        result = json.loads(line)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ValueError, OSError) as e:
        fail(f"unreadable result or BENCHMARK.json: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"]
            for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--unit-tests", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.unit_tests:
        sys.exit(subprocess.run([str(build("perfbench_test"))]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    exe = build("perfbench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(BUILD)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode == 0:
        check_result(lines[-1], args.trace == 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
