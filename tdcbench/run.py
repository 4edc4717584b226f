#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the Tucker serving engine.

    python3 tdcbench/run.py --workload r18-solo --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark binary from source into .bench_build/tdcbench
(Release, -march=native); later calls only rebuild what changed. The
binary's output is passed through; its last line is the JSON result, which
is checked against the metric names in BENCHMARK.json before it is printed.
Exit status: 0 when the run completed and every correctness check held,
non-zero otherwise (a failed build prints no result at all).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tdcbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "tdcbench-out")
BINARY = os.path.join(BUILD_DIR, "tdc_bench")
WORKLOADS = ("r18-solo", "r18-fleet", "r50-int8-batch")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_quiet(cmd, env, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print("build step timed out: %s" % " ".join(cmd), file=sys.stderr)
        return False


def build():
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout too.
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], env, BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], env,
                     BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the statistics and result printer only")
    args = parser.parse_args()
    if not args.self_check and (args.workload is None or args.seed is None
                                or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    if not build():
        print("tdcbench: build failed", file=sys.stderr)
        return 2
    if args.self_check:
        return subprocess.run([BINARY, "--self-check"]).returncode

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("tdcbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        metrics = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        result, metrics = None, set()
    if result is None:
        sys.stdout.write(proc.stdout)
        print("tdcbench: no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 4
    want = expected_metrics(args.trace)
    if metrics != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("tdcbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (sorted(want - metrics), sorted(metrics - want)),
              file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
