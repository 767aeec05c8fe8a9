#!/usr/bin/env python3
"""Builds the perfbench runner from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory. The last line of standard
output is the result as one JSON object: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1, each
checked to be there under its name and unit. Any failure to build or run
exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("suite-steady", "traffic-open")
RUN_TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(build_dir, targets):
    """Configures and builds the requested targets; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """{name: unit} of the manifest's metrics for this kind of run."""
    with open(MANIFEST) as f:
        manifest = json.load(f)
    return {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")

    if args.self_test:
        if not build(build_dir, ["perfbench_stats_test"]):
            return 2
        return subprocess.run([os.path.join(build_dir, "perfbench_stats_test")]).returncode

    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")
    if not build(build_dir, ["perfbench_runner"]):
        return 2

    runner = os.path.join(build_dir, "perfbench_runner")
    # Exact metrics (simulated cycles, installed |ir|) must repeat bit-for-bit
    # across every run of one build; the runner checks them against this file.
    exact_file = os.path.join(build_dir, "exact-%s-%s.txt" % (file_digest(runner), args.workload))
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--exact-file", exact_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("runner exceeded", RUN_TIMEOUT_S, "s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("runner failed with exit code", proc.returncode)
        return 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("runner printed no JSON result")
        return 3
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result keys:", sorted(result))
        return 3
    expected = expected_metrics(args.trace)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        log("metrics differ from BENCHMARK.json: missing",
            sorted(set(expected) - set(printed)), "unexpected",
            sorted(set(printed) - set(expected)), "wrong unit",
            sorted(n for n in expected if n in printed and printed[n] != expected[n]))
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
