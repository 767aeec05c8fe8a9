#!/usr/bin/env python3
"""Compares two sets of perfbench results, workload by workload.

    python3 tools/bench_compare.py BASE CHANGE

BASE and CHANGE name a results file (`BENCH_<n>.json` at the repository
root), optionally suffixed with `:SIDE` to pick one of its sides; the default
side is `change`. So `BENCH_31.json:parent BENCH_31.json` compares one change
with its parent, and `BENCH_31.json BENCH_32.json` compares two later
changes. A results file looks like

    {"sides": {"parent": {"runs": [RUN, ...]}, "change": {"runs": [...]}}}

where each RUN is {"pair", "workload", "seed", "trace", "result"} and
"result" is the JSON line `perfbench/run.py` printed. Runs of the two sides
with the same "pair" ran back to back. Only `--trace 0` runs are compared:
they carry the end-to-end metrics of BENCHMARK.json.

For every end-to-end metric of every workload found on both sides, prints the
base median, the change median, the quartiles of each, and the relative
change of the medians. Then the claim rule: of the pairs found on both sides,
how many each side won (the better value under the metric's direction; ties
count for neither), and whether the medians differ by more than the base
side's interquartile range. Exits 1 if an exact metric (suite-steady's simulated
cycles, |ir| and compile work, which repeat bit for bit) differs anywhere, or
if a metric's median got worse by more than its bound in BENCHMARK.json;
exits 2 on unreadable input; else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Metrics that repeat bit for bit on every run of one build (perfbench/README.md).
EXACT = {
    "suite-steady": ("steady_cycles_geomean", "code_ir_total",
                     "code_ir_per_install", "pass_runs_per_compile"),
}


class InputError(Exception):
    pass


def load_side(spec):
    """{workload: {metric: [(pair, value)]}} of the trace-0 runs named by
    FILE[:SIDE]; pair is None for a run without one."""
    path, side = spec, "change"
    if ":" in spec and not os.path.exists(spec):
        path, side = spec.rsplit(":", 1)
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError("%s: %s" % (path, e))
    runs = data.get("sides", {}).get(side, {}).get("runs")
    if not runs:
        raise InputError("%s: no runs on side '%s'" % (path, side))
    values = {}
    for run in runs:
        if run.get("trace") != 0:
            continue
        metrics = values.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append((run.get("pair"), m["value"]))
    return values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def pairs_won(base, change, better):
    """(base wins, change wins, pairs on both sides) over the runs' pairs."""
    b, c = dict(base), dict(change)
    pairs = [p for p in b if p is not None and p in c]
    sign = 1 if better == "lower" else -1
    base_wins = sum(1 for p in pairs if sign * (b[p] - c[p]) < 0)
    change_wins = sum(1 for p in pairs if sign * (c[p] - b[p]) < 0)
    return base_wins, change_wins, len(pairs)


def relative_worsening(base, change, better):
    """How much worse the change median is, as a fraction of the base."""
    worse = change - base if better == "lower" else base - change
    if worse <= 0:
        return 0.0
    return worse / abs(base) if base != 0 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()

    try:
        base, change = load_side(args.base), load_side(args.change)
        with open(MANIFEST) as f:
            end_to_end = json.load(f)["end_to_end"]
    except (InputError, OSError, KeyError, json.JSONDecodeError) as e:
        print("bench_compare:", e, file=sys.stderr)
        return 2

    failures = []
    for workload in sorted(set(base) & set(change)):
        print("%s (%d base runs, %d change runs)" % (
            workload, len(next(iter(base[workload].values()))),
            len(next(iter(change[workload].values())))))
        print("  %-24s %14s %25s %14s %25s %9s %7s %11s %7s" % (
            "metric", "base median", "base q1..q3", "change median",
            "change q1..q3", "delta", "bound", "won b:c/n", "gap>iqr"))
        for m in end_to_end:
            name = m["name"]
            b_runs, c_runs = base[workload].get(name), change[workload].get(name)
            if not b_runs or not c_runs:
                failures.append("%s %s: missing on one side" % (workload, name))
                continue
            b, c = [v for _, v in b_runs], [v for _, v in c_runs]
            bm, cm = statistics.median(b), statistics.median(c)
            bq, cq = quartiles(b), quartiles(c)
            delta = (cm - bm) / abs(bm) if bm != 0 else 0.0
            won = "%d:%d/%d" % pairs_won(b_runs, c_runs, m["better"])
            gap = "yes" if abs(cm - bm) > bq[1] - bq[0] else "no"
            print("  %-24s %14.6g %12.6g..%-12.6g %14.6g %12.6g..%-12.6g %+8.2f%% %7g %11s %7s" % (
                name, bm, bq[0], bq[1], cm, cq[0], cq[1], 100 * delta, m["bound"],
                won, gap))
            if name in EXACT.get(workload, ()) and len(set(b + c)) != 1:
                failures.append("%s %s: exact metric moved (%s -> %s)" % (
                    workload, name, sorted(set(b)), sorted(set(c))))
            elif relative_worsening(bm, cm, m["better"]) > m["bound"]:
                failures.append("%s %s: worse by more than its bound %g (%g -> %g)" % (
                    workload, name, m["bound"], bm, cm))
    if not set(base) & set(change):
        failures.append("no workload on both sides")
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
