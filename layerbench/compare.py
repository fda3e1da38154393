#!/usr/bin/env python3
"""Compare saved benchmark runs of two commits, metric by metric.

Usage: python3 layerbench/compare.py BASE.log [BASE.log ...] -- NEW.log [NEW.log ...]

Each log is the standard output of one ``layerbench/run.py`` run.  The
comparison is refused (exit 2) when the runs differ in their context
line: arithmetic kernel, HOPF_PURE, HOPF_MAX_DIM, core count or Python
version, or when they mix workloads.  Otherwise it prints, per metric,
each side's median and quartiles and the new median as a ratio of the
base median.
"""

from __future__ import annotations

import json
import statistics
import sys


def read(path):
    lines = open(path).read().splitlines()
    ctx = next(json.loads(ln[len("context: "):]) for ln in lines if ln.startswith("context: "))
    workload = next(ln.split()[0] for ln in lines if ln and not ln.startswith(("context: ", "{")))
    return ctx, workload, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    sides = [[read(p) for p in argv[:cut]], [read(p) for p in argv[cut + 1:]]]
    if not sides[0] or not sides[1]:
        print("compare: each side needs at least one run", file=sys.stderr)
        return 2
    contexts = {json.dumps(ctx, sort_keys=True) for side in sides for ctx, _, _ in side}
    workloads = {w for side in sides for _, w, _ in side}
    if len(contexts) > 1:
        print("compare: refused, the runs differ in context:", file=sys.stderr)
        for c in sorted(contexts):
            print("  " + c, file=sys.stderr)
        return 2
    if len(workloads) > 1:
        print(f"compare: refused, mixed workloads {sorted(workloads)}", file=sys.stderr)
        return 2
    print(f"workload {workloads.pop()}; context {contexts.pop()}")
    print(f"{'metric':40s} {'base q1/median/q3':>36s} {'new q1/median/q3':>36s} {'new/base':>9s}")
    for name in sides[0][0][2]["metrics"]:
        cols = []
        for side in sides:
            vals = [res["metrics"][name]["value"] for _, _, res in side]
            cols.append(quartiles(vals))
        ratio = cols[1][1] / cols[0][1] if cols[0][1] else float("nan")
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"  # noqa: E731
        print(f"{name:40s} {fmt(cols[0]):>36s} {fmt(cols[1]):>36s} {ratio:9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
