#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent commit and a change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the per-run JSON files `run.py --out DIR` writes
(`<workload>-run-s<seed>.json`). Runs of the two sides are paired by
workload and seed; run them alternating which side goes first.

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither), and
a verdict under the bounds of BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run; also any gain
              that came with more failed operations
  unchanged   none of the above

Per-layer metrics of traced runs (`<workload>-traced-s<seed>.json`) are
listed without a verdict. The exit status is 1 when any metric is worse,
2 when the inputs are unusable, and 0 otherwise.
"""

import argparse
import collections
import glob
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(directory):
    """{(workload, traced): {seed: run}} from one directory of runs."""
    runs = collections.defaultdict(dict)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if "workload" not in r or "metrics" not in r:
            continue
        runs[(r["workload"], bool(r.get("trace")))][r["seed"]] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, spec, failures_p, failures_c):
    direction, bound = spec["better"], spec["bound"]
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    worse_by = (cm - pm) if direction == "lower" else (pm - cm)
    if pm != 0 and worse_by / abs(pm) > bound:
        return "worse", wins, len(pairs)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if pm != 0 and iqr / abs(pm) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    gained = better(cm, pm, direction) and (
        (wins >= 0.9 * len(pairs) and abs(cm - pm) > iqr) or all_better)
    if gained:
        return ("unresolved" if failures_c > failures_p else "improved"), wins, len(pairs)
    return "unchanged", wins, len(pairs)


def fmt(v):
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("no runs found", file=sys.stderr)
        sys.exit(2)

    regressions = 0
    for key in sorted(set(parent) & set(change)):
        workload, traced = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        ps = [parent[key][s] for s in seeds]
        cs = [change[key][s] for s in seeds]
        bad = [r for r in ps + cs if not r.get("correct", False)]
        if bad:
            print(f"{workload}: {len(bad)} run(s) failed their output checks", file=sys.stderr)
            sys.exit(2)
        fp = sum(r["failed"] for r in ps)
        fc = sum(r["failed"] for r in cs)
        kind = "per-layer (traced)" if traced else "end-to-end"
        print(f"\n== {workload} [{kind}] {len(seeds)} pairs; failed ops parent={fp} change={fc}")
        print(f"{'metric':36s} {'parent med [q1, q3]':>30s} {'change med [q1, q3]':>30s}"
              f" {'delta':>8s} {'won':>6s}  verdict")
        section = "layers" if traced else "metrics"
        names = ps[0][section].keys()
        for name in names:
            pv = [r[section][name]["value"] for r in ps if name in r[section]]
            cv = [r[section][name]["value"] for r in cs if name in r[section]]
            if len(pv) != len(seeds) or len(cv) != len(seeds):
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            pq, cq = quartiles(pv), quartiles(cv)
            delta = f"{(cm - pm) / abs(pm) * 100:+.1f}%" if pm else "n/a"
            if not traced and name in e2e:
                v, wins, n = verdict(pv, cv, e2e[name], fp, fc)
                won = f"{wins}/{n}"
                regressions += v == "worse"
            else:
                v, won = "-", ""
            parent_cell = f"{fmt(pm)} [{fmt(pq[0])}, {fmt(pq[1])}]"
            change_cell = f"{fmt(cm)} [{fmt(cq[0])}, {fmt(cq[1])}]"
            print(f"{name:36s} {parent_cell:>30s} {change_cell:>30s} {delta:>8s} {won:>6s}  {v}")
    print(f"\n{regressions} regression(s)")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
