"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py`` writes, one per workload,
seed and trace setting.  Runs pair up by seed.  For every workload and
metric the table gives each side's median and quartiles, the share of
pairs the change won (ties count for neither side) and a verdict:

* improved: the change wins at least 9/10 of the pairs and the medians
  differ, in its favour, by more than the parent's quartile spread;
* unresolved: the parent's spread, as a share of its median, is wider than
  the metric's bound, and not every change run beats every parent run;
* regressed: the change's median is worse than the parent's by more than
  the bound;
* unchanged: otherwise.

Per-layer and printed-only metrics have no bound: they are improved or
regressed by the 9/10 rule, unchanged when the medians differ by at most
the parent's spread, and unresolved otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict


def load(directory: str) -> dict:
    """{(workload, trace): {seed: result}} of every result file."""
    out = defaultdict(dict)
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*-trace*.json"))):
        with open(path) as f:
            res = json.load(f)
        out[(res["workload"], res["trace"])][res["seed"]] = res
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float | None) -> tuple:
    """(verdict, share of pairs won) of paired runs; pair i is parent[i], change[i]."""
    sign = 1 if better == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    won = sum(d > 0 for d in diffs) / len(diffs)
    lost = sum(d < 0 for d in diffs) / len(diffs)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    spread = p3 - p1
    gain = sign * (cm - pm)
    if won >= 0.9 and gain > spread:
        return "improved", won
    if bound is None:
        if lost >= 0.9 and -gain > spread:
            return "regressed", won
        return ("unchanged" if abs(gain) <= spread else "unresolved"), won
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pm == 0 or spread / abs(pm) > bound:
        return ("unchanged" if every_better else "unresolved"), won
    if -gain / abs(pm) > bound:
        return "regressed", won
    return "unchanged", won


def compare(parent_dir: str, change_dir: str) -> int:
    parent, change = load(parent_dir), load(change_dir)
    regressed = False
    header = (f"{'workload':17s} {'metric':36s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'pairs':>5s} {'won':>5s}  verdict")
    print(header)
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        metrics = parent[key][seeds[0]]["metrics"]
        for name, meta in metrics.items():
            pairs = [(parent[key][s]["metrics"][name]["value"], change[key][s]["metrics"][name]["value"])
                     for s in seeds]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                print(f"{key[0]:17s} {name:36s} {'n/a':34s} {'n/a':34s}")
                continue
            pv, cv = [p for p, _ in pairs], [c for _, c in pairs]
            v, won = verdict(pv, cv, meta["better"], meta.get("bound"))
            regressed |= v == "regressed"
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{key[0]:17s} {name:36s} {_fmt(pq):34s} {_fmt(cq):34s} "
                  f"{len(pairs):5d} {won:5.2f}  {v}")
    return 1 if regressed else 0


def _fmt(q: tuple) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
