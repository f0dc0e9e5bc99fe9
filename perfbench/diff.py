#!/usr/bin/env python3
"""Compare two result sets of the benchmark, parent (A) against change (B).

    python3 perfbench/diff.py A.jsonl B.jsonl [--layer-bound 0.25]

Each file holds one JSON line per run, as written by ``run.py --record``.
Runs are paired in recorded order within each (workload, trace) group, so
record the two sides alternately. For every workload and metric the tool
prints each side's median and quartiles, the change's win-rate over the
pairs and a verdict:

- ``WORSE>bound``: the change's median is worse than the parent's by more
  than the bound, and either both sides' quartile spreads are within the
  bound or every run of the change reads worse than every run of the
  parent. This is the no-regression rule, decided on the medians.
- ``better`` / ``worse``: the change wins (loses) at least nine tenths of
  the pairs, ties counting for neither, and the medians differ by more than
  the parent's quartile spread.
- ``unresolved``: none of the above, and either side's spread exceeds the
  bound, so neither "unchanged" nor a regression beyond the bound can be
  claimed; record more runs.
- ``same``: none of the above, and both spreads are within the bound.

End-to-end bounds come from ``BENCHMARK.json``; per-layer metrics have no
bound there and use ``--layer-bound``. Exit code 1 when any metric is
``WORSE>bound``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def load(path: str) -> dict:
    """(workload, metric) -> values in recorded order."""
    out = collections.defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                for name, m in r["metrics"].items():
                    out[(r["workload"], name)].append(m["value"])
    return out


def compare(a: list[float], b: list[float], better: str,
            bound: float) -> dict:
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    diff = qb[1] - qa[1]
    iqr_a = qa[2] - qa[0]
    scale = abs(qa[1]) or 1.0
    rel = diff / scale
    need = 0.9 * len(pairs)
    noisy = max(iqr_a / scale, (qb[2] - qb[0]) / (abs(qb[1]) or 1.0)) > bound
    separated = all(sign * (y - x) < 0 for x in a for y in b)
    if -sign * rel > bound:
        verdict = "WORSE>bound" if separated or not noisy else "unresolved"
    elif wins >= need and abs(diff) > iqr_a:
        verdict = "better"
    elif losses >= need and abs(diff) > iqr_a:
        verdict = "worse"
    elif noisy:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"a": qa, "b": qb, "rel": rel, "pairs": len(pairs),
            "win_rate": wins / len(pairs) if pairs else 0.0,
            "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--layer-bound", type=float, default=0.25)
    ap.add_argument("--json", action="store_true",
                    help="print one JSON object instead of a table")
    args = ap.parse_args(argv)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m.get("bound", args.layer_bound))
            for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = load(args.a), load(args.b)
    rows = {}
    for key in sorted(set(a) & set(b)):
        workload, name = key
        if name not in spec:
            continue
        better, bound = spec[name]
        rows[f"{workload}/{name}"] = compare(a[key], b[key], better, bound)
    if args.json:
        print(json.dumps(rows))
    else:
        print(f"{'workload/metric':58s} {'A median [q1,q3]':>30s} "
              f"{'B median [q1,q3]':>30s} {'change':>8s} {'win':>5s}  verdict")
        for k, r in rows.items():
            fa = "{1:.4g} [{0:.4g},{2:.4g}]".format(*r["a"])
            fb = "{1:.4g} [{0:.4g},{2:.4g}]".format(*r["b"])
            print(f"{k:58s} {fa:>30s} {fb:>30s} {r['rel']:>+8.1%} "
                  f"{r['win_rate']:>5.2f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "WORSE>bound" for r in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
