#!/usr/bin/env python3
"""Run-to-run spread of one result set, against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py results.jsonl

For each workload and end-to-end metric: the median of the recorded runs
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``). A spread above a third of
the metric's bound is marked ``wide``; above the bound, ``OVER``. Exit code
1 when any metric is ``OVER``, except ``setup_s``: its spread is reported
but not gated, as in the benchmark contract, which bounds only the shift of
its median between two sets of runs (``diff.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from diff import load  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    over = False
    for (workload, name), xs in sorted(load(args.results).items()):
        if name not in bounds:
            continue
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med] * 3
        spread = (q[2] - q[0]) / abs(med) if med else 0.0
        mark = ("OVER" if spread > bounds[name] else
                "wide" if spread > bounds[name] / 3 else "ok")
        if mark == "OVER" and name == "setup_s":
            mark = "OVER (not gated)"
        over |= mark == "OVER"
        print(f"{workload:18s} {name:20s} n={len(xs):2d} median={med:<12.5g}"
              f" spread={spread:6.2%} bound={bounds[name]:.2f} {mark}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
