"""Spans and process-tree CPU for the benchmark's traced run.

Spans are recorded from the benchmark's own code only: around each
operation, around the final drain of its output, and around every
``CheckpointManager.stage`` call (the class method is wrapped for the
duration of one traced operation). A span carries name, start, end,
parent span, operation id, rows out and process-tree CPU seconds. Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import time

_HZ = os.sysconf("SC_CLK_TCK")


def _proc_table() -> dict[int, tuple[int, int]]:
    """pid -> (ppid, CPU ticks), from /proc."""
    procs: dict[int, tuple[int, int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                rest = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # post-comm fields: [1]=ppid, [11]=utime, [12]=stime,
        # [13]=cutime, [14]=cstime (reaped children count too)
        procs[int(d)] = (int(rest[1]), sum(int(x) for x in rest[11:15]))
    return procs


def descendants(procs: dict | None = None) -> list[int]:
    """This process's descendants (raylet, GCS, Ray workers)."""
    procs = _proc_table() if procs is None else procs
    kids = collections.defaultdict(list)
    for pid, (ppid, _) in procs.items():
        kids[ppid].append(pid)
    out, stack = [], list(kids.get(os.getpid(), ()))
    while stack:
        p = stack.pop()
        out.append(p)
        stack.extend(kids.get(p, ()))
    return out


def tree_cpu_seconds() -> float:
    """User+system CPU of this process and every descendant, from /proc."""
    procs = _proc_table()
    ticks = sum(procs[p][1] for p in [os.getpid(), *descendants(procs)]
                if p in procs)
    return ticks / _HZ


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.monotonic(), "cpu0": tree_cpu_seconds(),
               "rows": None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.monotonic()
            rec["cpu_s"] = tree_cpu_seconds() - rec.pop("cpu0")

    @contextlib.contextmanager
    def wrap_stages(self):
        """Record a span around every ``CheckpointManager.stage`` call."""
        from capelinker_ray.pipelines.checkpoint import CheckpointManager
        orig = CheckpointManager.stage
        tracer = self

        def stage(ck, name, build, **kw):
            with tracer.span(name) as rec:
                ds = orig(ck, name, build, **kw)
                if ck.records and ck.records[-1]["stage"] == name:
                    rec["rows"] = ck.records[-1].get("rows")
            return ds

        CheckpointManager.stage = stage
        try:
            yield
        finally:
            CheckpointManager.stage = orig

    def self_times(self, op_id: int) -> dict[int, float]:
        """Span index -> self wall time: its duration minus the union of
        the intervals its direct children cover."""
        spans = {i: s for i, s in enumerate(self.spans) if s["op"] == op_id}
        children = collections.defaultdict(list)
        for i, s in spans.items():
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = {}
        for i, s in spans.items():
            covered, cur_end = 0.0, s["start"]
            for a, b in sorted(children[i]):
                a, b = max(a, cur_end), min(b, s["end"])
                if b > a:
                    covered += b - a
                    cur_end = b
            out[i] = (s["end"] - s["start"]) - covered
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
