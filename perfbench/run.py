#!/usr/bin/env python3
"""Benchmark of the capelinker_ray linkage, incremental and curation pipelines.

    python3 perfbench/run.py --workload link_hot --seed 1 --seconds 1 --trace 0

Generates the workload's seeded transcript or document inputs in this
process, writes them to Parquet, starts a fixed-size local Ray session
(``--num-cpus``, which BENCHMARK.json fixes at 3) and drives the public
pipelines in a closed loop with one caller: the next operation starts when
the previous one ended.
Every operation's output is checked outside the timed interval (exact
counters, per-turn or per-document text, pairwise F1 floor). The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced operations, reports per-layer metrics from the spans
(``spans.py``) plus the kernel and scorer microbenches (``micro.py``), and
writes the spans to ``.perfbench/spans/``.

``--workload all`` runs every workload in turn and prints a table.
``--calibrate`` records a workload's fingerprints, counters and F1 floor in
``expected.json`` (or checks them against an existing entry).
``--plant-delay STAGE=SECONDS`` sleeps after every call of that
``CheckpointManager.stage``; it exists to test ``diff.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
OBJECT_STORE_BYTES = 1_000_000_000
# Ray puts unix sockets under its temp dir; AF_UNIX paths are limited to
# 107 bytes and Ray appends ~62 of its own
MAX_RAY_TMP_LEN = 45

# the stages of each pipeline, by CheckpointManager.stage name, plus the
# final drain. A traced run reports every one of them; a stage that is not
# on the workload's path reports 0.
LINK_STAGES = ("conv_records", "candidate_pairs", "links", "components",
               "entities")
INC_STAGES = ("inc_records", "inc_links_nb", "inc_links_ww",
              "inc_assignments")
CURATE_STAGES = ("gated", "survivors_gate", "ledger_exact",
                 "survivors_exact", "ledger_near", "survivors_near",
                 "removed")
ALL_STAGES = LINK_STAGES + INC_STAGES + CURATE_STAGES + ("drain",)


@contextlib.contextmanager
def _untraced_span():
    yield {}


def _start_ray(work: str, num_cpus: int) -> None:
    import logging
    import ray
    import ray.data as rd
    tmp = os.path.join(work, "ray")
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=tmp if len(tmp) <= MAX_RAY_TMP_LEN else None,
             # workers import the package from the checkout, whatever
             # the caller's working directory
             runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    rd.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _warm_up(workload: str, inp: dict) -> None:
    """One untimed operation on a small slice of the input, so the first
    timed operation does not pay worker start, module import and first-use
    costs. (Spawning the workers alone leaves op 1 ~20% slower and far
    noisier than later ops.) ``assign_increments`` has none: building its
    frozen base in set-up runs the same first stages on the cluster."""
    import ray.data as rd
    from workloads import CURATE_ARGS, collect
    if workload == "assign_increments":
        return
    if workload == "curate_docs":
        from capelinker_ray.pipelines.curate import curate_documents
        out = curate_documents(rd.from_arrow(inp["docs"].slice(0, 500)),
                               **CURATE_ARGS)
        collect(out["kept"])
        collect(out["removed"])
        return
    from capelinker_ray.pipelines.linkage import link_transcripts
    collect(link_transcripts(rd.from_arrow(inp["turns"].slice(0, 500)))
            ["turns_out"])


def _plant_delay(spec: str) -> None:
    from capelinker_ray.pipelines.checkpoint import CheckpointManager
    name, secs = spec.split("=")
    orig = CheckpointManager.stage

    def stage(ck, stage_name, build, **kw):
        ds = orig(ck, stage_name, build, **kw)
        if stage_name == name:
            time.sleep(float(secs))
        return ds

    CheckpointManager.stage = stage


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Ops:
    """The operation, its output check and its counters for one workload;
    the frozen base of ``assign_increments`` is built in set-up."""

    def __init__(self, workload: str, inp: dict):
        import workloads as W
        self.W, self.workload, self.inp = W, workload, inp
        self.state = (W.IncrementState(inp)
                      if workload == "assign_increments" else None)

    def op(self, drain):
        W, inp = self.W, self.inp
        if self.workload == "assign_increments":
            return W.increment_op(inp, self.state, drain)
        if self.workload == "curate_docs":
            return W.curate_op(inp, drain)
        return W.link_op(inp, drain)

    def counters(self, res) -> dict:
        W = self.W
        if self.workload == "assign_increments":
            return W.increment_counters(res)
        if self.workload == "curate_docs":
            return W.curate_counters(res)
        return W.link_counters(res)

    def check(self, res, expected) -> tuple[dict, float, list]:
        W, inp = self.W, self.inp
        if self.workload == "assign_increments":
            return W.check_increment(inp, self.state, res, expected)
        if self.workload == "curate_docs":
            return W.check_curate(inp, res, expected)
        return W.check_link(inp, res, expected)

    def pairs(self, counters: dict, expected: dict) -> int:
        """Candidate pairs of one op: scored pairs for a link, the
        calibrated new->base + new->new pairs for an increment, duplicates
        removed for curation."""
        if self.workload == "assign_increments":
            return expected["increment"]["candidate_pairs"]
        if self.workload == "curate_docs":
            return self.W.dup_pairs(counters)
        return counters["candidate_pairs"]


def run(args, work: str) -> dict:
    import workloads as W
    from spans import Tracer, tree_cpu_seconds

    with open(EXPECTED) as f:
        expected = json.load(f).get(args.workload)
    t_gen = time.monotonic()
    inp = W.generate(args.workload, args.seed, os.path.join(work, "input"))
    if not args.calibrate and (expected is None
                               or inp["fingerprint"] != expected["fingerprint"]):
        raise SystemExit(
            f"{args.workload}: regenerated input fingerprint "
            f"{inp['fingerprint']} differs from expected.json "
            f"{expected and expected['fingerprint']}; refusing to report")
    if args.plant_delay:
        _plant_delay(args.plant_delay)

    t0 = time.monotonic()
    _start_ray(work, args.num_cpus)
    _warm_up(args.workload, inp)
    ops = Ops(args.workload, inp)
    setup_s = time.monotonic() - t0
    print(f"[perfbench] {args.workload} seed {args.seed}: generate "
          f"{t0 - t_gen:.2f} s, set-up {setup_s:.2f} s", file=sys.stderr)

    tracer = Tracer()
    recs = []           # one dict per attempted op
    last = None
    n_min = 2 if args.trace else 1
    deadline = time.monotonic() + args.seconds
    i = 0
    while i < n_min or (time.monotonic() < deadline and not args.calibrate):
        traced = bool(args.trace) and i % 2 == 1
        tracer.op_id = i
        drain = (lambda: tracer.span("drain")) if traced else _untraced_span
        rec = {"op": i, "traced": traced, "errors": []}
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.wrap_stages())
            cpu0, w0 = tree_cpu_seconds(), time.monotonic()
            try:
                with (tracer.span("op") if traced else _untraced_span()):
                    rows, res = ops.op(drain)
                rec["wall"] = time.monotonic() - w0
                rec["cpu"] = tree_cpu_seconds() - cpu0
                rec["rows"] = rows
            except Exception:       # an op that raises counts as failed
                rec["errors"].append("op raised " + traceback.format_exc())
        if not rec["errors"]:
            try:
                if args.calibrate:
                    counters, f1, errors = ops.counters(res), None, []
                else:
                    counters, f1, errors = ops.check(res, expected)
                    rec["pairs"] = ops.pairs(counters, expected)
                rec.update(counters=counters, f1=f1)
                rec["errors"] += errors
            except Exception:
                rec["errors"].append("check raised " + traceback.format_exc())
        print(f"[perfbench] op {i}{' traced' if traced else ''}: "
              f"{rec.get('wall', float('nan')):.3f} s", file=sys.stderr)
        for err in rec["errors"]:
            print(f"[perfbench] op {i}: {err}", file=sys.stderr)
        recs.append(rec)
        last = res if not rec["errors"] else last
        i += 1

    if args.calibrate:
        if any(o["errors"] for o in recs):
            raise SystemExit(f"{args.workload}: an operation failed; "
                             "nothing calibrated")
        return calibrate(args, ops, last, recs[-1]["counters"], expected)

    good = [o for o in recs if not o["errors"]]
    if not good:
        raise SystemExit(f"{args.workload}: every operation failed")
    if args.trace:
        metrics = _layer_metrics(tracer, good, last, ops, args.num_cpus)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (_median([o["wall"] for o in good]), "s"),
            "rows_per_s": (_median([o["rows"] / o["wall"] for o in good]),
                           "rows/s"),
            "pairs_per_s": (_median([o["pairs"] / o["wall"] for o in good]),
                            "pairs/s"),
            "cpu_s_per_op": (_median([o["cpu"] for o in good]), "CPU-s"),
            "driver_rss_peak_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            "pairwise_f1": (_median([o["f1"] for o in good]), "ratio"),
        }
    if args.trace:
        tracer.write(os.path.join(ROOT, ".perfbench", "spans",
                                  f"{args.workload}-{args.seed}.jsonl"))
    failed = len(recs) - len(good)
    return {"correct": failed == 0, "attempted": len(recs), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def _ray_stop(timeout: float = 20.0) -> None:
    """Shut the session down and wait until every process it started has
    ended, so no run's tail overlaps the next run."""
    import ray
    from spans import descendants
    pids = descendants()
    ray.shutdown()
    deadline, killed = time.monotonic() + timeout, False
    while True:
        alive = [p for p in pids if os.path.exists(f"/proc/{p}")
                 and not _is_zombie(p)]
        if not alive:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes {alive} outlived SIGKILL")
            for p in alive:
                with contextlib.suppress(OSError):
                    os.kill(p, signal.SIGKILL)
            killed, deadline = True, time.monotonic() + 5
        time.sleep(0.05)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _layer_metrics(tracer, good, last, ops, num_cpus) -> dict:
    import micro
    import workloads as W
    traced = [o for o in good if o["traced"]]
    untraced = [o for o in good if not o["traced"]]
    if not traced or not untraced:
        raise SystemExit("a traced run needs a good traced and a good "
                         "untraced operation")
    per_op: dict[str, list] = {}
    for o_id in (o["op"] for o in traced):
        self_t = tracer.self_times(o_id)
        seen = {}
        for idx, s in enumerate(tracer.spans):
            if s["op"] != o_id or "end" not in s:
                continue
            if s["name"] == "op":
                per_op.setdefault("op.self_s", []).append(self_t[idx])
            elif s["name"] in ALL_STAGES:
                wall = s["end"] - s["start"]
                seen[s["name"]] = (self_t[idx], s["rows"] or 0, s["cpu_s"],
                                   s["cpu_s"] / (wall * num_cpus))
        for st in ALL_STAGES:
            vals = seen.get(st, (0.0, 0, 0.0, 0.0))
            for suffix, v in zip(("s", "rows", "cpu_s", "util"), vals):
                per_op.setdefault(f"stage.{st}.{suffix}", []).append(v)
    units = {"s": "s", "rows": "rows", "cpu_s": "CPU-s", "util": "ratio"}
    m = {k: (_median(v), "s" if k == "op.self_s" else units[k.rsplit(".", 1)[1]])
         for k, v in per_op.items()}
    m["trace.overhead_frac"] = (
        _median([o["wall"] for o in traced])
        / _median([o["wall"] for o in untraced]) - 1, "ratio")
    c = traced[-1]["counters"]
    if ops.workload == "curate_docs":
        # no blocking, selection, string kernels or scorer on this path
        pairs = recs = links = 0
        micro_m = dict.fromkeys(micro.METRICS, 0.0)
    elif ops.workload == "assign_increments":
        pairs, recs = traced[-1]["pairs"], c["inc_records"]
        links = c["links_new_base"] + c["links_within"]
        micro_m = micro.run(
            last["out"]["records"].union(ops.state.records),
            W.increment_pairs(ops.state, last["out"]["records"], True))
    else:
        pairs, recs = c["candidate_pairs"], c["conv_records"]
        links = c["links"]
        micro_m = micro.run(last["out"]["records"], last["out"]["pairs"])
    m["blocking.pairs_per_record"] = (pairs / recs if recs else 0.0, "ratio")
    m["selection.link_yield"] = (links / pairs if pairs else 0.0, "ratio")
    for k, v in micro_m.items():
        m[k] = (v, micro.METRICS[k])
    return m


def calibrate(args, ops, res, counters, expected) -> dict:
    """The workload's fingerprints, exact counters and F1 floor; written to
    ``expected.json`` when the workload has no entry, else compared."""
    W, inp = ops.W, ops.inp
    if ops.workload == "assign_increments":
        pairs = sum(W.increment_pairs(ops.state, res["out"]["records"],
                                      to_base).count()
                    for to_base in (True, False))
        f1 = W.check_increment(inp, ops.state, res, {"increment": {
            "counters": counters, "pairwise_f1_floor": 0.0}})[1]
        calib = {"increment": {
            "counters": counters, "candidate_pairs": pairs,
            "pairwise_f1_floor": f1,
            "pairs_per_record": pairs / counters["inc_records"]}}
    elif ops.workload == "curate_docs":
        calib = {"counters": counters,
                 "pairwise_f1_floor": W.curate_f1(inp, res)}
    else:
        calib = {"counters": counters,
                 "pairwise_f1_floor": W._f1(
                     W._pair_counts(res["assign"], inp["truth"])),
                 "pairs_per_record": (counters["candidate_pairs"]
                                      / counters["conv_records"])}
    entry = {"fingerprint": inp["fingerprint"], **calib}
    with open(EXPECTED) as f:
        allx = json.load(f)
    if expected is None:
        allx[args.workload] = {**entry, "calibrated_seeds": [args.seed]}
    elif all(expected.get(k) == v for k, v in entry.items()):
        seeds = allx[args.workload]["calibrated_seeds"]
        if args.seed not in seeds:
            seeds.append(args.seed)
    else:
        raise SystemExit(f"{args.workload} seed {args.seed}: calibration "
                         f"differs from expected.json: {entry}")
    with open(EXPECTED, "w") as f:
        json.dump(allx, f, indent=1, sort_keys=True)
        f.write("\n")
    return {"calibrated": args.workload, "seed": args.seed}


def run_all(args) -> int:
    import workloads as W
    rows = []
    for w in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--num-cpus", str(args.num_cpus)]
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if p.returncode != 0:
            print(p.stderr[-2000:], file=sys.stderr)
            return p.returncode
        r = json.loads(p.stdout.strip().splitlines()[-1])
        rows.append((w, r))
        print(f"== {w}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} "
              f"failed_frac={r['failed'] / r['attempted']:.3f}")
        for k, v in r["metrics"].items():
            print(f"   {k:42s} {v['value']:>14.4f} {v['unit']}")
    print(json.dumps({w: r for w, r in rows}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--num-cpus", type=int, default=3,
                    help="CPUs of the local Ray session")
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--plant-delay", default=None)
    ap.add_argument("--record", default=None,
                    help="append the result, tagged, to this JSON-lines file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "capelinker_ray", "__init__.py")):
        print(f"capelinker_ray not found next to {HERE}", file=sys.stderr)
        return 2
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path.insert(0, ROOT)
    import workloads as W
    if args.workload == "all":
        return run_all(args)
    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench", f"w{os.getpid()}")
    try:
        result = run(args, work)
    finally:
        _ray_stop()
        shutil.rmtree(work, ignore_errors=True)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, **result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
