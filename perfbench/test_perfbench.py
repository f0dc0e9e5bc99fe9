"""Self-tests of the benchmark. Run with ``python3 -m pytest perfbench -q``
from the repository root; the planted-delay test runs the benchmark twelve
times and takes about six minutes."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import diff  # noqa: E402


def _bench(*args, cwd, record=None, plant=None):
    cmd = [sys.executable, RUN, *args]
    if record:
        cmd += ["--record", record]
    if plant:
        cmd += ["--plant-delay", plant]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_runs_from_another_cwd(tmp_path):
    """Workers import the package although the caller's cwd is elsewhere."""
    p = _bench("--workload", "curate_docs", "--seed", "7", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert p.returncode == 0, p.stderr[-3000:]
    r = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert set(r["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "link_hot", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=180)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_refuses_a_changed_input(tmp_path):
    """A regenerated input whose fingerprint differs is never reported."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "capelinker_ray"),
                    tmp_path / "capelinker_ray",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    exp = tmp_path / "perfbench" / "expected.json"
    data = json.loads(exp.read_text())
    data["curate_docs"]["fingerprint"]["docs"] = "0" * 16
    exp.write_text(json.dumps(data))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "curate_docs", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=180)
    assert p.returncode != 0
    assert "fingerprint" in p.stderr
    assert '"metrics"' not in p.stdout


def test_compare_verdicts():
    a = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    slower = [x * 1.3 for x in a]
    assert diff.compare(a, slower, "lower", 0.15)["verdict"] == "WORSE>bound"
    assert diff.compare(a, [x * 1.05 for x in a], "lower", 0.15)[
        "verdict"] == "worse"
    assert diff.compare(a, [x * 0.7 for x in a], "lower", 0.15)[
        "verdict"] == "better"
    assert diff.compare(a, list(reversed(a)), "lower", 0.15)[
        "verdict"] == "same"
    # a median regression beyond the bound is flagged although only two of
    # three pairs lose
    assert diff.compare([10.0, 10.5, 11.0], [13.5, 10.4, 13.6], "lower",
                        0.25)["verdict"] == "WORSE>bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert diff.compare(noisy, list(reversed(noisy)), "lower", 0.15)[
        "verdict"] == "unresolved"
    assert diff.compare(noisy, [x * 1.5 for x in noisy], "lower", 0.15)[
        "verdict"] == "unresolved"
    # noisy, but every run of the change is worse than every parent run
    assert diff.compare(noisy, [x + 20 for x in noisy], "lower", 0.15)[
        "verdict"] == "WORSE>bound"


def test_diff_flags_a_planted_stage_delay(tmp_path):
    """Three alternating pairs of runs of curate_docs (a 5-10 s operation),
    the change sleeping 4 s after the ``ledger_exact`` stage (exact dedup,
    about 1 s): the tool must flag op_s as worse than its bound and, of all
    stage walls, exactly stage.ledger_exact.s as more than doubled. Stage
    walls are judged against a bound of 1.0 because with three runs a side
    a sub-second stage's median moves by more than the 0.25 of the
    end-to-end metrics from host noise alone."""
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    for seed in (1, 2, 3):
        for trace in ("0", "1"):
            args = ("--workload", "curate_docs", "--seed", str(seed),
                    "--seconds", "1", "--trace", trace)
            sides = [(a, None), (b, "ledger_exact=4")]
            if seed % 2 == 0:
                sides.reverse()
            for record, plant in sides:
                p = _bench(*args, cwd=ROOT, record=record, plant=plant)
                assert p.returncode == 0, p.stderr[-3000:]
    p = subprocess.run([sys.executable, os.path.join(HERE, "diff.py"), a, b,
                        "--json", "--layer-bound", "1.0"],
                       capture_output=True, text=True)
    rows = json.loads(p.stdout)
    flagged = {k.split("/", 1)[1] for k, r in rows.items()
               if r["verdict"] == "WORSE>bound"}
    assert "op_s" in flagged, rows
    assert "cpu_s_per_op" not in flagged, rows
    stage_walls = {k for k in flagged
                   if k.startswith("stage.") and k.endswith(".s")}
    assert stage_walls == {"stage.ledger_exact.s"}, rows
