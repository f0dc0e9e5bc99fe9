"""Per-stage Parquet checkpoints with a manifest + lineage/metrics records.

The reference's checkpoint mechanism is manual ``saveRDS``/``readRDS`` of the
candidate set between script runs (/root/reference/data_raw/pretrained.R:21-22,
104-105). Here checkpointing is first-class (BASELINE.json north_rule:
"resumable from checkpoint with per-partition lineage + metrics"):

  * each stage writes partitioned Parquet under ``<dir>/<stage>/`` (many
    files — never one giant file, so a resumed run and downstream readers
    parallelize over them);
  * a ``_SUCCESS.json`` marker holds the stage's lineage record: inputs
    (upstream stage names), row count, block count, wall-clock seconds and a
    monotonically-increasing run ordinal;
  * resume = if the marker exists, ``read_parquet`` the directory and skip
    recompute — the streaming executor then starts from the checkpoint;
  * ``metrics()`` concatenates every stage's record into one table (the
    per-partition metrics sink).

Failure contract: a stage that crashed mid-write leaves no marker, so the
next run recomputes it from its (checkpointed) inputs — at 100 TB the unit
of loss is one stage, not the pipeline.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import ray.data as rd

__all__ = ["CheckpointManager"]


def _write_empty(path: str, ds) -> None:
    """Persist a zero-row parquet file carrying the dataset's schema."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    sch = ds.schema(fetch_if_missing=True)
    cols = {}
    for n, t in zip(sch.names if sch else [], sch.types if sch else []):
        if not isinstance(t, pa.DataType):
            try:
                t = (pa.string() if t == np.dtype(object)
                     else pa.from_numpy_dtype(t))
            except Exception:
                t = pa.string()
        cols[n] = pa.array([], t)
    pq.write_table(pa.table(cols), os.path.join(path, "empty_0.parquet"))


class CheckpointManager:
    def __init__(self, root: str | None):
        """``root=None`` disables checkpointing (stages pass through lazily)."""
        self.root = root
        if root:
            os.makedirs(root, exist_ok=True)
        self._ordinal = 0
        self.records: list[dict] = []
        # stage -> effective param hash (own params + upstream hashes), so a
        # changed parameter invalidates the stage AND everything downstream
        self._hashes: dict[str, str] = {}
        # stages THIS run served from an existing checkpoint (lineage
        # records mark them resumed=True so job metrics show what reran)
        self._resumed: set[str] = set()

    def _marker(self, stage: str) -> str:
        return os.path.join(self.root, stage, "_SUCCESS.json")

    def done(self, stage: str) -> bool:
        return bool(self.root) and os.path.exists(self._marker(stage))

    def _effective_hash(self, name: str, params: dict | None,
                        inputs: tuple[str, ...]) -> str:
        payload = {
            "stage": name,
            "params": params or {},
            "inputs": {i: self._hashes.get(i, "") for i in inputs},
        }
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def stage(self, name: str, build, *, inputs: tuple[str, ...] = (),
              params: dict | None = None, stream: bool = False):
        """Run ``build() -> Dataset`` under checkpoint ``name``.

        On resume the parquet checkpoint is read instead of recomputing —
        but ONLY if the stage's ``params`` hash (chained through its
        upstream stages' hashes) matches the one recorded in
        ``_SUCCESS.json``: rerunning with a different model / threshold /
        blocktype against the same checkpoint_dir recomputes from the first
        divergent stage instead of silently serving stale results.

        Without a root, non-``stream`` stages are pinned with
        ``materialize()`` — downstream consumers fan out from the object
        store instead of re-executing the whole upstream chain per consumer
        (a lazy Dataset re-runs its lineage for EVERY action). ``stream``
        marks pass-through stages (e.g. the scored pairs, which link
        selection alone reads) that exactly one consumer drives.
        """
        self._ordinal += 1
        h = self._effective_hash(name, params, inputs)
        self._hashes[name] = h
        if not self.root:
            t0 = time.monotonic()
            ds = build()
            if not stream:
                ds = ds.materialize()
            # lineage record in pin mode too (bench stage_walls evidence);
            # rows only when the stage was driven (count on a materialized
            # dataset is metadata, on a lazy one it would execute it)
            self.records.append({
                "stage": name, "ordinal": self._ordinal,
                "inputs": list(inputs), "param_hash": h,
                "rows": None if stream else ds.count(),
                "wall_seconds": round(time.monotonic() - t0, 3)})
            return ds
        path = os.path.join(self.root, name)
        if self.done(name):
            with open(self._marker(name)) as f:
                rec = json.load(f)
            if rec.get("param_hash") == h:
                self._resumed.add(name)
                return rd.read_parquet(path)
            # parameter / upstream change — or a legacy marker with no
            # recorded hash, which must NOT be trusted: recompute
        if os.path.isdir(path):
            # clear stale or partial output — never mix files of two runs
            shutil.rmtree(path)
        t0 = time.monotonic()
        built = build()
        # strip per-block pandas schema metadata before the write: parquet
        # files carrying a b'pandas' metadata dict make every downstream
        # schema-unify attempt log "Failed to hash the schemas" (pa.Schema
        # with dict metadata is unhashable) — clean files, clean reads
        ds = built.map_batches(lambda t: t.replace_schema_metadata(None),
                               batch_format="pyarrow", batch_size=None)
        # write_parquet drives the streaming execution; one file per block
        ds.write_parquet(path)
        if not os.path.isdir(path) or not any(
                f.endswith(".parquet") for f in os.listdir(path)):
            # zero-row result: write_parquet emits no files — persist an
            # empty schema-typed file so resume still round-trips (the
            # built dataset's schema: the metadata-strip map of a zero-row
            # input emits no block, so its own schema is lost)
            _write_empty(path, built)
        out = rd.read_parquet(path)
        rec = {
            "stage": name,
            "ordinal": self._ordinal,
            "inputs": list(inputs),
            "param_hash": h,
            "rows": out.count(),
            "files": len([f for f in os.listdir(path)
                          if f.endswith(".parquet")]),
            "wall_seconds": round(time.monotonic() - t0, 3),
        }
        with open(self._marker(name), "w") as f:
            json.dump(rec, f)
        self.records.append(rec)
        return out

    def metrics(self) -> list[dict]:
        """All completed-stage lineage records (this run + resumed)."""
        if not self.root:
            return list(self.records)
        recs = []
        for stage in sorted(os.listdir(self.root)):
            m = self._marker(stage)
            if os.path.exists(m):
                with open(m) as f:
                    rec = json.load(f)
                rec["resumed"] = stage in self._resumed
                recs.append(rec)
        return sorted(recs, key=lambda r: r.get("ordinal", 0))
