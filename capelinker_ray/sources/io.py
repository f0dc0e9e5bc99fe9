"""Parquet/CSV sources and partitioned sinks (SURVEY §2.1).

The reference loads bundled .rda tables and CSVs eagerly
(/root/reference/DESCRIPTION:18, data_raw/traindata_graafreinet.R:20-23);
here every source is a lazy ``ray.data.read_*`` with COLUMN PRUNING pushed
into the read (a read that loads all columns for a 2-column transform is
wrong at 100 TB), and every sink is a partitioned Parquet directory — one
file per block, never one giant file, so failed runs resume per partition
(the reference's manual ``saveRDS`` checkpoints, data_raw/pretrained.R:21-22,
are first-class in pipelines/checkpoint.py).
"""

from __future__ import annotations

import ray.data as rd

TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]

__all__ = ["TRANSCRIPT_COLUMNS", "read_transcripts", "read_table",
           "read_labeled_pairs", "read_jsonl", "write_partitioned",
           "adaptive_partitions", "read_parquet_clean", "read_ipc", "write_ipc",
           "write_hive_partitioned", "read_hive"]


def _clean_schema(path: str):
    """Footer schema of ``path`` (file or directory) with the pandas
    metadata dict stripped — pa.Schema carrying metadata is UNHASHABLE and
    makes Ray's schema-dedup log a warning per unify."""
    import os

    import pyarrow.parquet as pq
    p = path
    if os.path.isdir(path):
        files = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
        if not files:
            return None
        p = os.path.join(path, files[0])
    try:
        return pq.read_schema(p).remove_metadata()
    except Exception:
        return None


def read_parquet_clean(path: str, *, columns: list[str] | None = None,
                       **kwargs):
    """``read_parquet`` that pins a metadata-free schema: blocks hash
    cleanly in Ray's schema unification (no 'Failed to hash the schemas'
    warning from pandas-written inputs), and every block carries one
    canonical schema."""
    if "schema" not in kwargs:
        sch = _clean_schema(path)
        if sch is not None and columns:
            # the pinned schema must match the PROJECTED batch layout
            idxs = [sch.get_field_index(c) for c in columns]
            if all(i >= 0 for i in idxs):
                import pyarrow as pa
                sch = pa.schema([sch.field(i) for i in idxs])
            else:
                sch = None
        if sch is not None:
            kwargs["schema"] = sch
    return rd.read_parquet(path, columns=columns, **kwargs)


def adaptive_partitions(*paths: str, bytes_per_partition: int = 64 << 20,
                        lo: int = 8, hi: int = 512) -> int:
    """Shuffle width sized to the INPUT BYTES (compressed on disk) rather
    than only the cluster width: a KB-sized dimension join stops paying a
    2x-CPU-wide barrier's fixed cost, a 100-TB input widens to ``hi``.
    Use for hash_join / grouped_map ``num_partitions`` when the inputs are
    files whose sizes are known up front."""
    import os
    total = 0
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, files in os.walk(p):
                total += sum(os.path.getsize(os.path.join(root, f))
                             for f in files)
        elif os.path.exists(p):
            total += os.path.getsize(p)
    import math
    return max(lo, min(int(math.ceil(total / bytes_per_partition)), hi))


def read_jsonl(path: str, columns: list[str] | None = None, **kwargs):
    """JSONL source (one object per line — the common raw-ingest layout
    for scraped/exported transcript and document corpora). Lazy
    ``read_json`` with column pruning applied immediately after parse;
    JSON carries no column statistics, so unlike parquet the prune cannot
    skip bytes at the read — convert long-lived corpora to parquet with
    ``write_partitioned`` and read those instead."""
    ds = rd.read_json(path, **kwargs)
    return ds.select_columns(columns) if columns else ds


def read_transcripts(path: str, columns: list[str] | None = None,
                     **kwargs):
    """Transcript turn table; prune to the requested columns at the read."""
    return rd.read_parquet(path, columns=columns or TRANSCRIPT_COLUMNS,
                           **kwargs)


def read_table(path: str, columns: list[str] | None = None, **kwargs):
    """Generic parquet/csv source (fread analog for raw ingestion)."""
    if path.endswith(".csv"):
        ds = rd.read_csv(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    return rd.read_parquet(path, columns=columns, **kwargs)


def read_labeled_pairs(path: str, **kwargs):
    """Labeled-pair fixture import (the reference's read_xlsx label
    round-trip, data_raw/pretrained.R:185-187, re-based on parquet)."""
    return rd.read_parquet(path, **kwargs)


def write_partitioned(ds, path: str, **kwargs) -> None:
    """Partitioned Parquet sink: one file per block (resumable layout)."""
    ds.write_parquet(path, **kwargs)


def read_ipc(path: str, *, columns: list[str] | None = None):
    """Arrow IPC (Feather v2 / RecordBatch file) source — the zero-copy
    interchange format between Arrow-native engines. ``path``: one
    ``.arrow``/``.feather`` file or a directory of them.

    Scale shape: Ray Data has no native IPC reader, so this maps the
    FILE LIST (not the bytes) through a stateless decode task — each task
    memory-maps its own file and projects ``columns`` before the data
    enters the object store (same prune-at-the-read contract as
    ``read_parquet_clean``). One file = one decode task = one-or-more
    blocks; a directory of shards parallelizes like any other source."""
    import os

    import pyarrow as pa
    import pyarrow.ipc as ipc

    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith((".arrow", ".feather", ".ipc")))
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no IPC files under {path}")

    def decode(batch: dict) -> pa.Table:
        tables = []
        for p in batch["path"]:
            with pa.memory_map(str(p)) as src:
                t = ipc.open_file(src).read_all()
            if columns is not None:
                t = t.select(columns)
            tables.append(t.combine_chunks())
        out = pa.concat_tables(tables)
        return out.replace_schema_metadata(None)

    return (rd.from_items([{"path": f} for f in files])
            .map_batches(decode, batch_size=1, batch_format="numpy"))


def write_ipc(ds, path: str) -> list[str]:
    """Arrow IPC sink: one ``.arrow`` file per block under ``path``
    (resumable partitioned layout, like the Parquet sink). Returns the
    written file paths. Blocks stream through a per-batch writer task —
    nothing materializes on the driver."""
    import os

    import pyarrow as pa
    import pyarrow.ipc as ipc

    os.makedirs(path, exist_ok=True)

    def write_block(t: pa.Table) -> pa.Table:
        import uuid
        fn = os.path.join(path, f"part-{uuid.uuid4().hex}.arrow")
        with ipc.new_file(fn, t.schema) as w:
            w.write_table(t)
        return pa.table({"path": pa.array([fn], pa.string()),
                         "rows": pa.array([len(t)], pa.int64())})

    manifest = ds.map_batches(write_block, batch_format="pyarrow",
                              batch_size=None).to_pandas()
    return sorted(manifest["path"].tolist())


def write_hive_partitioned(ds, path: str, partition_cols: list[str],
                           **kwargs) -> None:
    """Hive-layout Parquet sink: one ``key=value`` directory per partition
    value combination, one-or-more files per block within — the resumable
    100-TB OUTPUT layout (a failed run lists finished partition dirs and
    skips them; downstream readers prune directories instead of footers).
    Thin, named wrapper over Ray's native ``partition_cols`` so pipelines
    state the layout contract explicitly."""
    ds.write_parquet(path, partition_cols=list(partition_cols), **kwargs)


def read_hive(path: str, *, columns: list[str] | None = None,
              partition_filter: dict | None = None, **kwargs):
    """Read a hive-partitioned Parquet directory with PARTITION PRUNING
    pushed into the file listing: ``partition_filter={"lang": ["en"],
    "source": ["web"]}`` reads only the matching ``key=value``
    subdirectories — no other partition's directory is ever listed, nor
    any footer of it opened (the directory-level analog of the column
    pruning every source here does). Values are compared as their string
    directory encoding; a filter key that no partition directory has
    raises ``ValueError``."""
    import os

    if not partition_filter:
        return read_parquet_clean(path, columns=columns, **kwargs)

    allowed = {k: ({str(x) for x in v} if isinstance(v, (list, tuple, set))
                   else {str(v)})
               for k, v in partition_filter.items()}
    files, seen_keys = [], set()
    for root, dirs, fnames in os.walk(path):
        # prune while walking: an excluded key=value subtree is never
        # listed, let alone read
        keep = []
        for d in dirs:
            k, eq, v = d.partition("=")
            if eq:
                seen_keys.add(k)
                if k in allowed and v not in allowed[k]:
                    continue
            keep.append(d)
        dirs[:] = keep
        files.extend(os.path.join(root, f) for f in fnames
                     if f.endswith(".parquet"))
    if not files:
        raise FileNotFoundError(
            f"no parquet files under {path} match {partition_filter}")
    # a surviving file's path crossed every partition level, so a key seen
    # nowhere is in no path — a typo'd key would otherwise read everything
    unknown = set(allowed) - seen_keys
    if unknown:
        raise ValueError(f"partition_filter keys {sorted(unknown)} name no "
                         f"partition directory under {path}")
    # partition columns live in the directory names; Ray re-derives them
    # from the paths of the pruned file list
    return rd.read_parquet(sorted(files), columns=columns, **kwargs)
