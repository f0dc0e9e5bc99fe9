"""Change-data-capture compaction: latest-wins snapshot merge.

The production shape behind every mutable-table ingest at scale: a log of
upserts/deletes keyed by entity, compacted to "the newest version of each
key" (SQL ``QUALIFY row_number() OVER (PARTITION BY key ORDER BY ts DESC
...) = 1``). ONE co-partitioning shuffle by key, then a vectorized
keep-last per coarse partition — no sort of the full table, no window
materialization. Optional tombstone semantics drop keys whose LATEST
version is a delete marker (the Hudi/Delta/Iceberg merge-on-read
contract, implemented on plain Ray Data).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["compact_latest", "snapshot_diff", "apply_changes",
           "scd2_intervals", "fingerprint_diff"]


def compact_latest(ds, key_cols, ts_col: str, *,
                   tiebreak_cols=None, tombstone_col: str | None = None):
    """Keep the newest row per key tuple: max ``ts_col``, ties broken by
    ``tiebreak_cols`` descending (pass the log sequence / event id to make
    the pick deterministic). Null timestamps sort OLDEST (SQL ``ORDER BY
    ts DESC NULLS LAST`` parity). If ``tombstone_col`` is given, keys
    whose winning row has it truthy are dropped entirely (delete markers
    compact away). One shuffle; everything else is per-batch vectorized
    pandas."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    tiebreak_cols = ([] if tiebreak_cols is None else
                     [tiebreak_cols] if isinstance(tiebreak_cols, str)
                     else list(tiebreak_cols))
    order = [ts_col, *tiebreak_cols]

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        # ascending sort, nulls FIRST, keep the LAST row per key ==
        # ORDER BY ts DESC NULLS LAST ... LIMIT 1 per key
        df = df.sort_values([*key_cols, *order], kind="stable",
                            na_position="first")
        out = df[~df.duplicated(subset=key_cols, keep="last")]
        if tombstone_col is not None:
            dead = out[tombstone_col].fillna(False).astype(bool)
            out = out[~dead.to_numpy()]
        return out

    from .grouped import grouped_map
    return grouped_map(ds, key_cols, per_partition)


def apply_changes(base, changes, key_cols, ts_col: str, *,
                  tiebreak_cols=None, tombstone_col: str | None = None):
    """MERGE a changelog into a base snapshot (the SQL ``MERGE INTO`` /
    upsert compaction): per key, ANY change row beats the base row
    regardless of timestamp (the base is by definition older than the
    log), the newest change wins among changes (``ts_col`` desc, nulls
    last, then ``tiebreak_cols`` desc), and keys whose winning change has
    ``tombstone_col`` truthy are deleted. Base keys untouched by the log
    pass through; keys only in the log insert.

    ONE tagged-union co-partitioning shuffle (base rows rank 0, change
    rows rank 1) and a vectorized keep-last per coarse partition — the
    daily-ingest table-maintenance shape on plain Ray Data. Columns are
    aligned by name (missing fields null-filled), so a changelog without
    every base column still merges."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    tiebreak_cols = ([] if tiebreak_cols is None else
                     [tiebreak_cols] if isinstance(tiebreak_cols, str)
                     else list(tiebreak_cols))

    def tag(rank: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = df.copy()
            out["_rank"] = np.int64(rank)
            return out
        return fn

    from .setops import union_by_name
    tagged = union_by_name(
        base.map_batches(tag(0), batch_format="pandas"),
        changes.map_batches(tag(1), batch_format="pandas"))

    order = ["_rank", ts_col, *tiebreak_cols]

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.drop(columns=["_rank"])
        # ascending sort, nulls FIRST, keep LAST per key == rank DESC,
        # ts DESC NULLS LAST, tiebreaks DESC ... LIMIT 1 per key
        df = df.sort_values([*key_cols, *order], kind="stable",
                            na_position="first")
        out = df[~df.duplicated(subset=key_cols, keep="last")]
        if tombstone_col is not None:
            dead = out[tombstone_col].fillna(False).astype(bool)
            out = out[~dead.to_numpy()]
        return out.drop(columns=["_rank"])

    from .grouped import grouped_map
    return grouped_map(tagged, key_cols, per_partition)


def snapshot_diff(old, new, key_cols, *, compare_cols=None,
                  include_unchanged: bool = False):
    """Keyed diff of two snapshot Datasets: per key, status ``added``
    (key only in ``new``), ``removed`` (only in ``old``), ``changed``
    (both, non-key values differ) or ``unchanged`` (emitted only with
    ``include_unchanged``) — the audit/validation pass of any
    incremental-ingest pipeline.

    Each side is collapsed batch-side to slim (key, rowhash) rows —
    payload columns never cross the wire — then ONE co-partitioning
    shuffle and a vectorized per-partition outer merge. Keys must be
    unique within each snapshot (run :func:`compact_latest` first if
    not); ``compare_cols`` defaults to all shared non-key columns."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    from .grouped import grouped_map, key_hash

    old_cols = old.schema().names
    new_cols = new.schema().names
    if compare_cols is None:
        compare_cols = [c for c in old_cols
                        if c in set(new_cols) and c not in key_cols]
    compare_cols = list(compare_cols)

    def slim(side: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = df[key_cols].copy()
            out["_h"] = (key_hash(df, compare_cols).astype(np.int64)
                         if compare_cols else np.int64(0))
            out["_side"] = side
            return out
        return fn

    tagged = (old.map_batches(slim("o"), batch_format="pandas")
              .union(new.map_batches(slim("n"), batch_format="pandas")))

    def diff(frame: pd.DataFrame) -> pd.DataFrame:
        from .grouped import typed_or_empty
        if not len(frame):
            out = frame[key_cols].copy()
            out["status"] = pd.Series(dtype=object)
            return typed_or_empty(out)
        o = frame[frame["_side"] == "o"][[*key_cols, "_h"]].copy()
        n = frame[frame["_side"] == "n"][[*key_cols, "_h"]].copy()
        # nullable Int64: a plain outer merge would NaN-fill into float64,
        # which rounds hashes past 2^53 and can equate distinct ones
        o["_h"] = o["_h"].astype("Int64")
        n["_h"] = n["_h"].astype("Int64")
        m = o.merge(n, on=key_cols, how="outer", suffixes=("_o", "_n"))
        added = m["_h_o"].isna().to_numpy()
        removed = m["_h_n"].isna().to_numpy()
        eq = (m["_h_o"] == m["_h_n"]).fillna(False).to_numpy(dtype=bool)
        status = np.where(added, "added",
                          np.where(removed, "removed",
                                   np.where(eq, "unchanged", "changed")))
        out = m[key_cols].copy()
        out["status"] = status
        if not include_unchanged:
            out = out[out["status"] != "unchanged"]
        return typed_or_empty(out)

    return grouped_map(tagged, key_cols, diff)


def scd2_intervals(changes, key_cols, ts_col: str, *,
                   tiebreak_cols=None,
                   valid_from_col: str = "valid_from",
                   valid_to_col: str = "valid_to",
                   current_col: str = "is_current"):
    """Type-2 slowly-changing-dimension intervals: each change row
    becomes a VERSION with ``[valid_from, valid_to)`` — valid_from = its
    own timestamp, valid_to = the key's NEXT change (null for the
    current version, which also gets ``is_current = true``). The
    history-table build step of warehouse ingest (Kimball SCD2 on plain
    Ray Data).

    ONE co-partitioning shuffle by key; within a partition one stable
    sort + a vectorized grouped ``shift(-1)`` — no per-key loop. Order
    within a key is (ts, tiebreaks) ascending with null ts first (a
    null-ts row is treated as the oldest version, mirroring
    ``compact_latest``'s NULLS-LAST-descending pick)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    tiebreak_cols = ([] if tiebreak_cols is None else
                     [tiebreak_cols] if isinstance(tiebreak_cols, str)
                     else list(tiebreak_cols))

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        from .grouped import typed_or_empty
        if not len(df):
            out = df.copy()
            out[valid_from_col] = pd.Series(dtype="datetime64[us]")
            out[valid_to_col] = pd.Series(dtype="datetime64[us]")
            out[current_col] = pd.Series(dtype=bool)
            return typed_or_empty(out)
        df = df.sort_values([*key_cols, ts_col, *tiebreak_cols],
                            kind="stable", na_position="first")
        nxt = df.groupby(key_cols, sort=False, dropna=False)[ts_col] \
                .shift(-1)
        out = df.copy()
        out[valid_from_col] = df[ts_col]
        out[valid_to_col] = nxt
        out[current_col] = nxt.isna().to_numpy()
        return out

    from .grouped import grouped_map
    return grouped_map(changes, key_cols, per_part)


def fingerprint_diff(old, new, key_cols, *, compare_cols=None,
                     buckets: int = 256):
    """Bucket-pruned snapshot diff — :func:`snapshot_diff` for the
    100-TB replica-reconciliation case where the two tables are ALMOST
    identical: first compare per-bucket fingerprints (key-hash buckets,
    wrap-around uint64 sums of a full-row hash — two ≤ ``buckets``-row
    collects), then run the row-level diff ONLY over the mismatched
    buckets. With change rate r and B buckets, the diff shuffle carries
    ~min(1, r·B)/1 of the table instead of all of it — a daily ingest
    touching 0.1% of keys with B=256 ships ~23% of rows; B=4096 ships
    ~2%. Identical output to ``snapshot_diff`` (pruning is lossless:
    a differing/added/removed row changes its bucket's (fp, n) on one
    side — equal-sum hash collisions aside, 2^-64-scale).

    Buckets are keyed on the KEY hash (not content), so the same key
    lands in the same bucket on both sides. ``include_unchanged`` is
    deliberately unsupported: unchanged rows inside a dirty bucket would
    be emitted while those in clean buckets are pruned away.
    ``fingerprint_diff.last_clean_buckets`` records how many buckets the
    prune skipped (observability for tests and ops)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    from .dedup import _splitmix64
    from .grouped import key_hash

    old_cols = old.schema().names
    new_cols = new.schema().names
    if compare_cols is None:
        compare_cols = [c for c in old_cols
                        if c in set(new_cols) and c not in key_cols]
    compare_cols = list(compare_cols)

    def fp_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"bucket": pd.Series(dtype=np.int64),
                                 "_fp": pd.Series(dtype=np.uint64),
                                 "n": pd.Series(dtype=np.int64)})
        b = (key_hash(df, key_cols) % np.uint64(buckets)).astype(np.int64)
        rh = _splitmix64(key_hash(df, key_cols + compare_cols))
        acc = np.zeros(buckets, np.uint64)
        np.add.at(acc, b, rh)
        cnt = np.bincount(b, minlength=buckets)
        nz = cnt > 0
        return pd.DataFrame({"bucket": np.arange(buckets)[nz],
                             "_fp": acc[nz], "n": cnt[nz]})

    def fp_merge(df: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(buckets, np.uint64)
        np.add.at(acc, df["bucket"].to_numpy(np.int64),
                  df["_fp"].to_numpy(np.uint64))
        cnt = np.zeros(buckets, np.int64)
        np.add.at(cnt, df["bucket"].to_numpy(np.int64),
                  df["n"].to_numpy(np.int64))
        return pd.DataFrame({"bucket": np.arange(buckets),
                             "_fp": acc, "n": cnt})

    def side_fp(ds) -> pd.DataFrame:
        return (ds.map_batches(fp_partial, batch_format="pandas")
                .repartition(1)
                .map_batches(fp_merge, batch_format="pandas",
                             batch_size=None)
                .to_pandas().set_index("bucket").sort_index())

    fo, fn_ = side_fp(old), side_fp(new)
    dirty = ((fo["_fp"].to_numpy() != fn_["_fp"].to_numpy())
             | (fo["n"].to_numpy() != fn_["n"].to_numpy()))
    dirty_set = frozenset(np.arange(buckets)[dirty].tolist())
    fingerprint_diff.last_clean_buckets = int(buckets - len(dirty_set))

    def keep_dirty(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        b = (key_hash(df, key_cols) % np.uint64(buckets)).astype(np.int64)
        return df[pd.Series(b).isin(dirty_set).to_numpy()]

    from .grouped import typed_or_empty
    o2 = old.map_batches(lambda d: typed_or_empty(keep_dirty(d)),
                         batch_format="pandas")
    n2 = new.map_batches(lambda d: typed_or_empty(keep_dirty(d)),
                         batch_format="pandas")
    return snapshot_diff(o2, n2, key_cols, compare_cols=compare_cols)
