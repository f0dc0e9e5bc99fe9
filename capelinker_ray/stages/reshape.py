"""Row-reshaping fundamentals: explode, regex extraction, global top-k.

Each is a zero- or one-collect streaming pass:

  explode             list column -> one row per element (+ position) —
                      numpy repeat/concatenate per batch, no Python rows
  regex_extract_rows  the log-parsing shape: all matches of a compiled
                      pattern per row, exploded with match index
  global_topk         ORDER BY ... LIMIT k without a global sort: each
                      batch keeps its local top-k (partial), one tiny
                      merge task finishes — driver never sees raw rows
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

__all__ = ["explode", "regex_extract_rows", "global_topk",
           "melt", "share_of_group"]


def explode(ds, col: str, *, pos_col: str | None = None,
            keep_empty: bool = False):
    """One output row per element of the list column ``col`` (other
    columns repeated) — SQL ``unnest``. ``pos_col`` adds the 0-based
    element index (``generate_subscripts`` parity). Null/empty lists
    drop their row unless ``keep_empty`` (then one row with a null
    element). Vectorized: one ``np.repeat`` + ``np.concatenate`` per
    batch."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        vals = df[col].to_numpy()
        lens = np.array([0 if v is None or (isinstance(v, float))
                         else len(v) for v in vals], dtype=np.int64)
        others = [c for c in df.columns if c != col]
        if keep_empty:
            rep = np.maximum(lens, 1)
            flat = np.concatenate(
                [np.asarray(v, dtype=object) if n else
                 np.array([None], dtype=object)
                 for v, n in zip(vals, lens)]) if len(df) else \
                np.empty(0, object)
            pos = np.concatenate(
                [np.arange(n) if n else np.array([-1])
                 for n in lens]) if len(df) else np.empty(0, np.int64)
        else:
            rep = lens
            nz = lens > 0
            flat = (np.concatenate([np.asarray(v, dtype=object)
                                    for v in vals[nz]])
                    if nz.any() else np.empty(0, object))
            pos = (np.concatenate([np.arange(n) for n in lens[nz]])
                   if nz.any() else np.empty(0, np.int64))
        out = pd.DataFrame(
            {c: np.repeat(df[c].to_numpy(), rep) for c in others})
        out[col] = flat
        if pos_col is not None:
            out[pos_col] = pos.astype(np.int64)
        from .grouped import typed_or_empty
        return typed_or_empty(out)

    return ds.map_batches(fn, batch_format="pandas")


def regex_extract_rows(ds, col: str, pattern: str, *,
                       out_col: str = "match",
                       idx_col: str = "match_idx"):
    """All non-overlapping matches of ``pattern`` per row, one output row
    per match with its 0-based match index — the log-parsing /
    entity-extraction shape (SQL ``unnest(regexp_extract_all(...))``).
    Rows with no match emit nothing. The pattern compiles ONCE per task
    (closure), the per-batch work is one ``str.findall`` + the explode
    kernel."""
    rex = re.compile(pattern)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        s = df[col].where(df[col].notna(), "")
        found = s.str.findall(rex)
        sub = df.drop(columns=[col]).copy()
        sub["_m"] = found.to_numpy()
        return sub

    from .grouped import typed_or_empty
    mid = ds.map_batches(fn, batch_format="pandas")
    out = explode(mid, "_m", pos_col=idx_col)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return typed_or_empty(df.rename(columns={"_m": out_col}))

    return out.map_batches(rename, batch_format="pandas")


def global_topk(ds, by, k: int, *, ascending=False):
    """Global ``ORDER BY ... LIMIT k`` without a full distributed sort:
    every batch contributes its local top-k rows (a partial bounded at k
    regardless of batch size), ONE merge task sorts the ≤ k × #batches
    partials and keeps k. ``by`` should be a TOTAL order (append a unique
    id) for deterministic results; ties beyond it resolve by the sort's
    stability within each batch."""
    by = [by] if isinstance(by, str) else list(by)
    if isinstance(ascending, bool):
        ascending = [ascending] * len(by)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(by, ascending=ascending,
                              kind="stable").head(k)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(by, ascending=ascending,
                              kind="stable").head(k)

    parts = ds.map_batches(partial, batch_format="pandas")
    return parts.repartition(1).map_batches(merge, batch_format="pandas",
                                            batch_size=None)


def melt(ds, id_cols, value_cols, *, var_col: str = "variable",
         val_col: str = "value"):
    """Wide -> long unpivot (SQL ``UNPIVOT`` / pandas ``melt``): one
    output row per (input row, value column). Zero shuffle; one
    tile/repeat per batch. Value columns are cast to float64 (the usual
    measure-melt); nulls are KEPT (SQL UNPIVOT ``INCLUDE NULLS``
    parity is the engine default — drop downstream if unwanted)."""
    id_cols = [id_cols] if isinstance(id_cols, str) else list(id_cols)
    value_cols = ([value_cols] if isinstance(value_cols, str)
                  else list(value_cols))
    m = len(value_cols)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        out = {c: np.repeat(df[c].to_numpy(), m) for c in id_cols}
        out[var_col] = np.tile(np.array(value_cols, dtype=object), n)
        vals = df[value_cols].to_numpy(np.float64)
        out[val_col] = vals.ravel()
        return pd.DataFrame(out)

    return ds.map_batches(fn, batch_format="pandas")


def share_of_group(ds, key_cols, val_col: str, *,
                   out_col: str = "share"):
    """Each row's share of its group's total — SQL ``val / sum(val) OVER
    (PARTITION BY key)``. ONE co-partitioning shuffle, vectorized
    grouped transform; groups totaling 0 (or all-null) yield null
    shares, null values contribute 0 to the denominator and keep a null
    share (SQL division/None parity)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            df = df.copy()
            df[out_col] = pd.Series(dtype=np.float64)
            return df
        df = df.copy()
        v = df[val_col].astype(np.float64)
        tot = v.fillna(0.0).groupby(
            [df[c].to_numpy() for c in key_cols], sort=False
        ).transform("sum")
        with np.errstate(divide="ignore", invalid="ignore"):
            share = v.to_numpy() / tot.to_numpy()
        share[tot.to_numpy() == 0] = np.nan
        df[out_col] = share
        return df

    from .grouped import grouped_map
    return grouped_map(ds, key_cols, per_partition)
