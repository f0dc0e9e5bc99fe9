"""Distributed prefix scan: ordered running totals + budget-packed shards.

Ray Data has no scan/window primitive — ``map_batches`` sees one batch with
no global position, and ``groupby`` loses order. The classic two-pass
parallel scan fits Ray's model exactly, though it needs per-block identity,
which the Dataset API hides; this is the engine's ONE documented drop to
raw ``@ray.remote`` tasks (build brief: "(c) raw Ray tasks as a last
resort — document the partitioning assumption"):

  1. global sort on ``order_by`` (range partition — blocks come back in
     key order; at ingest-partitioned corpora the sort is near-free),
  2. one tiny task per block computes its local sum (parallel, returns a
     scalar — bytes through the driver ∝ #blocks, never rows),
  3. the driver exclusive-prefixes the #blocks scalars,
  4. one task per block adds (local cumsum + block offset) — parallel,
     zero shuffle.

``pack_by_budget`` is the training-data use: split a corpus into
contiguous ~``capacity``-unit shards in id order ("2k-document /
50M-token training shards"), deterministic and resumable. Null counts
contribute 0 (SQL ``sum() OVER`` semantics, so the DuckDB window-function
oracle is value-exact).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

__all__ = ["running_total", "grouped_running_total", "pack_by_budget",
           "row_number", "exact_quantiles", "grouped_quantiles",
           "grouped_rolling_mean", "grouped_percent_rank",
           "grouped_lag_diff", "ntile", "mad_outliers",
           "grouped_range_sum", "winsorize"]


@ray.remote
def _block_sum(tbl: pa.Table, col: str) -> tuple:
    # ray's sort can emit schema-less EMPTY blocks — report rows so the
    # driver can drop them (they contribute nothing to the scan)
    if len(tbl) == 0 or col not in tbl.column_names:
        return 0, 0
    a = tbl[col].cast(pa.int64())
    s = pa.compute.sum(a)          # arrow sum skips nulls
    return len(tbl), int(s.as_py() or 0)


@ray.remote
def _add_scan(tbl: pa.Table, col: str, offset: int, out_col: str,
              shard_col: str | None, capacity: int | None) -> pa.Table:
    vals = tbl[col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    vals = np.nan_to_num(vals.astype(np.float64), nan=0.0).astype(np.int64)
    inclusive = np.cumsum(vals) + offset
    out = tbl.append_column(out_col, pa.array(inclusive, pa.int64()))
    if shard_col is not None:
        exclusive = inclusive - vals
        out = out.append_column(
            shard_col, pa.array(exclusive // capacity, pa.int64()))
    return out


def _scan(ds, col: str, order_by, out_col: str,
          shard_col: str | None = None, capacity: int | None = None):
    order_by = [order_by] if isinstance(order_by, str) else list(order_by)
    ds = ds.sort(order_by).materialize()
    refs = ds.to_arrow_refs()      # blocks arrive in global sort order
    if not refs:
        return ds
    stats = ray.get([_block_sum.remote(r, col) for r in refs])
    live = [(r, s) for r, (n, s) in zip(refs, stats) if n > 0]
    if not live:
        # all-empty input: typed empty result carrying the scan columns
        # (schema() may be None when every block is schema-less empty)
        sch = ds.schema()
        fields = ([(n, t) for n, t in zip(sch.names, sch.types)
                   if isinstance(t, pa.DataType)] if sch else [])
        fields.append((out_col, pa.int64()))
        if shard_col is not None:
            fields.append((shard_col, pa.int64()))
        return rd.from_arrow(pa.schema(fields).empty_table())
    sums = np.array([s for _, s in live], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sums[:-1])]).astype(np.int64)
    new_refs = [_add_scan.remote(r, col, int(off), out_col,
                                 shard_col, capacity)
                for (r, _), off in zip(live, offsets)]
    return rd.from_arrow_refs(new_refs)


def running_total(ds, col: str, order_by, out_col: str = "running_total"):
    """Inclusive running sum of ``col`` under a global ``order_by`` sort.
    ≡ SQL ``sum(col) OVER (ORDER BY ... ROWS UNBOUNDED PRECEDING)``."""
    return _scan(ds, col, order_by, out_col)


def grouped_running_total(ds, key_col: str, col: str, order_by,
                          out_col: str = "running_total"):
    """Inclusive running sum of ``col`` per ``key_col`` group under a
    within-group ``order_by`` sort — SQL
    ``sum(col) OVER (PARTITION BY key ORDER BY ...)``.

    Needs NO global scan: unlike :func:`running_total`, the accumulation
    never crosses a key boundary, so one co-partitioning shuffle +
    one vectorized sort + grouped cumsum per coarse partition suffices
    (sessionize's shape). Null values contribute 0 (SQL sum-over
    semantics); the partitioning assumption is one key per partition."""
    import pandas as pd

    order_by = [order_by] if isinstance(order_by, str) else list(order_by)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            df = df.copy()
            df[out_col] = pd.Series(dtype=np.float64)
            return df
        df = df.sort_values([key_col, *order_by], kind="stable").copy()
        v = df[col].fillna(0.0).astype(np.float64)
        df[out_col] = v.groupby(df[key_col].to_numpy(),
                                sort=False).cumsum()
        return df

    from .grouped import grouped_map
    return grouped_map(ds, key_col, per_partition)


def grouped_rolling_mean(ds, key_col: str, col: str, order_by,
                         window: int, out_col: str = "rolling_mean"):
    """Trailing row-based moving average per key — SQL
    ``avg(col) OVER (PARTITION BY key ORDER BY ... ROWS BETWEEN window-1
    PRECEDING AND CURRENT ROW)``. One co-partitioning shuffle, one
    vectorized pandas ``groupby(...).rolling`` per coarse partition; nulls
    are skipped within the window (SQL avg semantics: mean of the non-null
    values present). Partitioning assumption: one key per partition."""
    if window < 1:
        raise ValueError("window must be >= 1")
    import pandas as pd
    order_by = [order_by] if isinstance(order_by, str) else list(order_by)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            df = df.copy()
            df[out_col] = pd.Series(dtype=np.float64)
            return df
        df = df.sort_values([key_col, *order_by], kind="stable").copy()
        v = df[col].astype(np.float64)
        df[out_col] = (v.groupby(df[key_col].to_numpy(), sort=False)
                       .rolling(window, min_periods=1).mean()
                       .reset_index(level=0, drop=True))
        return df

    from .grouped import grouped_map
    return grouped_map(ds, key_col, per_partition)


def grouped_percent_rank(ds, key_col: str, col: str,
                         out_col: str = "percent_rank"):
    """SQL ``percent_rank() OVER (PARTITION BY key ORDER BY col)`` =
    (rank - 1) / (n - 1) with min-rank ties; single-row groups get 0.
    One co-partitioning shuffle, vectorized rank across every group of a
    partition."""
    import pandas as pd

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            df = df.copy()
            df[out_col] = pd.Series(dtype=np.float64)
            return df
        df = df.copy()
        g = df.groupby(key_col, sort=False)[col]
        rank = g.rank(method="min", na_option="bottom")
        n = g.transform("size").astype(np.float64)
        df[out_col] = np.where(n > 1, (rank - 1.0) / (n - 1.0), 0.0)
        return df

    from .grouped import grouped_map
    return grouped_map(ds, key_col, per_partition)


def pack_by_budget(ds, count_col: str, capacity: int, order_by,
                   shard_col: str = "shard_id",
                   out_col: str = "running_total"):
    """Assign contiguous ~``capacity``-unit shards in ``order_by`` order:
    shard_id = exclusive-running-sum // capacity. A row straddling a
    boundary stays in the earlier shard (shards overshoot by < one row)."""
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    return _scan(ds, count_col, order_by, out_col,
                 shard_col=shard_col, capacity=capacity)


def row_number(ds, order_by, out_col: str = "row_number"):
    """1-based global row number under ``order_by`` (prefix scan of ones)."""
    def ones(t: pa.Table) -> pa.Table:
        return t.append_column("_one",
                               pa.array(np.ones(len(t), np.int64)))
    out = _scan(ds.map_batches(ones, batch_format="pyarrow"),
                "_one", order_by, out_col)
    return out.drop_columns(["_one"])


def exact_quantiles(ds, col: str, qs=(0.25, 0.5, 0.75), *,
                    interp: bool = False):
    """EXACT quantiles of ``col``: discrete by default (DuckDB
    ``quantile_disc`` semantics — the element at 1-based rank
    max(1, ceil(q*n)) of the sorted non-null values), or linearly
    INTERPOLATED with ``interp=True`` (``quantile_cont`` semantics:
    position q*(n-1) 0-based, value = v[lo] + frac*(v[hi]-v[lo])).

    One distributed sort + prefix scan + a filter that ships only the
    needed rank rows to the driver — the exact complement of the
    mergeable histogram sketch in stages/sketch.py (approximate, one
    pass, no sort). Returns a pandas DataFrame (q, value); NaN values
    for an empty/all-null column."""
    import math

    import pandas as pd
    import pyarrow.compute as pc

    def valid(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t[col]))

    ranked = row_number(ds.map_batches(valid, batch_format="pyarrow"),
                        order_by=col, out_col="_rn").materialize()
    n = ranked.count()
    if n == 0:
        return pd.DataFrame({"q": [float(q) for q in qs],
                             "value": [float("nan")] * len(qs)})
    if interp:
        # 0-based position q*(n-1); need BOTH bracketing ranks (1-based)
        pos_of = {q: float(q) * (n - 1) for q in qs}
        rank_of = {q: (math.floor(p) + 1, math.ceil(p) + 1)
                   for q, p in pos_of.items()}
        targets = sorted({r for pair in rank_of.values() for r in pair})
    else:
        rank_of = {q: max(1, math.ceil(float(q) * n)) for q in qs}
        targets = sorted(set(rank_of.values()))

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["_rn"],
                                 value_set=pa.array(targets, pa.int64())))

    rows = ranked.map_batches(pick, batch_format="pyarrow").take_all()
    val_at = {r["_rn"]: float(r[col]) for r in rows}
    if interp:
        vals = []
        for q in qs:
            lo_r, hi_r = rank_of[q]
            frac = pos_of[q] - (lo_r - 1)
            lo_v, hi_v = val_at[lo_r], val_at[hi_r]
            vals.append(lo_v + frac * (hi_v - lo_v))
        return pd.DataFrame({"q": [float(q) for q in qs], "value": vals})
    return pd.DataFrame({"q": [float(q) for q in qs],
                         "value": [val_at[rank_of[q]] for q in qs]})


def grouped_quantiles(ds, group_col: str, col: str, qs=(0.25, 0.5, 0.75)):
    """EXACT per-group discrete quantiles (same ``quantile_disc`` rank
    rule as :func:`exact_quantiles`, applied within each ``group_col``
    group). Returns Dataset[(group_col, q, value)].

    Unlike the global variant — which needs the prefix-scan machinery
    because no worker sees the whole sorted stream — per-group quantiles
    fit the standard grouped shape: ONE co-partitioning shuffle, then a
    vectorized sort + rank pick across ALL groups of a partition at once
    (no per-group Python loop; the group boundaries are computed from one
    batch-wide sort). Partitioning assumption: one group's rows fit a
    partition (same contract as every grouped op here)."""
    import math

    import pandas as pd

    qs = [float(q) for q in qs]

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[col].notna()]
        if not len(df):
            return pd.DataFrame({group_col: pd.Series(dtype=object),
                                 "q": pd.Series(dtype=np.float64),
                                 "value": pd.Series(dtype=np.float64)})
        s = df.sort_values([group_col, col], kind="stable")
        g = s[group_col].to_numpy()
        v = s[col].to_numpy(np.float64)
        new = np.ones(len(s), dtype=bool)
        new[1:] = g[1:] != g[:-1]
        starts = np.nonzero(new)[0]
        sizes = np.diff(np.append(starts, len(s)))
        out = []
        for q in qs:
            # 1-based rank max(1, ceil(q*n)) within each group, vectorized
            ranks = np.maximum(1, np.ceil(q * sizes).astype(np.int64))
            idx = starts + ranks - 1
            out.append(pd.DataFrame({group_col: g[starts], "q": q,
                                     "value": v[idx]}))
        return pd.concat(out, ignore_index=True)

    from .grouped import grouped_map
    return grouped_map(ds, group_col, per_partition)


def grouped_lag_diff(ds, key_col: str, value_col: str, order_by,
                     out_col: str = "lag_diff"):
    """``value - LAG(value) OVER (PARTITION BY key ORDER BY ...)`` — the
    inter-event-gap window function (e.g. per-user seconds between
    consecutive events). First row of each key gets NULL (SQL LAG
    semantics). Datetime columns diff in SECONDS (float); numeric columns
    diff in their own units.

    Same shape as the other grouped windows here: ONE co-partitioning
    shuffle, then a vectorized within-partition sort + grouped diff —
    no per-group Python loop. Partitioning assumption: one key's rows fit
    a partition."""
    import pandas as pd

    order_by = [order_by] if isinstance(order_by, str) else list(order_by)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            df = df.copy()
            df[out_col] = pd.Series(dtype=np.float64)
            return df
        df = df.sort_values([key_col, *order_by], kind="stable").copy()
        v = df[value_col]
        if str(v.dtype).startswith("datetime"):
            # normalize to micros first (ns/us inputs both land here),
            # then int64 view -> seconds; the diff stays exact
            v = (v.astype("datetime64[us]").astype("int64")
                 .astype(np.float64) / 1e6)
        else:
            v = v.astype(np.float64)
        df[out_col] = v.groupby(df[key_col].to_numpy(), sort=False).diff()
        return df

    from .grouped import grouped_map
    return grouped_map(ds, key_col, per_partition)


def ntile(ds, order_by, k: int, out_col: str = "ntile"):
    """SQL ``NTILE(k) OVER (ORDER BY ...)``: split the GLOBAL order into k
    buckets, the first ``n % k`` buckets one row larger. Built on the
    2-pass prefix scan (global row number — driver sees #blocks scalars,
    never rows), then one stateless vectorized bucket pass with the three
    scalars (n, k) broadcast in the closure. ``order_by`` should be a
    total order (include a unique id) for deterministic output."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = row_number(ds, order_by, out_col="_rn").materialize()
    n = ranked.count()
    q, r = divmod(n, k)
    cut = (q + 1) * r              # rows 0..cut-1 live in the big buckets

    def bucket(t: pa.Table) -> pa.Table:
        rn0 = t["_rn"].to_numpy(zero_copy_only=False) - 1
        b = np.where(rn0 < cut,
                     rn0 // max(q + 1, 1),
                     r + (rn0 - cut) // max(q, 1))
        return (t.append_column(out_col, pa.array(b + 1, pa.int64()))
                .drop_columns(["_rn"]))

    return ranked.map_batches(bucket, batch_format="pyarrow")


def mad_outliers(ds, col: str, *, k: float = 3.0, scale: float = 1.4826,
                 out_col: str = "is_outlier"):
    """Robust outlier flag: |x - median| > k · scale · MAD, where MAD is
    the exact discrete median of |x - median| (scale 1.4826 makes MAD a
    consistent sigma estimate under normality). Two :func:`exact_quantiles`
    passes (each ships len(qs) rows to the driver, never the data), then
    one stateless vectorized flag pass — the distribution-free length /
    score gate for corpus curation. Null values flag False."""
    med = float(exact_quantiles(ds, col, (0.5,))["value"].iloc[0])

    def absdev(t: pa.Table) -> pa.Table:
        v = t[col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        return t.append_column("_absdev",
                               pa.array(np.abs(v - med), pa.float64()))

    dev = ds.map_batches(absdev, batch_format="pyarrow")
    mad = float(exact_quantiles(dev, "_absdev", (0.5,))["value"].iloc[0])
    thr = k * scale * mad

    def flag(t: pa.Table) -> pa.Table:
        v = t[col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        is_out = np.abs(v - med) > thr
        is_out[np.isnan(v)] = False
        return t.append_column(out_col, pa.array(is_out, pa.bool_()))

    return ds.map_batches(flag, batch_format="pyarrow"), med, mad


def grouped_range_sum(ds, key_col: str, ts_col: str, val_col: str,
                      window_s: float, out_col: str = "range_sum"):
    """Trailing TIME-range window sum per key — SQL ``sum(val) OVER
    (PARTITION BY key ORDER BY ts RANGE BETWEEN INTERVAL w PRECEDING AND
    CURRENT ROW)``: every row carries the sum of its key's values in
    [ts - w, ts], endpoints inclusive, INCLUDING peer rows that share its
    exact timestamp (SQL RANGE frames extend through ORDER BY peers —
    row-based pandas rolling alone would stop at the current row).

    ONE co-partitioning shuffle; per partition the (key, ts)-distinct
    sums roll through a cython time-window rolling (closed='both') and
    broadcast back to rows with one merge — vectorized across all keys.
    """
    import pandas as pd
    window = pd.Timedelta(seconds=float(window_s))

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            df = df.copy()
            df[out_col] = pd.Series(dtype=np.float64)
            return df
        ts = pd.to_datetime(df[ts_col]).astype("datetime64[ns]")
        base = pd.DataFrame({key_col: df[key_col].to_numpy(),
                             "_ts": ts.to_numpy(),
                             "_v": df[val_col].to_numpy(np.float64)})
        # collapse exact-ts peers first: RANGE includes ALL of them
        g = (base.groupby([key_col, "_ts"], sort=False)["_v"].sum()
             .reset_index().sort_values([key_col, "_ts"], kind="stable"))
        roll = (g.set_index("_ts").groupby(key_col, sort=False)["_v"]
                .rolling(window, closed="both").sum()
                .reset_index(name=out_col))
        out = df.copy()
        out["_ts"] = ts.to_numpy()
        out = out.merge(roll, on=[key_col, "_ts"], how="left")
        return out.drop(columns=["_ts"])

    from .grouped import grouped_map
    return grouped_map(ds, key_col, per_partition)


def winsorize(ds, col: str, *, lower_q: float = 0.01,
              upper_q: float = 0.99, out_col: str | None = None):
    """Quantile clipping (winsorization): values below the exact
    ``lower_q`` quantile / above ``upper_q`` clamp to those bounds — the
    heavy-tail tamer before any mean-based normalization. One
    :func:`exact_quantiles` pass (ships 2 scalars to the driver, never
    rows) + one stateless vectorized clip; nulls pass through. Returns
    (dataset, lo, hi)."""
    if not 0.0 <= lower_q < upper_q <= 1.0:
        raise ValueError("need 0 <= lower_q < upper_q <= 1")
    out_col = out_col or f"{col}_winsor"
    qs = exact_quantiles(ds, col, (lower_q, upper_q))["value"]
    lo, hi = float(qs.iloc[0]), float(qs.iloc[1])

    def clip(t: pa.Table) -> pa.Table:
        v = t[col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        return t.append_column(out_col,
                               pa.array(np.clip(v, lo, hi), pa.float64()))

    return ds.map_batches(clip, batch_format="pyarrow"), lo, hi


def grouped_rank(ds, key_col: str, col: str, *, ascending: bool = True,
                 rank_col: str = "rank", dense_col: str = "dense_rank"):
    """SQL ``rank()`` and ``dense_rank()`` ``OVER (PARTITION BY key ORDER
    BY col)`` in one pass — the window-family sibling of
    :func:`grouped_percent_rank`. Nulls rank LAST (DuckDB default ASC
    NULLS LAST / DESC NULLS LAST). One co-partitioning shuffle,
    vectorized pandas rank across every group of a partition."""
    import pandas as pd

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            df = df.copy()
            df[rank_col] = pd.Series(dtype=np.int64)
            df[dense_col] = pd.Series(dtype=np.int64)
            return df
        df = df.copy()
        g = df.groupby(key_col, sort=False)[col]
        df[rank_col] = g.rank(method="min", ascending=ascending,
                              na_option="bottom").astype(np.int64)
        df[dense_col] = g.rank(method="dense", ascending=ascending,
                               na_option="bottom").astype(np.int64)
        return df

    from .grouped import grouped_map
    return grouped_map(ds, key_col, per_partition)


def grouped_robust_scale(ds, group_col: str, col: str,
                         out_col: str = "robust_z"):
    """Per-group robust standardization: ``(x - median) / IQR`` with
    INTERPOLATED (``quantile_cont``) per-group quartiles — the
    outlier-insensitive normalizer for per-language / per-source feature
    columns (median/IQR shift less under heavy tails than mean/std).
    Groups with IQR == 0 (or a single row) scale to 0. Null values pass
    through as null.

    Scale shape: ONE co-partitioning shuffle does everything — each
    coarse partition holds complete groups, so the quartiles AND the
    join-back happen in-partition with one vectorized sort (no second
    shuffle, no driver collect)."""
    import pandas as pd

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            df = df.copy()
            df[out_col] = pd.Series(dtype=np.float64)
            return df
        df = df.copy()
        valid = df[df[col].notna()]
        out = np.full(len(df), np.nan)
        if len(valid):
            s = valid.sort_values([group_col, col], kind="stable")
            g = s[group_col].to_numpy()
            v = s[col].to_numpy(np.float64)
            new = np.ones(len(s), dtype=bool)
            new[1:] = g[1:] != g[:-1]
            starts = np.nonzero(new)[0]
            sizes = np.diff(np.append(starts, len(s)))

            def interp(q: float) -> np.ndarray:
                pos = q * (sizes - 1)                 # 0-based in-group
                lo = np.floor(pos).astype(np.int64)
                hi = np.ceil(pos).astype(np.int64)
                frac = pos - lo
                return (v[starts + lo]
                        + frac * (v[starts + hi] - v[starts + lo]))

            q1, med, q3 = interp(0.25), interp(0.5), interp(0.75)
            iqr = q3 - q1
            stats = pd.DataFrame({group_col: g[starts], "_med": med,
                                  "_iqr": iqr})
            j = df.merge(stats, on=group_col, how="left")
            x = j[col].to_numpy(np.float64)
            iq = j["_iqr"].to_numpy(np.float64)
            md = j["_med"].to_numpy(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                z = np.where(iq > 0, (x - md) / iq, 0.0)
            out = np.where(np.isnan(x), np.nan, z)
        df[out_col] = out
        return df

    from .grouped import grouped_map
    return grouped_map(ds, group_col, per_partition)
