"""Low-cardinality grouped aggregation — the tiny-result fast path.

``Dataset.groupby(key).aggregate(Sum(...))`` pays a full sort-shuffle
barrier plus a per-row Python combine — measured ~0.5-1.4 s of fixed cost
on KB-sized outputs (25-key rollups). When the GROUP KEY is known
low-cardinality (reference analog: the final ``GROUP BY returnflag`` /
``GROUP BY nation`` rollups; SURVEY §2.10), the scale-correct shape is:

  per-batch partial groupby-sum  (raw rows never shuffle)
    -> repartition(1)            (collects ≤ keys x blocks partial rows)
    -> one vectorized pandas merge

The single merge task holds keys x input-blocks rows — bounded by the
LOW-CARDINALITY contract (≤ ~10^4 keys), not by data size, so it is safe
at any corpus scale. For high-cardinality groups use
``grouped.grouped_map`` instead (hash-partitioned, no single reducer).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["small_group_sum", "distinct_small", "rollup_sum",
           "histogram", "mode_by", "grouped_stats", "grouped_zscore",
           "group_centroids", "group_concat", "grouped_nunique",
           "calibration_bins", "expected_calibration_error"]

_MAX_SMALL_KEYS = 100_000


def small_group_sum(ds, keys: str | list[str], sum_cols: list[str], *,
                    size_col: str | None = None):
    """Dataset -> Dataset[keys + summed ``sum_cols`` (+ ``size_col``
    row count)]. Partial-aggregates inside every batch, then merges the
    partials in ONE task (no sort shuffle, no native per-row combine).

    Keys must be low-cardinality (the per-batch partial already enforces
    the working-set bound; the merge task sees keys x blocks rows)."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False)
        out = g[sum_cols].sum()
        if size_col is not None:
            out[size_col] = g.size()
        out = out.reset_index()
        if len(out) > _MAX_SMALL_KEYS:
            raise ValueError(
                f"small_group_sum saw {len(out)} distinct keys in one "
                f"batch; use grouped.grouped_map for high-cardinality keys")
        return out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        cols = sum_cols + ([size_col] if size_col else [])
        out = df.groupby(keys, sort=False)[cols].sum().reset_index()
        if size_col is not None:
            out[size_col] = out[size_col].astype(np.int64)
        return out

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.repartition(1).map_batches(merge, batch_format="pandas",
                                               batch_size=None)


def distinct_small(ds, col: str) -> list:
    """Sorted distinct values of a LOW-CARDINALITY column without a
    sort-shuffle groupby: per-batch ``unique`` partials -> one-task merge
    -> driver list (bounded by the same ≤ ~10^4-key contract)."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        u = df[col].dropna().unique()
        if len(u) > _MAX_SMALL_KEYS:
            raise ValueError(
                f"distinct_small saw {len(u)} distinct {col!r} values in "
                f"one batch; this column is not low-cardinality")
        return pd.DataFrame({col: pd.Series(u)})

    parts = ds.select_columns([col]).map_batches(
        partial, batch_format="pandas")
    merged = parts.repartition(1).map_batches(
        lambda df: df.drop_duplicates(col), batch_format="pandas",
        batch_size=None)
    vals = [r[col] for r in merged.take_all()]
    return sorted(v for v in vals if v is not None)


def rollup_sum(ds, keys: list[str], sum_cols: list[str], *,
               size_col: str | None = None):
    """``GROUP BY ROLLUP(k1, .., km)`` sums: every prefix grouping level
    from the finest (all keys) up to the grand total, rolled-up key
    columns NULL, plus a ``grouping_id`` bitmask (SQL ``GROUPING_ID``
    convention: bit set = key rolled up, first key most significant).

    Distributed shape: the per-batch partials and the ONE merge task of
    :func:`small_group_sum` computed at the FINEST level only — every
    coarser level derives from the finest aggregate inside the same merge
    task (keys x blocks rows, bounded by the low-cardinality contract;
    raw rows never shuffle and never re-aggregate per level)."""
    keys = list(keys)
    m = len(keys)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)
        out = g[sum_cols].sum()
        if size_col is not None:
            out[size_col] = g.size()
        out = out.reset_index()
        if len(out) > _MAX_SMALL_KEYS:
            raise ValueError(
                f"rollup_sum saw {len(out)} distinct keys in one batch; "
                f"rollup requires low-cardinality keys")
        return out

    cols = sum_cols + ([size_col] if size_col else [])

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        finest = (df.groupby(keys, sort=False, dropna=False)[cols]
                  .sum().reset_index())
        frames = []
        for lvl in range(m, -1, -1):
            prefix = keys[:lvl]
            if lvl == m:
                f = finest.copy()
            elif prefix:
                f = (finest.groupby(prefix, sort=False, dropna=False)[cols]
                     .sum().reset_index())
            else:
                f = finest[cols].sum().to_frame().T
            for kk in keys[lvl:]:
                f[kk] = None
            f["grouping_id"] = sum(1 << (m - 1 - i) for i in range(lvl, m))
            frames.append(f[keys + cols + ["grouping_id"]])
        out = pd.concat(frames, ignore_index=True)
        if size_col is not None:
            out[size_col] = out[size_col].astype(np.int64)
        out["grouping_id"] = out["grouping_id"].astype(np.int64)
        return out

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.repartition(1).map_batches(merge, batch_format="pandas",
                                               batch_size=None)


def histogram(ds, col: str, *, lo: float, hi: float, bins: int):
    """Fixed-width histogram of ``col`` over [lo, hi): per-batch
    ``np.bincount`` partials (one int64 vector per batch regardless of
    rows) merged in ONE task — the exact-counts complement to the
    mergeable quantile sketch in stages/sketch.py. Values below ``lo``
    clamp into bin 0, values at/above ``hi`` into the last bin (so the
    SQL twin is a pure least/greatest/floor expression); nulls are
    skipped. Returns Dataset[(bin, lo_edge, n)]."""
    if bins < 1 or not hi > lo:
        raise ValueError("need bins >= 1 and hi > lo")
    width = (hi - lo) / bins

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].to_numpy(np.float64)
        v = v[~np.isnan(v)]
        b = np.clip(np.floor((v - lo) / width), 0, bins - 1).astype(np.int64)
        cnt = np.bincount(b, minlength=bins).astype(np.int64)
        return pd.DataFrame({"bin": np.arange(bins, dtype=np.int64),
                             "n": cnt})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("bin", sort=True)["n"].sum().reset_index()
        out["lo_edge"] = lo + out["bin"].to_numpy(np.float64) * width
        out["n"] = out["n"].astype(np.int64)
        return out[["bin", "lo_edge", "n"]]

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.repartition(1).map_batches(merge, batch_format="pandas",
                                               batch_size=None)


def mode_by(ds, key_col: str, val_col: str):
    """Most frequent ``val_col`` per key (+ its count ``n``), ties broken
    by smallest value — SQL ``row_number() OVER (PARTITION BY key ORDER
    BY n DESC, val)``. Per-batch (key, val) partial counts collapse each
    batch to its distinct pairs BEFORE the one slim co-partitioning
    shuffle; the winner pick is one vectorized sort + keep-first per
    coarse partition."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby([key_col, val_col], sort=False, dropna=True)
               .size().reset_index(name="n"))
        out["n"] = out["n"].astype(np.int64)
        return out

    def pick(frame: pd.DataFrame) -> pd.DataFrame:
        if not len(frame):
            return frame.rename(columns={val_col: "mode"})
        tot = (frame.groupby([key_col, val_col], sort=False)["n"].sum()
               .reset_index())
        tot = tot.sort_values([key_col, "n", val_col],
                              ascending=[True, False, True], kind="stable")
        win = tot[~tot.duplicated(subset=[key_col], keep="first")]
        win = win.rename(columns={val_col: "mode"})
        win["n"] = win["n"].astype(np.int64)
        return win

    from .grouped import grouped_map
    parts = ds.map_batches(partial, batch_format="pandas")
    return grouped_map(parts, key_col, pick)


def grouped_stats(ds, key_cols, x_col: str, y_col: str | None = None):
    """Per-group second-order statistics from MERGEABLE raw moments:
    count, mean/std of x, and with ``y_col`` also Pearson correlation and
    the OLS slope/intercept of y on x — each batch contributes one
    (n, Σx, Σx², [Σy, Σy², Σxy]) row per group (fixed width regardless of
    rows), ONE slim shuffle merges them. Rows with a null in x (or y when
    given) are excluded pairwise, matching SQL corr()/regr_* semantics.
    Formulas mirror the SQL-sum twin exactly so only addition order
    differs (~1e-13 relative); consumers should round for comparison."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    with_y = y_col is not None

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[x_col].astype(np.float64)
        ok = x.notna()
        cols = {"_x": x}
        if with_y:
            y = df[y_col].astype(np.float64)
            ok &= y.notna()
            cols["_y"] = y
        sub = df[key_cols].assign(**cols)[ok.to_numpy()]
        sub["sxx"] = sub["_x"] * sub["_x"]
        spec = {"n": ("_x", "size"), "sx": ("_x", "sum"),
                "sxx": ("sxx", "sum")}
        if with_y:
            sub["syy"] = sub["_y"] * sub["_y"]
            sub["sxy"] = sub["_x"] * sub["_y"]
            spec.update({"sy": ("_y", "sum"), "syy": ("syy", "sum"),
                         "sxy": ("sxy", "sum")})
        g = sub.groupby(key_cols, sort=False, dropna=False)
        out = g.agg(**spec).reset_index()
        out["n"] = out["n"].astype(np.int64)
        return out

    def finish(frame: pd.DataFrame) -> pd.DataFrame:
        if not len(frame):
            cols = [*key_cols, "n", "mean_x", "std_x"]
            if with_y:
                cols += ["corr", "slope", "intercept"]
            return pd.DataFrame({c: [] for c in cols})
        g = frame.groupby(key_cols, sort=False, dropna=False).sum(
            numeric_only=True).reset_index()
        n = g["n"].to_numpy(np.float64)
        sx, sxx = g["sx"].to_numpy(), g["sxx"].to_numpy()
        mean_x = sx / n
        var_x = (sxx - sx * sx / n) / np.maximum(n - 1, 1)
        out = g[key_cols].copy()
        out["n"] = g["n"].astype(np.int64)
        out["mean_x"] = mean_x
        out["std_x"] = np.sqrt(np.maximum(var_x, 0.0))
        if with_y:
            sy, syy, sxy = (g["sy"].to_numpy(), g["syy"].to_numpy(),
                            g["sxy"].to_numpy())
            cov = (sxy - sx * sy / n) / np.maximum(n - 1, 1)
            var_y = (syy - sy * sy / n) / np.maximum(n - 1, 1)
            denom = np.sqrt(np.maximum(var_x * var_y, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                out["corr"] = np.where(denom > 0, cov / denom, np.nan)
                out["slope"] = np.where(var_x > 0, cov / var_x, np.nan)
            out["intercept"] = sy / n - out["slope"] * mean_x
        return out

    from .grouped import grouped_map
    parts = ds.map_batches(partial, batch_format="pandas")
    return grouped_map(parts, key_cols, finish)


def grouped_zscore(ds, key_cols, x_col: str, *, out_col: str = "z"):
    """Per-group standardization: ``z = (x - mean_g) / std_pop_g`` — the
    'normalize quality scores within each language/source' pass of a
    curation pipeline. Two streaming passes, ZERO shuffle of the raw
    table: (1) fixed-width (n, Σx, Σx²) moment partials per (batch,
    group) merged in ONE task (low-cardinality key contract, same as
    small_group_sum), (2) the tiny stats frame rides the object store
    once (broadcast_join indexer) and a stateless vectorized pass scores
    every row. Population variance ``Σx²/n - mean²`` mirrors the SQL
    window twin term-for-term so only addition order differs; rows with
    null x — or in a group with zero variance — get a null z."""
    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[x_col].astype(np.float64)
        sub = df[keys].assign(_x=x, _sq=x * x)[x.notna().to_numpy()]
        g = sub.groupby(keys, sort=False, dropna=False)
        out = g.agg(n=("_x", "size"), sx=("_x", "sum"),
                    sxx=("_sq", "sum")).reset_index()
        if len(out) > _MAX_SMALL_KEYS:
            raise ValueError(
                f"grouped_zscore saw {len(out)} distinct keys in one "
                f"batch; use grouped.grouped_map for high-cardinality keys")
        return out

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)[
            ["n", "sx", "sxx"]].sum().reset_index()
        n = g["n"].to_numpy(np.float64)
        mean = g["sx"].to_numpy() / n
        var = g["sxx"].to_numpy() / n - mean * mean
        out = g[keys].copy()
        out["_mean"] = mean
        out["_std"] = np.sqrt(np.maximum(var, 0.0))
        return out

    stats = (ds.map_batches(partial, batch_format="pandas")
             .repartition(1)
             .map_batches(merge, batch_format="pandas", batch_size=None)
             .to_pandas())

    from .join import broadcast_join
    joined = broadcast_join(ds, stats, on=keys, how="left")

    def score(df: pd.DataFrame) -> pd.DataFrame:
        x = df[x_col].astype(np.float64).to_numpy()
        std = df["_std"].to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(std > 0,
                         (x - df["_mean"].to_numpy(np.float64)) / std,
                         np.nan)
        return df.drop(columns=["_mean", "_std"]).assign(**{out_col: z})

    return joined.map_batches(score, batch_format="pandas")


def group_centroids(ds, key_col: str, vec_col: str, *,
                    long_form: bool = False):
    """Element-wise MEAN VECTOR per group (class centroids over an
    embedding column): each batch contributes one (Σvec, n) partial per
    group — d+1 floats regardless of rows — merged in ONE task (group
    count == label cardinality, small by construction; use
    :func:`~capelinker_ray.stages.simsearch.kmeans_centroids` for
    data-driven clusters instead). ``long_form=True`` emits
    (key, dim, mean_val) rows — the SQL-comparable layout."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({key_col: [], "_sum": [], "_n": []})
        out_k, out_s, out_n = [], [], []
        for key, g in df.groupby(key_col, sort=False, dropna=True):
            M = np.stack(g[vec_col].to_numpy()).astype(np.float64)
            out_k.append(key)
            out_s.append(M.sum(axis=0))
            out_n.append(np.int64(len(M)))
        return pd.DataFrame({key_col: out_k, "_sum": out_s, "_n": out_n})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key, g in df.groupby(key_col, sort=True):
            s = np.sum(np.stack(g["_sum"].to_numpy()), axis=0)
            n = int(g["_n"].sum())
            rows.append((key, s / n, n))
        if long_form:
            recs = []
            for key, c, n in rows:
                for j, v in enumerate(c):
                    recs.append((key, np.int64(j), float(v), np.int64(n)))
            return pd.DataFrame(recs, columns=[key_col, "dim", "mean_val",
                                               "n"])
        return pd.DataFrame({key_col: [r[0] for r in rows],
                             "centroid": [r[1].astype(np.float32)
                                          for r in rows],
                             "n": [r[2] for r in rows]})

    parts = ds.map_batches(partial, batch_format="pandas")
    return parts.repartition(1).map_batches(merge, batch_format="pandas",
                                            batch_size=None)


def group_concat(ds, key_cols, val_col: str, *, order_cols=None,
                 sep: str = ",", out_col: str | None = None):
    """Ordered per-key string aggregation (SQL ``string_agg(val, sep
    ORDER BY ...)``): one row per key with its values joined in
    ``order_cols`` order — the conversation-reassembly / sequence-export
    op. Null values are skipped (SQL parity). ONE co-partitioning
    shuffle; within a partition one stable sort + a per-group C-level
    ``str.join`` (cost bounded by the key's own payload, the same
    key-fits-a-partition contract as every grouped_map op)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    order_cols = ([] if order_cols is None else
                  [order_cols] if isinstance(order_cols, str)
                  else list(order_cols))
    out_col = out_col or f"{val_col}_concat"

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        from .grouped import typed_or_empty
        df = df[df[val_col].notna()]
        if not len(df):
            out = df[key_cols].copy()
            out[out_col] = pd.Series(dtype=object)
            return typed_or_empty(out)
        if order_cols:
            df = df.sort_values([*key_cols, *order_cols], kind="stable")
        s = df[val_col].astype(str)
        out = (s.groupby([df[k] for k in key_cols], sort=False)
               .agg(sep.join).rename(out_col).reset_index())
        out.columns = [*key_cols, out_col]
        return out

    from .grouped import grouped_map
    return grouped_map(ds, key_cols, per_part)


def grouped_nunique(ds, key_cols, val_col: str, *,
                    out_col: str = "n_distinct"):
    """EXACT ``count(DISTINCT val)`` per key: each batch collapses to its
    distinct (key, val) pairs FIRST (the only rows that shuffle — the
    partial-distinct idiom), then one co-partitioning shuffle and a
    vectorized per-partition ``nunique``. Null values don't count (SQL
    parity). The approximate complement is stages/sketch.grouped_hll."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[[*key_cols, val_col]]
        sub = sub[sub[val_col].notna()]
        return sub.drop_duplicates()

    def count(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            from .grouped import typed_or_empty
            out = df[key_cols].copy()
            out[out_col] = pd.Series(dtype=np.int64)
            return typed_or_empty(out)
        out = (df.drop_duplicates()
               .groupby(key_cols, sort=False, dropna=False)[val_col]
               .size().rename(out_col).reset_index())
        out[out_col] = out[out_col].astype(np.int64)
        return out

    from .grouped import grouped_map
    parts = ds.map_batches(partial, batch_format="pandas")
    return grouped_map(parts, key_cols, count)


def calibration_bins(ds, *, score_col: str = "score",
                     label_col: str = "label", bins: int = 10):
    """Model-calibration reliability table over a scored Dataset: scores
    in [0,1] fall into ``bins`` equal-width bins; per bin the row count,
    mean score and empirical positive rate (mean label) come from one
    fixed-width partial per batch merged in ONE task — the distributed
    half of an ECE computation (the reference validates its match scorer
    driver-side, metrics.py; this scales that to corpus-size score sets).

    bin = clip(floor(score * bins), 0, bins-1); null scores are dropped.
    Returns Dataset[(bin, n, mean_score, mean_label, gap)]; empty bins are
    absent (SQL GROUP BY parity)."""
    if bins < 1:
        raise ValueError("bins must be >= 1")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[[score_col, label_col]].dropna(subset=[score_col])
        s = d[score_col].to_numpy(np.float64)
        y = d[label_col].to_numpy(np.float64)
        b = np.clip(np.floor(s * bins), 0, bins - 1).astype(np.int64)
        g = pd.DataFrame({"bin": b, "n": 1, "sum_score": s, "sum_label": y})
        return g.groupby("bin", sort=False, as_index=False).sum()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bin", sort=True, as_index=False)[
            ["n", "sum_score", "sum_label"]].sum()
        out = pd.DataFrame({
            "bin": g["bin"].astype(np.int64),
            "n": g["n"].astype(np.int64),
            "mean_score": g["sum_score"] / g["n"],
            "mean_label": g["sum_label"] / g["n"]})
        out["gap"] = (out["mean_score"] - out["mean_label"]).abs()
        return out

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.repartition(1).map_batches(merge, batch_format="pandas",
                                               batch_size=None)


def expected_calibration_error(cal_df) -> float:
    """ECE from a collected ``calibration_bins`` frame (tiny, driver-side):
    sum_b (n_b / N) * |mean_score_b - mean_label_b|."""
    df = cal_df.to_pandas() if hasattr(cal_df, "to_pandas") else cal_df
    n = df["n"].sum()
    if not n:
        return 0.0
    return float((df["n"] / n * df["gap"]).sum())


def table_fingerprint(ds, key_col: str, mix_col: str | None = None, *,
                      buckets: int = 64):
    """Order-independent bucketed table checksum — the Merkle-style
    cheap-comparison primitive for replica / before-after table diffs at
    scale: two tables are (per bucket) identical iff their fingerprints
    match, and a mismatch localizes to ~1/``buckets`` of the keyspace so
    only that slice needs a row-level diff.

    Per row: ``h = splitmix64(splitmix64(key) XOR mix)`` (the engine hash,
    SQL twin in pipelines/queries._sql_splitmix64); bucket = key mod
    ``buckets``; fingerprint = wrap-around uint64 SUM of h over the
    bucket (commutative + associative -> order-independent and
    mergeable). Returns Dataset[(bucket, fp hex-string, n)].

    Scale shape: every batch collapses to <= ``buckets`` fixed-width
    partial rows (np.add.at uint64 accumulate — native modulo-2^64
    wraparound), one single-task merge over #batches x buckets partials;
    no sort shuffle, nothing proportional to the table ever moves."""
    from .dedup import _splitmix64

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"bucket": pd.Series(dtype=np.int64),
                                 "_fp": pd.Series(dtype=np.uint64),
                                 "n": pd.Series(dtype=np.int64)})
        k = df[key_col].to_numpy(np.int64).astype(np.uint64)
        h = _splitmix64(k)
        if mix_col is not None:
            h = _splitmix64(h ^ df[mix_col].to_numpy(np.int64)
                            .astype(np.uint64))
        b = (df[key_col].to_numpy(np.int64) % buckets).astype(np.int64)
        acc = np.zeros(buckets, np.uint64)
        np.add.at(acc, b, h)                   # wraps mod 2^64
        cnt = np.bincount(b, minlength=buckets)
        nz = cnt > 0
        return pd.DataFrame({"bucket": np.arange(buckets)[nz],
                             "_fp": acc[nz], "n": cnt[nz]})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(buckets, np.uint64)
        np.add.at(acc, df["bucket"].to_numpy(np.int64),
                  df["_fp"].to_numpy(np.uint64))
        cnt = np.zeros(buckets, np.int64)
        np.add.at(cnt, df["bucket"].to_numpy(np.int64),
                  df["n"].to_numpy(np.int64))
        nz = cnt > 0
        return pd.DataFrame({
            "bucket": np.arange(buckets)[nz],
            "fp": [f"{int(v):016x}" for v in acc[nz]],  # <= buckets rows
            "n": cnt[nz]})

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.repartition(1).map_batches(merge, batch_format="pandas",
                                               batch_size=None)


def cube_sum(ds, keys: list[str], sum_cols: list[str], *,
             size_col: str | None = None):
    """``GROUP BY CUBE(k1, .., km)`` sums: ALL 2^m grouping-set
    combinations (not just the rollup's m+1 prefixes), rolled-up key
    columns NULL, SQL GROUPING_ID bitmask (bit set = key rolled up,
    first key most significant).

    Same distributed shape as :func:`rollup_sum`: finest-level per-batch
    partials + ONE merge task that derives every grouping set from the
    finest aggregate — raw rows never shuffle, never re-aggregate per
    set. 2^m sets over the finest table is driver-free and bounded by
    the low-cardinality contract (m is small by construction: a cube
    over high-cardinality keys is a cross-product explosion in ANY
    engine)."""
    keys = list(keys)
    m = len(keys)
    if m > 6:
        raise ValueError(f"cube over {m} keys = {2**m} grouping sets; "
                         "keep m <= 6")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)
        out = g[sum_cols].sum()
        if size_col is not None:
            out[size_col] = g.size()
        out = out.reset_index()
        if len(out) > _MAX_SMALL_KEYS:
            raise ValueError(
                f"cube_sum saw {len(out)} distinct keys in one batch; "
                f"cube requires low-cardinality keys")
        return out

    cols = sum_cols + ([size_col] if size_col else [])

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        finest = (df.groupby(keys, sort=False, dropna=False)[cols]
                  .sum().reset_index())
        frames = []
        for mask in range(2 ** m):           # bit set = key rolled up
            kept = [keys[i] for i in range(m) if not (mask >> (m - 1 - i)) & 1]
            if not kept:
                f = finest[cols].sum().to_frame().T
            elif len(kept) == m:
                f = finest.copy()
            else:
                f = (finest.groupby(kept, sort=False, dropna=False)[cols]
                     .sum().reset_index())
            for kk in keys:
                if kk not in kept:
                    f[kk] = None
            f["grouping_id"] = mask
            frames.append(f[keys + cols + ["grouping_id"]])
        out = pd.concat(frames, ignore_index=True)
        if size_col is not None:
            out[size_col] = out[size_col].astype(np.int64)
        out["grouping_id"] = out["grouping_id"].astype(np.int64)
        return out

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.repartition(1).map_batches(merge, batch_format="pandas",
                                               batch_size=None)
