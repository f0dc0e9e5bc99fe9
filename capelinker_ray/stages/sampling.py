"""Deterministic sampling operators for training-data curation.

A web-scale corpus is rarely trained on whole: pipelines subsample per
domain/language ("no source may exceed n documents") and/or take a global
Bernoulli fraction. Both operators here are DETERMINISTIC — the keep set is
a pure function of (id, seed), so re-runs, resumed runs and the DuckDB
oracle agree row-for-row; no RNG state is shipped between workers
(coordination-free at 100 TB, same philosophy as the min-id exact dedup in
stages/dedup.py).

  * ``bernoulli_sample`` — keep rows with splitmix64(id ^ seed_mix) <
    p·2^64. Stateless map_batches, zero shuffle, scales embarrassingly.
  * ``stratified_sample`` — per-key top-``n`` by the same hash (smallest
    hash wins, id tiebreak): ONE grouped_map shuffle co-partitions each key,
    then a vectorized sort + cumcount keeps n rows per key. Assumes a
    single key's rows fit one coarse partition (documented contract shared
    with stages/events.py as-of join); keys hotter than that should be
    pre-capped with bernoulli_sample.

The hash is the engine-wide splitmix64 (stages/dedup.py:_splitmix64) whose
exact SQL twin lives in pipelines/queries._sql_splitmix64 — the sampling
oracles are therefore value-exact, not statistical.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .dedup import _splitmix64

__all__ = ["bernoulli_sample", "stratified_sample", "top_k_per_group",
           "mixture_sample",
           "weighted_sample_topk", "grouped_weighted_sample",
           "grouped_split",
           "sample_hash", "seed_mix", "bernoulli_threshold"]

_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def seed_mix(seed: int) -> int:
    """One splitmix64 round over the seed — decorrelates nearby seeds."""
    return int(_splitmix64(np.array([seed], dtype=np.uint64))[0])


def sample_hash(ids: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64(id XOR seed_mix(seed)) as uint64."""
    x = ids.astype(np.uint64) ^ np.uint64(seed_mix(seed))
    return _splitmix64(x)


def bernoulli_threshold(p: float) -> int:
    """Exact integer keep-threshold for fraction ``p`` (inlined into both
    the engine filter and the SQL oracle so float rounding can't diverge)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return min(int(p * 2.0 ** 64), 1 << 64)


def bernoulli_sample(ds, id_col: str, p: float, seed: int = 0):
    """Keep a deterministic ~``p`` fraction of rows keyed on ``id_col``
    (int64 ids). Pure per-batch filter — no shuffle, no driver state."""
    thr = bernoulli_threshold(p)
    if thr >= 1 << 64:
        return ds
    t64 = np.uint64(thr)

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        from .grouped import typed_or_empty
        h = sample_hash(df[id_col].to_numpy(np.int64), seed)
        return typed_or_empty(df[h < t64])

    return ds.map_batches(keep, batch_format="pandas")


def weighted_sample_topk(ds, id_col: str, weight_col: str, k: int,
                         seed: int = 0):
    """Deterministic weighted sample WITHOUT replacement (Efraimidis &
    Spirakis A-Res, IPL 2006): each row draws u = (splitmix64(id ^ seed) +
    1) / 2^64 in (0, 1] and scores ``ln(u) / w``; the k LARGEST scores are
    an exact weight-proportional sample. Deterministic — same (corpus,
    seed) always keeps the same rows — so a resumed 100-TB run re-selects
    identically.

    Scale path: per-batch top-k (each batch ships at most k slim rows),
    then one tiny single-task merge. Rows with weight <= 0 or null are
    excluded (they have zero selection probability by definition).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    inv64 = np.float64(1.0) / np.float64(2.0 ** 64)

    def es_key(df: pd.DataFrame) -> np.ndarray:
        h = sample_hash(df[id_col].to_numpy(np.int64), seed)
        u = (h.astype(np.float64) + 1.0) * inv64
        return np.log(u) / df[weight_col].to_numpy(np.float64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from .grouped import typed_or_empty
        w = df[weight_col].to_numpy(np.float64)
        df = df[np.isfinite(w) & (w > 0)]
        if not len(df):
            return typed_or_empty(df.assign(_es=np.zeros(0)))
        df = df.assign(_es=es_key(df))
        order = np.lexsort((df[id_col].to_numpy(), -df["_es"].to_numpy()))
        return df.iloc[order[:k]]

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        order = np.lexsort((df[id_col].to_numpy(), -df["_es"].to_numpy()))
        return df.iloc[order[:k]].drop(columns=["_es"])

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.repartition(1).map_batches(merge, batch_format="pandas")


def grouped_weighted_sample(ds, group_col: str, id_col: str,
                            weight_col: str, k: int, seed: int = 0):
    """Weighted sample WITHOUT replacement of ``k`` rows PER GROUP
    (Efraimidis-Spirakis A-Res per stratum): each row draws the same
    deterministic exponential key as :func:`weighted_sample_topk` and the
    k largest keys WITHIN each group win — 'length-weighted 1k docs per
    language', the stratified curation subset.

    Scale path: per-batch top-k per group (a batch ships at most k slim
    rows per group it touches), then ONE co-partitioning grouped_map
    shuffle of those survivors settles each group exactly — the full
    table never shuffles, and no single task ever sees more than
    (groups-in-partition × k × #batches-touching-them) slim rows.
    Rows with weight <= 0 or null are excluded (zero selection
    probability by definition). Deterministic via the engine splitmix64
    stream; ties broken by id ascending."""
    if k < 1:
        raise ValueError("k must be >= 1")
    from .grouped import grouped_map, typed_or_empty
    inv64 = np.float64(1.0) / np.float64(2.0 ** 64)

    def with_key(df: pd.DataFrame) -> pd.DataFrame:
        w = df[weight_col].to_numpy(np.float64)
        df = df[np.isfinite(w) & (w > 0)]
        if not len(df):
            return typed_or_empty(df.assign(_es=np.zeros(0)))
        h = sample_hash(df[id_col].to_numpy(np.int64), seed)
        u = (h.astype(np.float64) + 1.0) * inv64
        return df.assign(_es=np.log(u)
                         / df[weight_col].to_numpy(np.float64))

    def cap(df: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((df[id_col].to_numpy(),
                            -df["_es"].to_numpy()))
        df = df.iloc[order]
        keep = df.groupby(group_col, sort=False,
                          dropna=False).cumcount() < k
        return df[keep.to_numpy()]

    def partial(df: pd.DataFrame):
        d = with_key(df)
        if not isinstance(d, pd.DataFrame) or not len(d):
            return d
        return cap(d)

    partials = ds.map_batches(partial, batch_format="pandas")
    merged = grouped_map(partials, group_col, cap)
    return merged.drop_columns(["_es"])


def grouped_split(ds, key_col: str, test_frac: float, seed: int = 0,
                  out_col: str = "split"):
    """Leakage-safe train/test split: EVERY row of a key lands in the same
    split (hash-of-key Bernoulli, the grouped-holdout rule the reference's
    training scripts use — a per-row split would leak one conversation's
    turns across both sides). Deterministic via the engine splitmix64
    stream; shuffle-free per-batch map."""
    thr = bernoulli_threshold(test_frac)
    t64 = np.uint64(min(thr, (1 << 64) - 1))

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        h = sample_hash(df[key_col].to_numpy(np.int64), seed)
        df[out_col] = np.where(h < t64, "test", "train")
        return df

    return ds.map_batches(tag, batch_format="pandas")


def top_k_per_group(ds, key_col: str, value_col: str, id_col: str,
                    k: int, ascending: bool = False):
    """Keep the ``k`` rows with the largest (default) or smallest
    ``value_col`` per key, ties broken by id ascending — 'top 5 docs per
    language by quality'. One grouped_map shuffle; deterministic. Null
    values rank LAST (SQL ``ORDER BY ... DESC`` NULLS-LAST parity)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    from .grouped import grouped_map

    def cap(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(np.float64)
        key2 = v if ascending else -v      # NaN sorts last either way
        order = np.lexsort((df[id_col].to_numpy(), key2))
        df = df.iloc[order]
        keep = df.groupby(key_col, sort=False, dropna=False).cumcount() < k
        return df[keep.to_numpy()]

    return grouped_map(ds, key_col, cap)


def stratified_sample(ds, key_col: str, id_col: str, n_per_key: int,
                      seed: int = 0,
                      pre_salt: int | None = None):
    """Keep the ``n_per_key`` rows with the smallest (hash, id) per key —
    the 'cap every domain at n documents' curation op. Deterministic: the
    same (corpus, seed) always keeps the same rows.

    Default: one grouped_map shuffle; assumes a key's rows fit one coarse
    partition. ``pre_salt=K`` lifts that assumption for hot keys with a
    two-phase top-n: keep n per (key, salt-of-K) shard first (each shard
    ~1/K of the key), then n per key over the ≤ n·K survivors — min-of-
    mins is exact, so the result is IDENTICAL to the unsalted path."""
    if n_per_key < 1:
        raise ValueError("n_per_key must be >= 1")
    from .grouped import grouped_map

    def cap_fn(keys):
        def cap(df: pd.DataFrame) -> pd.DataFrame:
            h = sample_hash(df[id_col].to_numpy(np.int64), seed)
            order = np.lexsort((df[id_col].to_numpy(np.int64), h))
            df = df.iloc[order]
            keep = df.groupby(keys, sort=False, dropna=False).cumcount() \
                < n_per_key
            return df[keep.to_numpy()]
        return cap

    if pre_salt and pre_salt > 1:
        k = np.uint64(pre_salt)

        def add_salt(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            # salt by id hash (NOT the sample hash: decorrelate shard
            # membership from keep order)
            df["_salt"] = (sample_hash(
                df[id_col].to_numpy(np.int64), seed + 1) % k)\
                .astype(np.int64)
            return df

        phase1 = grouped_map(
            ds.map_batches(add_salt, batch_format="pandas"),
            [key_col, "_salt"], cap_fn([key_col, "_salt"]))
        phase1 = phase1.drop_columns(["_salt"])
        return grouped_map(phase1, key_col, cap_fn(key_col))

    return grouped_map(ds, key_col, cap_fn(key_col))


def mixture_sample(ds, id_col: str, group_col: str, rates: dict,
                   default_rate: float = 1.0, seed: int = 0):
    """Data-MIXING resample: keep a deterministic per-group fraction —
    ``rates[group]`` for listed groups, ``default_rate`` otherwise (e.g.
    downweight a crawl source to 10%, keep curated sources whole). The
    keep decision is the same pure splitmix64(id ^ seed) function as
    ``bernoulli_sample`` with a per-row threshold looked up from the
    group, so re-runs and the SQL oracle agree row-for-row, and one
    document keeps/drops CONSISTENTLY across pipeline stages that reuse
    the seed. Stateless per-batch filter — no shuffle; the rates dict is
    tiny (one entry per source) and rides the task closure."""
    for g, p in rates.items():
        if not 0.0 <= float(p) <= 1.0:
            raise ValueError(f"rate for group {g!r} must be in [0, 1]")
    thr = {g: np.uint64(min(bernoulli_threshold(float(p)), (1 << 64) - 1))
           for g, p in rates.items()}
    dflt = np.uint64(min(bernoulli_threshold(float(default_rate)),
                         (1 << 64) - 1))
    full = {g: float(p) >= 1.0 for g, p in rates.items()}
    dflt_full = float(default_rate) >= 1.0

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        from .grouped import typed_or_empty
        h = sample_hash(df[id_col].to_numpy(np.int64), seed)
        t = df[group_col].map(thr).fillna(dflt).to_numpy(np.uint64)
        is_full = (df[group_col].map(full).fillna(dflt_full)
                   .to_numpy(bool))
        return typed_or_empty(df[is_full | (h < t)])

    return ds.map_batches(keep, batch_format="pandas")


def epoch_shuffle(ds, id_col: str, epoch: int,
                  out_col: str = "shuffle_pos"):
    """Deterministic global training-epoch shuffle: every row gets a
    1-based position under the pseudorandom permutation ``order by
    (splitmix64(id XOR seed_mix(epoch)), id)`` — rerunning the same
    (corpus, epoch) reproduces the exact order, different epochs
    decorrelate, and downstream shard packing (``pack_by_budget``) can
    consume the position column directly.

    Scale shape: the hash is a stateless per-batch map; the position is
    the prefix-scan :func:`~capelinker_ray.stages.scan.row_number` (one
    distributed sort — the unavoidable all-to-all of a true global
    shuffle — plus a #blocks-scalar scan; no driver materialization)."""
    import pyarrow as pa

    from .scan import row_number

    def add_key(t: pa.Table) -> pa.Table:
        # Arrow in/out (zero-copy from the read, no pandas metadata on
        # the sort's blocks); Arrow sorts uint64 natively so the hash
        # ships at full 64-bit width
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = sample_hash(ids, epoch)
        return t.append_column("_ekey", pa.array(h, pa.uint64()))

    out = row_number(ds.map_batches(add_key, batch_format="pyarrow"),
                     order_by=["_ekey", id_col], out_col=out_col)
    return out.drop_columns(["_ekey"])
