"""Windowed / sessionized aggregates over event streams.

The reference has no streaming semantics (SURVEY §2.11); these are the
engine's own windowed operators for the ``events`` table shape
(event_id, ts, user_id, event_type, value, props):

  sessionize          gap-based sessions per user: one groupby(user_id)
                      shuffle, in-group sort + cumulative gap counter
                      (vectorized); emits per-event session ids
  session_stats       per-session aggregate (count, span, value sum)
  tumbling_window_agg per (user, fixed window) aggregate — computed with a
                      partial-aggregation combiner inside map_batches and
                      ONE small groupby over (user, window) partials, never
                      shuffling raw events
"""

from __future__ import annotations

import numpy as np
import pandas as pd
__all__ = ["sessionize", "session_stats", "tumbling_window_agg",
           "hopping_window_agg", "asof_join", "interval_join",
           "funnel", "resample_ffill", "event_transitions"]


def _ts_us(s: pd.Series) -> np.ndarray:
    """Timestamp column -> int64 MICROseconds regardless of pandas unit
    (parquet reads arrive as datetime64[us], hand-built frames as [ns])."""
    return (pd.to_datetime(s).astype("datetime64[ns]").astype("int64")
            .to_numpy() // 1000)


def sessionize(ds, *, user_col: str = "user_id", ts_col: str = "ts",
               gap_minutes: float = 30.0):
    """+ ``session_idx`` (0-based per user) and ``session_id`` (user#idx)."""
    gap_us = np.int64(gap_minutes * 60e6)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        """Coarse partition of many complete users (stages/grouped.py):
        one sort + fully vectorized gap/cumsum across all users."""
        if not len(df):
            df = df.copy()
            df["session_idx"] = pd.Series(dtype=np.int64)
            df["session_id"] = pd.Series(dtype=object)
            return df
        df = df.sort_values([user_col, ts_col], kind="stable").copy()
        ts = _ts_us(df[ts_col])
        users = df[user_col].to_numpy()
        new = np.ones(len(df), dtype=bool)
        new[1:] = (users[1:] != users[:-1]) | ((ts[1:] - ts[:-1]) > gap_us)
        sess_global = np.cumsum(new)
        first = (pd.Series(sess_global).groupby(users).transform("min")
                 .to_numpy())
        idx = sess_global - first
        df["session_idx"] = idx.astype(np.int64)
        df["session_id"] = (df[user_col].astype(str) + "#" +
                            pd.Series(idx, index=df.index).astype(str))
        return df

    from .grouped import grouped_map
    return grouped_map(ds, user_col, per_partition)


def session_stats(ds_sessionized, *, user_col: str = "user_id",
                  ts_col: str = "ts", value_col: str = "value"):
    """Per-session aggregates over a sessionized dataset."""
    from .grouped import grouped_map

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("session_id", sort=False)
                .agg(n_events=(value_col, "size"),
                     ts_start=(ts_col, "min"),
                     ts_end=(ts_col, "max"),
                     value_sum=(value_col, "sum"))
                .reset_index())
    return grouped_map(ds_sessionized, "session_id", agg)


def tumbling_window_agg(ds, *, user_col: str = "user_id",
                        ts_col: str = "ts", value_col: str = "value",
                        window_minutes: float = 60.0):
    """Per (user, window) count/sum with in-batch partial aggregation:
    raw events never cross the shuffle — only one partial row per
    (user, window) per batch does (SURVEY §4 'pre-aggregate before
    groupby')."""
    win_us = np.int64(window_minutes * 60e6)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = (_ts_us(df[ts_col]) // win_us).astype(np.int64)
        out = (df.assign(window=w)
               .groupby([user_col, "window"], sort=False)
               .agg(n_events=(value_col, "size"),
                    value_sum=(value_col, "sum"))
               .reset_index())
        return out

    partials = ds.map_batches(partial, batch_format="pandas")

    from .grouped import grouped_map

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby([user_col, "window"], sort=False)
                .agg(n_events=("n_events", "sum"),
                     value_sum=("value_sum", "sum"))
                .reset_index())
    return grouped_map(partials, [user_col, "window"], combine)


def hopping_window_agg(ds, *, key_col: str = "event_type",
                       ts_col: str = "ts", value_col: str = "value",
                       window_minutes: float = 60.0,
                       hop_minutes: float = 15.0):
    """Per (key, sliding window) count/sum: windows of ``window_minutes``
    starting every ``hop_minutes`` (hop must divide the window). An event
    at time t lands in the windows whose start k*hop satisfies
    k*hop <= t < k*hop + window — exactly window/hop of them.

    Distributed shape mirrors :func:`tumbling_window_agg` with a bounded
    fan-out: each batch replicates its rows window/hop times VECTORIZED
    (np.repeat + per-copy k offsets), pre-aggregates to one partial row
    per (key, window) per batch, and only those partials shuffle. Window
    identity is ``window_start_us`` (int64 epoch microseconds, = k*hop).

    Timestamps are assumed >= window size after the epoch (true for any
    real event stream) so floor and truncating division agree — the DuckDB
    oracle uses ``//`` which truncates toward zero."""
    win_us = np.int64(window_minutes * 60e6)
    hop_us = np.int64(hop_minutes * 60e6)
    if win_us % hop_us:
        raise ValueError("hop_minutes must divide window_minutes "
                         f"({hop_minutes} vs {window_minutes})")
    copies = int(win_us // hop_us)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(df[ts_col])
        k_hi = ts // hop_us                     # last window containing t
        n = len(df)
        # k vector for all copies: k_hi - c for c in 0..copies-1
        k = np.repeat(k_hi, copies) - np.tile(
            np.arange(copies, dtype=np.int64), n)
        pos = np.repeat(np.arange(n, dtype=np.int64), copies)
        out = pd.DataFrame({
            key_col: df[key_col].to_numpy()[pos],
            "window_start_us": k * hop_us,
            "_v": df[value_col].to_numpy(np.float64)[pos]})
        return (out.groupby([key_col, "window_start_us"], sort=False)
                .agg(n_events=("_v", "size"), value_sum=("_v", "sum"))
                .reset_index())

    partials = ds.map_batches(partial, batch_format="pandas")

    from .grouped import grouped_map

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby([key_col, "window_start_us"], sort=False)
                .agg(n_events=("n_events", "sum"),
                     value_sum=("value_sum", "sum"))
                .reset_index())
    return grouped_map(partials, [key_col, "window_start_us"], combine)


def asof_join(left, right, *, by: str, ts_col: str = "ts",
              right_cols: list[str] | None = None, suffix: str = "_r",
              bucket_minutes: float | None = None):
    """Per-key as-of join: each left row picks the LATEST right row with
    ``right.ts <= left.ts`` for the same ``by`` key (DuckDB/kdb ASOF JOIN
    semantics, "backward" direction). Unmatched left rows keep nulls.

    Distributed shape: ONE co-partitioning shuffle of the tagged union by
    ``by`` (stages/grouped.py), then a vectorized ``pandas.merge_asof``
    per coarse partition — the default partitioning assumption is that one
    key's rows fit a partition (same contract as every grouped op here).
    Right-side ties on (key, ts) resolve to the row latest in (ts,
    right_cols) sort order; pre-aggregate the right side to unique
    (key, ts) rows for fully deterministic output.

    ``bucket_minutes`` lifts the one-key-per-partition assumption for HOT
    keys (r2 verdict next-round #7): rows co-partition by ``(key,
    time-bucket)`` and each bucket additionally receives ONE carry-in row
    per key — the latest right row from any earlier bucket — computed from
    per-(key, bucket) summaries (rows ∝ distinct buckets, not events), so
    a key's rows split across partitions while every bucket still answers
    its backward lookups locally. Output is identical to the unbucketed
    mode (pytest-pinned).
    """
    import pyarrow as pa
    from .grouped import grouped_map

    if right_cols is None:
        right_cols = [c for c in right.schema().names
                      if c not in (by, ts_col)]
    lcols = list(left.schema().names)
    # right value/ts columns land suffixed in the output
    r_out = {c: c + suffix if c in lcols else c for c in right_cols}
    r_out_ts = ts_col + suffix

    def _types(ds):
        s = ds.schema()
        return {n: (t if isinstance(t, pa.DataType) else pa.string())
                for n, t in zip(s.names, s.types)}

    ltypes = _types(left)
    rtypes = _types(right)
    # unified tagged schema: left cols + suffixed right ts/value cols
    fields = ([(c, ltypes[c]) for c in lcols]
              + [(r_out_ts, rtypes[ts_col])]
              + [(r_out[c], rtypes[c]) for c in right_cols]
              + [("_aside", pa.int8())])
    schema = pa.schema(fields)

    def tag_left(t: pa.Table) -> pa.Table:
        n = len(t)
        arrays = [t[c].cast(typ) if c in t.column_names else
                  pa.nulls(n, typ) for c, typ in fields[:-1]]
        arrays.append(pa.array(np.zeros(n, np.int8)))
        return pa.table(dict(zip([f[0] for f in fields], arrays)),
                        schema=schema)

    def tag_right(t: pa.Table) -> pa.Table:
        n = len(t)
        src = {r_out_ts: ts_col, **{v: k for k, v in r_out.items()},
               by: by}
        arrays = []
        for c, typ in fields[:-1]:
            s = src.get(c)
            if s is not None and s in t.column_names:
                arrays.append(t[s].cast(typ))
            else:
                arrays.append(pa.nulls(n, typ))
        arrays.append(pa.array(np.ones(n, np.int8)))
        return pa.table(dict(zip([f[0] for f in fields], arrays)),
                        schema=schema)

    tagged = (left.map_batches(tag_left, batch_format="pyarrow")
              .union(right.select_columns([by, ts_col] + right_cols)
                     .map_batches(tag_right, batch_format="pyarrow")))

    out_cols = lcols + [r_out_ts] + [r_out[c] for c in right_cols]
    group_key: list | str = by

    if bucket_minutes is not None:
        bucket_us = np.int64(bucket_minutes * 60e6)
        r_vals = list(r_out.values())

        def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
            ts = df[ts_col].where(df["_aside"] == 0, df[r_out_ts])
            df = df.copy()
            # null ts -> iNaT bucket: unmatched left rows / never-matching
            # right rows, handled by join_partition's null split
            df["_bucket"] = (_ts_us(ts) // bucket_us).astype(np.int64)
            return df

        tagged = tagged.map_batches(add_bucket, batch_format="pandas")

        # carry-in rows: per (key, left-bucket), the latest right row from
        # any EARLIER bucket. Built from per-batch (key, bucket) partials —
        # rows ∝ distinct buckets per batch, not events — then one
        # grouped_map per key; merge_asof(backward, exact=False) over the
        # bucket axis picks the latest nonempty earlier bucket's summary.
        def partial_rsum(df: pd.DataFrame) -> pd.DataFrame:
            r = df[df["_aside"] == 1]
            if not len(r):
                return r
            r = r.sort_values([by, "_bucket", r_out_ts] + r_vals,
                              kind="stable")
            return r.groupby([by, "_bucket"], sort=False).tail(1)

        def partial_lmark(df: pd.DataFrame) -> pd.DataFrame:
            l = df[df["_aside"] == 0]
            if not len(l):
                return l
            return l.groupby([by, "_bucket"], sort=False).head(1)

        def carry_fn(part: pd.DataFrame) -> pd.DataFrame:
            l = part[part["_aside"] == 0][[by, "_bucket"]].drop_duplicates()
            r = part[part["_aside"] == 1]
            if not len(l) or not len(r):
                return part.head(0)
            l = l.sort_values("_bucket", kind="stable")
            r = r.sort_values(["_bucket", r_out_ts] + r_vals, kind="stable")
            m = pd.merge_asof(l, r, on="_bucket", by=by,
                              direction="backward",
                              allow_exact_matches=False)
            m = m[m[r_out_ts].notna()]
            return m.reindex(columns=list(part.columns))

        summaries = tagged.map_batches(partial_rsum, batch_format="pandas")
        lmarks = tagged.map_batches(partial_lmark, batch_format="pandas")
        carries = grouped_map(summaries.union(lmarks), by, carry_fn)
        tagged = tagged.union(carries)
        group_key = [by, "_bucket"]

    def join_partition(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["_aside"] == 0][lcols]
        r = g[g["_aside"] == 1][[by, r_out_ts] + list(r_out.values())]
        # merge_asof raises on null on-keys; null-ts left rows are simply
        # unmatched (DuckDB ASOF LEFT semantics), null-ts right rows can
        # never match
        l_na = l[l[ts_col].isna()]
        l = l[l[ts_col].notna()].sort_values(ts_col, kind="stable")
        r = (r[r[r_out_ts].notna()]
             .sort_values([r_out_ts] + list(r_out.values()),
                          kind="stable"))
        out = pd.merge_asof(l, r, left_on=ts_col, right_on=r_out_ts,
                            by=by, direction="backward")
        if len(l_na):
            out = pd.concat([out, l_na], ignore_index=True)
        return out.reindex(columns=out_cols)

    return grouped_map(tagged, group_key, join_partition)


def interval_join(points, intervals, *, by: str, ts_col: str = "ts",
                  start_col: str = "start", end_col: str = "end",
                  suffix: str = "_iv",
                  bucket_minutes: float | None = None,
                  max_span_buckets: int = 4096):
    """Per-key point-in-interval join (SQL range join): one output row per
    (point, interval) pair with the same ``by`` key and
    ``start <= ts <= end`` (both ends inclusive). Inner semantics —
    unmatched points drop. An operator Ray Data has no primitive for;
    DuckDB expresses it as ``JOIN ... ON key AND ts BETWEEN start AND end``.

    Distributed shape: tagged union of the two sides, ONE co-partitioning
    shuffle, vectorized pandas merge + mask per coarse partition. The
    default assumes one key's rows fit a partition (the grouped_map
    contract shared by asof_join / grouped_quantiles).

    ``bucket_minutes`` is the HOT-KEY scale path: rows co-partition by
    ``(key, time-bucket)`` — each point lands in exactly ONE bucket while
    each interval is REPLICATED to every bucket it overlaps (fan-out
    bounded by ``max_span_buckets``; intervals spanning more raise), so a
    key's rows split across partitions and every match is still found
    exactly once (in the point's bucket). Output identical to the
    unbucketed mode (pytest-pinned).
    """
    import pyarrow as pa

    from .grouped import grouped_map, typed_or_empty

    pcols = [c for c in points.schema().names if c not in (by,)]
    ivcols = [c for c in intervals.schema().names
              if c not in (by, start_col, end_col)]
    iv_out = {c: c + suffix if c in pcols or c == ts_col else c
              for c in ivcols}

    def _types(ds):
        s = ds.schema()
        return {n: (t if isinstance(t, pa.DataType) else pa.string())
                for n, t in zip(s.names, s.types)}

    ptypes, itypes = _types(points), _types(intervals)
    fields = ([(by, ptypes[by])] + [(c, ptypes[c]) for c in pcols]
              + [(start_col, itypes[start_col]),
                 (end_col, itypes[end_col])]
              + [(iv_out[c], itypes[c]) for c in ivcols]
              + [("_side", pa.int8())])
    schema = pa.schema(fields)
    names = [f[0] for f in fields]

    def tag(side: int, src_map: dict):
        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            arrays = []
            for c, typ in fields[:-1]:
                s = src_map.get(c, c)
                arrays.append(t[s].cast(typ) if s in t.column_names
                              else pa.nulls(n, typ))
            arrays.append(pa.array(np.full(n, side, np.int8)))
            return pa.table(dict(zip(names, arrays)), schema=schema)
        return fn

    tagged = (points.map_batches(
                  tag(0, {start_col: None, end_col: None}),
                  batch_format="pyarrow")
              .union(intervals.map_batches(
                  tag(1, {v: k for k, v in iv_out.items()}),
                  batch_format="pyarrow")))

    out_cols = [by] + pcols + [start_col, end_col] \
        + [iv_out[c] for c in ivcols]
    group_key: list | str = by

    if bucket_minutes is not None:
        bucket_us = np.int64(bucket_minutes * 60e6)

        def add_bucket(df: pd.DataFrame):
            pts = df["_side"] == 0
            p = df[pts]
            iv = df[~pts]
            frames = []
            if len(p):
                pb = p.assign(
                    _bucket=(_ts_us(p[ts_col]) // bucket_us)
                    .astype(np.int64))
                frames.append(pb)
            if len(iv):
                b0 = _ts_us(iv[start_col]) // bucket_us
                b1 = _ts_us(iv[end_col]) // bucket_us
                span = (b1 - b0 + 1).astype(np.int64)
                if (span > max_span_buckets).any():
                    raise ValueError(
                        f"interval spans > {max_span_buckets} buckets; "
                        "raise bucket_minutes or max_span_buckets")
                rep = iv.loc[iv.index.repeat(span)].reset_index(drop=True)
                offs = np.concatenate(
                    [np.arange(s) for s in span]) if len(span) else \
                    np.array([], np.int64)
                rep["_bucket"] = np.repeat(b0, span) + offs
                frames.append(rep)
            if not frames:
                out = df.assign(_bucket=np.array([], np.int64))
                return typed_or_empty(out)
            return pd.concat(frames, ignore_index=True)

        tagged = tagged.map_batches(add_bucket, batch_format="pandas")
        group_key = [by, "_bucket"]

    # the tagged union promotes int columns to float (each side's rows are
    # null on the other side's columns); the inner join leaves no nulls,
    # so restore the declared integer/bool dtypes on the way out
    int_cols = {c: t for c, t in fields[:-1]
                if pa.types.is_integer(t) or pa.types.is_boolean(t)}

    def join_partition(g: pd.DataFrame) -> pd.DataFrame:
        on = [by] if isinstance(group_key, str) else list(group_key)
        pts = g["_side"] == 0
        p = g.loc[pts, on + pcols]
        iv = g.loc[~pts, on + [start_col, end_col]
                   + [iv_out[c] for c in ivcols]]
        m = p.merge(iv, on=on, how="inner")
        m = m[(m[start_col] <= m[ts_col]) & (m[ts_col] <= m[end_col])]
        m = m.reindex(columns=out_cols)
        for c, t in int_cols.items():
            if c in m.columns and m[c].notna().all():
                m[c] = m[c].astype(t.to_pandas_dtype())
        return typed_or_empty(m)

    return grouped_map(tagged, group_key, join_partition)


def funnel(ds, steps, *, user_col: str = "user_id", ts_col: str = "ts",
           type_col: str = "event_type"):
    """Ordered-sequence (funnel) match per user: the earliest completion
    of ``steps[0]`` then ``steps[1]`` STRICTLY after it, and so on — the
    classic first-touch conversion funnel. Emits one row per user with
    ``steps_completed`` and the timestamp of each completed step
    (``t1..tk``, null once the funnel stalls).

    ONE co-partitioning shuffle by user; inside each coarse partition a
    bounded loop over the k steps, each step one vectorized
    filter + groupby-min + aligned compare across ALL users of the
    partition — no per-user Python. SQL twin: k chained
    min-after-previous CTEs (see ``sql_funnel`` in pipelines/queries.py).
    """
    steps = list(steps)
    if not steps:
        raise ValueError("need at least one funnel step")

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        users = pd.Index(df[user_col].unique(), name=user_col)
        cols: dict = {}
        if not len(df):
            out = pd.DataFrame({user_col: df[user_col]})
            out["steps_completed"] = pd.Series(dtype=np.int64)
            for i in range(len(steps)):
                out[f"t{i + 1}"] = pd.Series(dtype="datetime64[us]")
            return out
        ts = pd.to_datetime(df[ts_col]).astype("datetime64[us]")
        # prev: per-user ts of the previous step (NaT = user dropped out);
        # step 0 compares against -inf, i.e. the plain per-user min
        prev = pd.Series(pd.NaT, index=users, dtype="datetime64[us]")
        for i, step in enumerate(steps):
            mask = (df[type_col] == step).to_numpy()
            sub_u = df[user_col].to_numpy()[mask]
            sub_t = ts.to_numpy()[mask]
            if i > 0:
                bar = prev.reindex(sub_u).to_numpy()
                ok = ~pd.isna(bar) & (sub_t > bar)
                sub_u, sub_t = sub_u[ok], sub_t[ok]
            t_i = (pd.Series(sub_t)
                   .groupby(sub_u, sort=False).min()
                   .reindex(users))
            cols[f"t{i + 1}"] = t_i
            prev = t_i
        out = pd.DataFrame(index=users).reset_index()
        done = np.zeros(len(users), dtype=np.int64)
        for i in range(len(steps)):
            out[f"t{i + 1}"] = cols[f"t{i + 1}"].to_numpy()
            done += (~pd.isna(out[f"t{i + 1}"])).to_numpy()
        out.insert(1, "steps_completed", done)
        return out

    from .grouped import grouped_map
    return grouped_map(ds, user_col, per_partition)


def resample_ffill(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                   value_col: str = "value", every_s: float = 86400.0,
                   tiebreak_col: str | None = None):
    """Per-key regular-grid resample with forward fill: for every key,
    grid points at epoch-aligned multiples of ``every_s`` spanning the
    key's [min ts, max ts], each carrying the LAST observed value at or
    before the grid instant — the gap-fill step before any per-entity
    time-series modeling. Multiple observations at one (key, ts) are
    collapsed to the ``tiebreak_col``-max row first (deterministic).

    ONE co-partitioning shuffle; within a partition the events and the
    generated grid rows are merged with one stable sort + one grouped
    ``ffill`` — fully vectorized across all keys, no per-key Python loop.
    SQL twin: per-key generate_series + ASOF JOIN.
    """
    every_us = np.int64(round(every_s * 1e6))
    if every_us <= 0:
        raise ValueError("every_s must be positive")

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        out_cols = [key_col, "grid_ts", value_col]
        if not len(df):
            return pd.DataFrame({key_col: df[key_col],
                                 "grid_ts": pd.Series(
                                     dtype="datetime64[us]"),
                                 value_col: pd.Series(dtype=np.float64)})
        df = df[[key_col, ts_col, value_col,
                 *([tiebreak_col] if tiebreak_col else [])]].copy()
        df["_us"] = _ts_us(df[ts_col])
        if tiebreak_col:
            df = df.sort_values([key_col, "_us", tiebreak_col],
                                kind="stable")
        else:
            df = df.sort_values([key_col, "_us"], kind="stable")
        df = df[~df.duplicated(subset=[key_col, "_us"], keep="last")]

        # per-key grid bounds (bucket indexes, epoch-aligned)
        g = df.groupby(key_col, sort=False)["_us"]
        lo = g.min() // every_us
        hi = g.max() // every_us
        n = (hi - lo + 1).to_numpy(np.int64)
        keys = np.repeat(lo.index.to_numpy(), n)
        # offsets trick: within-key arange without a Python loop
        step = np.arange(n.sum(), dtype=np.int64) - np.repeat(
            np.cumsum(n) - n, n)
        grid_us = (np.repeat(lo.to_numpy(np.int64), n) + step) * every_us

        ev = pd.DataFrame({key_col: df[key_col].to_numpy(),
                           "_us": df["_us"].to_numpy(),
                           value_col: df[value_col].to_numpy(),
                           "_grid": False})
        gr = pd.DataFrame({key_col: keys, "_us": grid_us,
                           value_col: np.nan, "_grid": True})
        both = pd.concat([ev, gr], ignore_index=True)
        # events sort BEFORE grid rows at equal ts (ts <= t inclusive)
        both = both.sort_values([key_col, "_us", "_grid"], kind="stable")
        both[value_col] = both.groupby(key_col, sort=False)[
            value_col].ffill()
        out = both[both["_grid"]]
        return pd.DataFrame({
            key_col: out[key_col].to_numpy(),
            "grid_ts": pd.to_datetime(out["_us"].to_numpy(), unit="us"),
            value_col: out[value_col].to_numpy(np.float64)})[out_cols]

    from .grouped import grouped_map
    return grouped_map(ds, key_col, per_partition)


def event_transitions(ds, *, user_col: str = "user_id",
                      ts_col: str = "ts", type_col: str = "event_type",
                      id_col: str = "event_id"):
    """First-order Markov transition counts over each user's timeline:
    Dataset[(prev_type, next_type, n)] counting every consecutive
    (event[i] -> event[i+1]) pair per user, ordered by (ts, id) — the
    behavioral-sequence summary behind funnel diagnostics and
    next-action models.

    ONE co-partitioning shuffle by user; within a partition the lag is a
    single vectorized grouped ``shift`` (no per-user loop) and each
    partition collapses to at most k x k transition rows (k = event-type
    cardinality), merged via fixed-width partials in ONE task
    (low-cardinality contract of stages/agg.small_group_sum)."""
    from .grouped import grouped_map

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"prev_type": pd.Series(dtype=object),
                                 "next_type": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        df = df.sort_values([user_col, ts_col, id_col], kind="stable")
        prev = df.groupby(user_col, sort=False)[type_col].shift(1)
        ok = prev.notna().to_numpy()
        sub = pd.DataFrame({"prev_type": prev.to_numpy(object)[ok],
                            "next_type": df[type_col].to_numpy(object)[ok]})
        out = (sub.groupby(["prev_type", "next_type"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    parts = grouped_map(ds, user_col, per_part)
    from .agg import small_group_sum
    return small_group_sum(parts, ["prev_type", "next_type"], ["n"])
