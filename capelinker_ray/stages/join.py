"""Equi-joins: ``hash_join`` (the engine's one join) and ``broadcast_join``.

The reference's only join is data.table ``merge`` with ``_from``/``_to``
suffixes (reference R/candidates.R:127-132). Ray 2.49 ships a native
``Dataset.join``, but its hash-shuffle aggregator raises ``ArrowInvalid`` as
soon as a partition receives rows on one side only (empty pyarrow tables
lose their schema before acero sees them — observed on any input with >2
partitions).

``hash_join`` alone decides how a join runs. It materializes the projected
right side once and reads its Arrow size:

* at most ``BROADCAST_MAX_BYTES`` (128 MiB) and ``how`` not "outer": the
  right side is collected, its null keys dropped, and one copy is
  ``ray.put``; every worker process indexes it once (``_worker_cached``)
  and each left batch is one vectorized probe plus Arrow ``take`` — no
  shuffle, and the left rows never move;
* otherwise a tagged union of both sides runs through the hash-partitioned
  ``groupby(key).map_groups`` shuffle — the primitive the blocking stage
  co-partitions with (stages/blocking.py), so the engine leans on a single
  well-tested shuffle path.

Both paths return the same rows under one Arrow schema (keys, left values,
right values). On the synthetic transcript corpus 128 MiB holds about 4.8M
(conv_id, entity_id) rows (28 B/row), about 960k pair-attribute records
(139 B/row), or 16M int64 removal ids; the per-caller row gates it
replaces were 5M entity-map rows, 500k records and 5M removal ids.

``broadcast_join`` is the public pandas-semantics variant for a right side
already in driver memory.

Caveat (shuffle path only): the tagged union null-pads each side's value
columns, and pandas represents nullable int64 as float64 — int values above
2^53 (hashes, signatures) lose their low bits in transit. Ship such
payloads as fixed-size BINARY (see stages/dedup._pack_rows) or as strings.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

__all__ = ["hash_join", "broadcast_join", "collect_arrow",
           "BROADCAST_MAX_BYTES"]

# projected right sides up to this many Arrow bytes are broadcast instead
# of shuffled (module docstring)
BROADCAST_MAX_BYTES = 128 << 20

_SIDE = "__jside"


def _arrow_types(schema) -> dict[str, pa.DataType]:
    return {n: (t if isinstance(t, pa.DataType) else pa.string())
            for n, t in zip(schema.names, schema.types)}


def collect_arrow(ds, schema: pa.Schema) -> pa.Table:
    """Collect a small Dataset to the driver as ONE Arrow table with
    ``schema``'s columns and types. Arrow blocks come through plasma
    (zero-copy, C++ concat — no per-value pandas materialization; pandas
    blocks are converted); empty blocks are dropped, the concat is
    permissive (per-block pandas->Arrow conversion can type an all-null
    column as null in one block and string in another), and a zero-block
    Dataset yields a typed empty table. A schema column that no non-empty
    block holds comes back all-null: Ray 2.49 reports the input's columns
    for ``select_columns`` over a union with a typed empty table (the
    projection skips that branch), as on a hash_join output."""
    blocks = [b if isinstance(b, pa.Table)
              else pa.Table.from_pandas(b, preserve_index=False)
              for b in ray.get(ds.to_arrow_refs()) if len(b)]
    if not blocks:
        return schema.empty_table()
    return _project(pa.concat_tables(blocks, promote_options="permissive"),
                    {n: n for n in schema.names}, schema)


def _valid_keys(t: pa.Table, keys: list[str]):
    """Null join keys never match (SQL semantics) AND break Ray's sort
    shuffle ('<' vs NoneType) — both paths mask them out."""
    import pyarrow.compute as pc
    ok = pc.is_valid(t[keys[0]])
    for k in keys[1:]:
        ok = pc.and_(ok, pc.is_valid(t[k]))
    return ok


def _key_index(t: pa.Table, keys: list[str]):
    """pandas index over ``t``'s key columns (all non-null)."""
    cols = [t[k].to_numpy(zero_copy_only=False) for k in keys]
    if len(keys) == 1:
        return pd.Index(cols[0])
    return pd.MultiIndex.from_arrays(cols)


def _probe_structure(t: pa.Table, keys: list[str]):
    """Per-worker view of a broadcast right side: its distinct keys as a
    pandas index and, for distinct key ``i``, its rows' positions
    ``order[starts[i]:starts[i] + counts[i]]`` (duplicate keys fan out)."""
    codes, uniq = _key_index(t, keys).factorize(use_na_sentinel=False)
    if len(uniq):
        uniq.get_indexer(uniq[:1])  # prime the hash engine once
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=len(uniq))
    return t, uniq, order, counts, np.cumsum(counts) - counts


def hash_join(left, right, *, on: str | list[str], right_on=None,
              how: str = "inner", suffixes=("", "_r"),
              num_partitions: int | None = None):
    """Equi-join two Datasets. ``how`` in inner/left/outer/semi/anti
    (right join = ``hash_join(right, left, how="left")``).

    Right-side key columns are renamed onto the left names; non-key name
    collisions get ``suffixes``. Null keys never match. The output schema
    is the keys, then the left value columns, then the right ones, typed
    as in the inputs (right keys are cast to the left key types).

    ``semi``/``anti`` return LEFT columns only (SQL EXISTS / NOT EXISTS
    semantics: null left keys never match, so anti retains them). The right
    side is projected to its key columns first; on the shuffle path it is
    also per-batch-deduplicated — a fact-table probe side (orders per
    customer) ships one row per distinct key per batch, not one per fact
    row.

    The (projected) right side is materialized once; broadcast or shuffle
    is chosen here from its size (``BROADCAST_MAX_BYTES``, module
    docstring); "outer" always shuffles.
    """
    if how not in ("inner", "left", "outer", "semi", "anti"):
        raise ValueError(
            "how must be 'inner', 'left', 'outer', 'semi' or 'anti'")
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))

    lschema = left.schema()
    if lschema is None:
        # zero rows and no known columns (Ray 2.49 drops the schema of an
        # all-empty result): nothing can join onto it
        return left
    ltypes = _arrow_types(lschema)
    keys_only = how in ("semi", "anti")     # keys are all that matters
    if keys_only:
        right = right.select_columns(right_on)
    pinned = right.materialize()
    # pinning a zero-row result drops its schema (Ray 2.49); the unpinned
    # plan may still know it (e.g. from a Parquet footer), else the keys
    # are all an empty right side can have
    rschema = pinned.schema()
    if rschema is None:
        rschema = right.schema()
    right = pinned
    rtypes = (_arrow_types(rschema) if rschema is not None else
              {rk: ltypes[k] for rk, k in zip(right_on, on)})
    if keys_only:
        # a pinned projection can still report its input's columns
        # (collect_arrow)
        rtypes = {c: rtypes[c] for c in right_on}
    rvals = [c for c in rtypes if c not in right_on]
    # disambiguate collisions on non-key value columns
    out_rvals = {c: c + suffixes[1] if c in ltypes else c for c in rvals}
    lvals = [c for c in ltypes if c not in on]
    out_schema = pa.schema(
        [(k, ltypes[k]) for k in on]
        + [(c, ltypes[c]) for c in lvals]
        + [(out_rvals[c], rtypes[c]) for c in rvals])
    # output column -> source column, per side
    lsrc = {c: c for c in on + lvals}
    rsrc = {**dict(zip(on, right_on)),
            **{out: c for c, out in out_rvals.items()}}

    spec = dict(how=how, on=on, right_on=right_on, lsrc=lsrc, rsrc=rsrc,
                out_schema=out_schema)
    if how == "outer" or right.size_bytes() > BROADCAST_MAX_BYTES:
        joined = _shuffle_join(left, right, num_partitions=num_partitions,
                               **spec)
    else:
        joined = _broadcast_probe(left, right, pa.schema(list(rtypes.items())),
                                  **spec)
    # pin the output schema even when EVERY row is filtered (e.g. all-null
    # keys) or the left has no blocks: a zero-block dataset loses its
    # schema in Ray 2.49 and downstream column access breaks
    import ray.data as rd
    return joined.union(rd.from_arrow(out_schema.empty_table()))


def _project(t: pa.Table, src: dict, schema: pa.Schema) -> pa.Table:
    """``schema``'s columns read from ``t`` (output name -> ``t`` column in
    ``src``) and cast; a column ``t`` does not supply is all-null."""
    return pa.table([t[src[f.name]].cast(f.type)
                     if src.get(f.name) in t.column_names
                     else pa.nulls(len(t), f.type) for f in schema],
                    schema=schema)


def _side_schema(out_schema: pa.Schema, src: dict) -> pa.Schema:
    return pa.schema([f for f in out_schema if f.name in src])


def _broadcast_probe(left, right, rschema, *, how, on, right_on, lsrc, rsrc,
                     out_schema):
    """Shuffle-free join against a small materialized right side: one copy
    in the object store, indexed once per worker process, one vectorized
    probe + Arrow ``take`` per left batch."""
    rtbl = collect_arrow(right, rschema)
    ref = ray.put(_project(rtbl.filter(_valid_keys(rtbl, right_on)), rsrc,
                           _side_schema(out_schema, rsrc)))
    lschema = _side_schema(out_schema, lsrc)
    rout = [n for n in out_schema.names if n not in lsrc]

    def probe(t: pa.Table) -> pa.Table:
        side, uniq, order, counts, starts = _worker_cached(
            ref, lambda tbl: _probe_structure(tbl, on))
        t = _project(t, lsrc, lschema)
        n = len(t)
        valid = np.asarray(_valid_keys(t, on), dtype=bool)
        code = np.full(n, -1, np.intp)
        if valid.any():
            code[valid] = uniq.get_indexer(
                _key_index(t.filter(pa.array(valid)), on))
        found = code >= 0
        if how in ("semi", "anti"):
            return t.filter(pa.array(found if how == "semi" else ~found))
        hits = np.zeros(n, np.int64)
        hits[found] = counts[code[found]]
        emit = np.maximum(hits, 1) if how == "left" else hits
        lrow = np.repeat(np.arange(n), emit)
        # the k-th output row of a left row takes its key's k-th right row
        k = np.arange(len(lrow)) - np.repeat(np.cumsum(emit) - emit, emit)
        first = np.zeros(n, np.int64)
        first[found] = starts[code[found]]
        matched = np.repeat(found, emit)
        rpos = np.zeros(len(lrow), np.int64)
        rpos[matched] = order[(np.repeat(first, emit) + k)[matched]]
        rt = side.select(rout).take(pa.array(rpos, mask=~matched))
        return pa.table(t.take(pa.array(lrow)).columns + rt.columns,
                        schema=out_schema)

    return left.map_batches(probe, batch_format="pyarrow")


def _shuffle_join(left, right, *, how, on, right_on, lsrc, rsrc, out_schema,
                  num_partitions):
    """Tagged union of both sides through one hash-partitioned shuffle;
    each coarse partition is joined by one vectorized pandas merge."""
    import pyarrow.compute as pc
    existence_only = how in ("semi", "anti")
    lcols = _side_schema(out_schema, lsrc).names
    rcols = _side_schema(out_schema, rsrc).names

    def tagger(keys, src, side: int):
        # one canonical arrow schema for the tagged union (uniform block
        # type — mixed pandas/arrow blocks break the sort-shuffle boundary
        # sampler)
        def tag(t: pa.Table) -> pa.Table:
            t = t.filter(_valid_keys(t, keys))
            if side and existence_only and len(t):
                # only key existence matters: dedupe within the batch so a
                # high-fanout probe side doesn't ship every fact row
                t = t.select(keys).group_by(keys).aggregate([])
            return _project(t, src, out_schema).append_column(
                pa.field(_SIDE, pa.int8()),
                pa.array(np.full(len(t), side, np.int8)))
        return tag

    tagged = (left.map_batches(tagger(on, lsrc, 0), batch_format="pyarrow")
              .union(right.map_batches(tagger(right_on, rsrc, 1),
                                       batch_format="pyarrow")))

    def join_partition(g: pd.DataFrame) -> pa.Table:
        """One COARSE hash partition (many complete key-groups): a single
        vectorized pandas merge joins every key at once — no per-key UDF
        calls (stages/grouped.py rationale)."""
        l = g[g[_SIDE] == 0][lcols]
        r = g[g[_SIDE] == 1][rcols]
        if existence_only:
            probe = l.merge(r.drop_duplicates(on), on=on, how="left",
                            indicator=True)
            keep = (probe["_merge"] == "both") if how == "semi" else \
                   (probe["_merge"] == "left_only")
            out = probe.loc[keep, lcols]
        else:
            out = l.merge(r, on=on, how=how)
        # pin the arrow schema: all-null partitions must not degrade types.
        # strip the from_pandas dict metadata — Ray's schema-dedup hash
        # chokes on it and logs a warning per block
        return pa.Table.from_pandas(
            out[out_schema.names], schema=out_schema,
            preserve_index=False).replace_schema_metadata(None)

    from .grouped import grouped_map
    joined = grouped_map(tagged, on, join_partition,
                         num_partitions=num_partitions)

    def null_keyed(keys, src):
        def fn(t: pa.Table) -> pa.Table:
            return _project(t.filter(pc.invert(_valid_keys(t, keys))), src,
                            out_schema)
        return fn

    if how in ("left", "outer", "anti"):
        # null-keyed left rows bypassed the shuffle: re-emit them — with
        # null right values (left/outer), or as-is (anti: a null key can
        # never satisfy EXISTS, so NOT EXISTS retains the row)
        joined = joined.union(left.map_batches(null_keyed(on, lsrc),
                                               batch_format="pyarrow"))
    if how == "outer":
        # null-keyed RIGHT rows too (SQL FULL OUTER retains both sides)
        joined = joined.union(right.map_batches(null_keyed(right_on, rsrc),
                                                batch_format="pyarrow"))
    return joined


# per-WORKER-PROCESS cache of deserialized + key-indexed broadcast sides.
# ray.get() of a pandas/arrow object re-materializes it on EVERY call (string
# columns are pickled, not plasma-zero-copy), and pandas merge rebuilds the
# right side's hash table per batch — at a 1M-row entity map × thousands of
# turn batches that was ~70 s of pure rework in the flagship tail. Worker
# processes are reused across tasks of a stage, so the first batch a worker
# sees pays the build and every later batch does an O(batch) probe.
_BCAST_CACHE: dict[str, tuple] = {}
_BCAST_CACHE_MAX = 4


def _worker_cached(ref, build):
    """``build(ray.get(ref))``, memoized per worker process by ref."""
    key = ref.hex()
    hit = _BCAST_CACHE.get(key)
    if hit is None:
        hit = build(ray.get(ref))
        if len(_BCAST_CACHE) >= _BCAST_CACHE_MAX:
            _BCAST_CACHE.pop(next(iter(_BCAST_CACHE)))
        _BCAST_CACHE[key] = hit
    return hit


def _bcast_lookup(right_ref, on: list[str]):
    def build(obj):
        rdf = obj.to_pandas() if isinstance(obj, pa.Table) else obj
        if len(on) == 1:
            idx = pd.Index(rdf[on[0]])
        else:
            idx = pd.MultiIndex.from_frame(rdf[on])
        unique = idx.is_unique
        if unique and len(idx):
            idx.get_indexer(idx[:1])  # prime the hash engine once
        return rdf, idx, unique, {}  # {} = lazily-filled numpy column cache
    return _worker_cached(right_ref, build)


def broadcast_join(left, right_df, *, on: str | list[str],
                   right_on=None, how: str = "left", suffixes=("", "_r")):
    """Shuffle-free join against a small in-memory right side: the frame is
    put in the object store ONCE (``ray.put``, as an Arrow table — string
    buffers ride plasma instead of being re-pickled) and every worker
    process indexes the shared copy ONCE (module cache above) — the
    reference's model-registry/broadcast-dict pattern (SURVEY §2.5
    uniformise_string) applied to joins.

    ``right_df``: pandas DataFrame or pyarrow Table. When the right keys are
    unique (the entity-map / dimension-table case) each batch is joined with
    one vectorized ``Index.get_indexer`` probe + positional take; duplicate
    right keys fall back to a per-batch pandas merge against the cached
    frame (merge semantics preserved, deserialization still amortized)."""
    if how not in ("inner", "left"):
        raise ValueError("how must be 'inner' or 'left'")
    on = [on] if isinstance(on, str) else list(on)
    right_on = on if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    rmap = dict(zip(right_on, on))
    if isinstance(right_df, pa.Table):
        right_df = right_df.rename_columns(
            [rmap.get(c, c) for c in right_df.column_names])
    else:
        right_df = pa.Table.from_pandas(
            right_df.rename(columns=rmap),
            preserve_index=False).replace_schema_metadata(None)
    # resolve collision names ONCE (left schema is known up front)
    lschema = left.schema()
    if lschema is None:
        # zero-block schema-less empty input (Ray 2.49): nothing to join
        # onto — the join of an empty left with anything is empty
        return left
    lcols = [n for n in lschema.names]
    rval_out = {c: (c + suffixes[1] if c in lcols else c)
                for c in right_df.column_names if c not in on}
    right_ref = ray.put(right_df)

    def join_batch(df: pd.DataFrame):
        from .grouped import typed_or_empty
        rdf, idx, unique, cols = _bcast_lookup(right_ref, on)
        if not unique:
            return typed_or_empty(
                df.merge(rdf, on=on, how=how, suffixes=suffixes))
        if len(on) == 1:
            probe = df[on[0]].to_numpy()
        else:
            probe = pd.MultiIndex.from_frame(df[on])
        pos = idx.get_indexer(probe)
        found = pos >= 0
        if how == "inner":
            df = df[found]
            pos = pos[found]
            found = None
        out = df.reset_index(drop=True)
        if len(rdf) == 0:
            if how == "inner":
                out = out.iloc[:0]
            for c, out_name in rval_out.items():
                out[out_name] = np.full(len(out), np.nan)
            return typed_or_empty(out)
        safe = pos if found is None else np.where(found, pos, 0)
        for c, out_name in rval_out.items():
            src = cols.get(c)
            if src is None:
                src = cols[c] = rdf[c].to_numpy()
            col = src[safe]
            if found is not None and not found.all():
                if col.dtype.kind in "iub":      # int/uint/bool can't hold NA
                    col = col.astype(
                        np.float64 if col.dtype.kind != "b" else object)
                else:
                    col = col.copy()
                # pandas-merge missing markers: NaT for datetimes/timedeltas
                col[~found] = (np.datetime64("NaT")
                               if col.dtype.kind in "Mm" else np.nan)
            out[out_name] = col
        return typed_or_empty(out)

    return left.map_batches(join_batch, batch_format="pandas")
