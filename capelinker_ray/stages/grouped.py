"""Coarse hash-partitioned grouping — the engine's high-cardinality groupby.

``Dataset.groupby(key).map_groups(fn)`` invokes ``fn`` once per DISTINCT
KEY, paying Ray's per-group block-slice + UDF-call + block-build overhead
(~1-3 ms). At 10^5-10^6 distinct keys that overhead alone is minutes —
regardless of data size. ``grouped_map`` instead hash-buckets keys into a
few COARSE partitions and hands ``fn`` a frame holding MANY complete
key-groups, which it processes with one vectorized pandas groupby. Same
co-partitioning guarantee (every row of a key lands in exactly one call),
~key-count/width fewer UDF calls. The partitions move in ONE boundary-sort
exchange.

One rule sets the width: ``shuffle_width`` of the input's row count, so a
few-hundred-row shuffle runs one reduce task, not a cluster-wide one.
Operators do not take a width. The two callers that pass one to
``grouped_map`` are blocking's pair exchange (``heavy_width``: quadratic
per-partition work) and distributed connected components (a fixed width
across its iterations).

All high-cardinality engine ops route through this: hash_join's per-key
merge, rank selection, LSH bucket pairing, blocking pair generation.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["grouped_map", "heavy_width", "key_hash", "shuffle_width",
           "typed_or_empty"]

_PART = "__gpart"


def key_hash(df: pd.DataFrame, keys: list[str]) -> np.ndarray:
    """Deterministic (cross-process) uint64 hash of the key tuple."""
    h = pd.util.hash_pandas_object(df[keys[0]], index=False).to_numpy()
    for k in keys[1:]:
        h2 = pd.util.hash_pandas_object(df[k], index=False).to_numpy()
        h = (h * np.uint64(0x9E3779B97F4A7C15)) ^ h2
    return h


def _cluster_cpus() -> int:
    try:
        import ray
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def default_partitions() -> int:
    """2× cluster CPUs (bounded): the widest a default shuffle gets."""
    return max(8, min(2 * _cluster_cpus(), 512))


# rows one reduce partition carries before a shuffle widens: each reduce
# task has a fixed cost (task launch, block build, schema unification), so
# a shuffle of a few hundred rows spread over 2x-CPUs partitions paid that
# cost per empty-ish partition (measured: a 199-conversation increment
# spent ~15 s of its ~30 s in such shuffles on a 4-vCPU host)
ROWS_PER_PARTITION = 4_096


def shuffle_width(n_rows: int, cap: int | None = None) -> int:
    """Reduce width of a shuffle carrying ``n_rows`` rows: one partition
    per ``ROWS_PER_PARTITION`` rows, at least 1, at most ``cap`` (default
    ``default_partitions()``)."""
    return max(1, min(cap or default_partitions(),
                      -(-n_rows // ROWS_PER_PARTITION)))


def heavy_width(n_rows: int, cap: int) -> int:
    """Reduce width of a shuffle whose per-partition work is super-linear
    in its rows (the blocking pair exchange, the pair feature kernels):
    ``shuffle_width(n_rows, cap)``, but never fewer partitions than cluster
    CPUs while there are rows to spread, so a small quadratic stage still
    runs on every CPU instead of one."""
    return max(shuffle_width(n_rows, cap), min(n_rows, _cluster_cpus(), cap))


def _typed_empty(df: pd.DataFrame):
    """Empty pandas frame -> typed empty Arrow table. Ray's pandas block
    size estimator np.vectorize-s object columns and logs an error line for
    every 0-row block; an Arrow empty with concrete types is silent. Object
    columns (strings-or-None throughout the engine's grouped frames) map to
    ``string`` — with zero rows the claim is vacuous for values and only
    anchors schema unification."""
    import pyarrow as pa
    fields = []
    for c, dt in df.dtypes.items():
        if dt == object:
            t = pa.string()
        elif getattr(dt, "kind", "") == "M":
            t = pa.timestamp(np.datetime_data(dt)[0])
        else:
            try:
                t = pa.from_numpy_dtype(dt)
            except (pa.ArrowNotImplementedError, TypeError):
                t = pa.string()
        fields.append(pa.field(str(c), t))
    return pa.schema(fields).empty_table()


def typed_or_empty(df: pd.DataFrame):
    """Pass nonempty frames through; convert empty ones to a typed Arrow
    table (see ``_typed_empty``). Wrap the return of filtering map_batches
    fns that can legitimately emit 0 rows."""
    if isinstance(df, pd.DataFrame) and not len(df):
        return _typed_empty(df)
    return df


def grouped_map(ds, keys: str | list[str], fn, *,
                num_partitions: int | None = None):
    """Apply ``fn(frame)`` to coarse hash partitions of complete key-groups.

    ``fn`` receives a pandas DataFrame containing every row of each key in
    its partition (the ``_PART`` helper column already stripped) and must
    handle multiple keys — typically via one vectorized
    ``frame.groupby(keys)``; it is never called with an empty frame.
    Returns the concatenated Dataset. ``num_partitions`` defaults to
    ``shuffle_width`` of the input's row count (the input is pinned to
    count it); only callers with a width rule of their own pass it
    (module docstring).
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    if num_partitions is None:
        # the sort below is an all-to-all that buffers its whole input
        # anyway: pinning it first adds no barrier, and makes the count
        # metadata-cheap
        ds = ds.materialize()
        num_partitions = shuffle_width(ds.count())

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        # assign = shallow copy (new frame, shared immutable column
        # buffers) — this map runs on EVERY batch of EVERY shuffle, and a
        # deep df.copy() here re-copied all payload columns engine-wide
        part = (key_hash(df, keys) % np.uint64(num_partitions)).astype(
            np.int64)
        return df.assign(**{_PART: part})

    def run(g: pd.DataFrame) -> object:
        out = fn(g.drop(columns=[_PART]))
        if isinstance(out, pd.DataFrame) and not len(out):
            return _typed_empty(out)
        import pyarrow as pa
        if isinstance(out, pa.Table) and out.schema.metadata:
            # fns that build their table via pa.Table.from_pandas carry the
            # pandas metadata dict -> unhashable schema in Ray's dedup
            # ('Failed to hash the schemas' worker warnings). Nonempty
            # pandas outputs stay pandas: forcing them to Arrow would pin
            # per-partition inferred types (an all-NaN left-join attr
            # partition infers double where string-bearing partitions
            # infer string) and break block unification.
            out = out.replace_schema_metadata(None)
        return out

    parted = ds.map_batches(add_part, batch_format="pandas")
    # ONE sort exchange: the partition ids are the known integers
    # 0..num_partitions-1, so they are the sort's explicit boundaries —
    # reducer i receives exactly partition i as one block, whatever the
    # input's block count, and no boundary-sampling round runs
    if num_partitions == 1:
        parted = parted.repartition(1)
    else:
        parted = parted.sort(_PART, boundaries=list(range(1, num_partitions)))

    def run_block(g: pd.DataFrame):
        # an empty reducer (no key hashed to it) emits no block at all
        if len(g):
            yield run(g)

    # batch_size=None: each block (= one complete partition) is one batch
    return parted.map_batches(run_block, batch_format="pandas",
                              batch_size=None)
