"""SQL set operations over Datasets: DISTINCT / INTERSECT / EXCEPT.

The reference's set ops are column-NAME sets (`prep.R:89-100`) and
`rbindlist` union-all; a data engine also needs the ROW-set operations.
Built on the two primitives the engine already trusts at scale:

  distinct_rows       one coarse hash-partitioned ``grouped_map`` on the
                      full column tuple — each distinct tuple lands in
                      exactly one partition, so a per-partition
                      ``drop_duplicates`` is globally exact
  intersect/except    ``distinct_rows`` of the left, then a semi/anti
                      ``hash_join`` on all columns (the probe side ships
                      per-batch-deduplicated key rows only)

UNION-all is ``ds.union``; UNION DISTINCT is ``distinct_rows(a.union(b))``.

Null caveat (documented divergence): SQL INTERSECT/EXCEPT compare rows
with IS NOT DISTINCT FROM (null == null), while these operators inherit
join-key semantics — a row containing a null in any compared column never
matches, so EXCEPT retains it and INTERSECT drops it. Rows without nulls
behave identically to SQL.
"""

from __future__ import annotations

import pandas as pd

from .grouped import grouped_map, typed_or_empty
from .join import hash_join

__all__ = ["distinct_rows", "intersect_distinct", "except_distinct",
           "union_distinct", "union_by_name"]


def _cols(ds, cols):
    return list(ds.schema().names) if cols is None else list(cols)


def distinct_rows(ds, cols: list | None = None):
    """Globally distinct rows over ``cols`` (default: all columns)."""
    cols = _cols(ds, cols)

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return typed_or_empty(g.drop_duplicates())

    # local pre-dedup shrinks the shuffle to <= distinct-per-batch rows
    local = ds.select_columns(cols).map_batches(
        lambda df: typed_or_empty(df.drop_duplicates()),
        batch_format="pandas")
    return grouped_map(local, cols, dedup)


def intersect_distinct(a, b, cols: list | None = None):
    """Distinct rows of ``a`` (over ``cols``) that also occur in ``b``."""
    cols = _cols(a, cols)
    return hash_join(distinct_rows(a, cols), b.select_columns(cols),
                     on=cols, how="semi")


def except_distinct(a, b, cols: list | None = None):
    """Distinct rows of ``a`` (over ``cols``) that do NOT occur in ``b``."""
    cols = _cols(a, cols)
    return hash_join(distinct_rows(a, cols), b.select_columns(cols),
                     on=cols, how="anti")


def union_distinct(a, b, cols: list | None = None):
    """Distinct rows of the concatenation (SQL UNION)."""
    cols = _cols(a, cols)
    return distinct_rows(a.select_columns(cols).union(
        b.select_columns(cols)), cols)


def union_by_name(*datasets):
    """UNION ALL BY NAME with schema evolution: columns are aligned by
    NAME across inputs (order = first appearance), missing columns
    null-filled with the column's first-seen Arrow type — the
    heterogenous-shard ingest shape (new corpus drops a field, adds
    another; the pipeline keeps streaming). Zero shuffle: one stateless
    pyarrow map per input; incompatible dtypes for a shared name raise at
    cast time rather than silently coercing."""
    import pyarrow as pa
    if not datasets:
        raise ValueError("need at least one dataset")
    def _arrow_type(typ):
        # pandas-block datasets report numpy dtypes; normalize to Arrow
        if isinstance(typ, pa.DataType):
            return typ
        import numpy as np
        dt = np.dtype(typ) if not hasattr(typ, "kind") else typ
        if getattr(dt, "kind", "O") == "O":
            return pa.string()
        if getattr(dt, "kind", "") == "M":
            return pa.timestamp(np.datetime_data(dt)[0])
        try:
            return pa.from_numpy_dtype(dt)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    target: list[tuple[str, pa.DataType]] = []
    seen: dict[str, pa.DataType] = {}
    for ds in datasets:
        sch = ds.schema()
        for name, typ in zip(sch.names, sch.types):
            if name not in seen:
                seen[name] = _arrow_type(typ)
                target.append((name, seen[name]))

    def align(t: pa.Table) -> pa.Table:
        cols = []
        for name, typ in target:
            if name in t.column_names:
                cols.append(t[name].cast(typ))
            else:
                cols.append(pa.nulls(len(t), typ))
        return pa.table(dict(zip((n for n, _ in target), cols)))

    out = None
    for ds in datasets:
        aligned = ds.map_batches(align, batch_format="pyarrow")
        out = aligned if out is None else out.union(aligned)
    return out
