"""Transitive clustering: distributed connected components + expand_index.

The reference's identity index is propagated one relaxation step at a time by
``expand_index`` (/root/reference/R/util.R:14-44) over (index,
index_candidate) columns; repeated rounds of linking + expand_index converge
to connected components. Here:

  * ``connected_components`` — the engine op: accepted links (id_from,
    id_to) -> (node, entity_id). Edge lists up to ``DRIVER_EDGE_MAX``
    close in a driver-side vectorized union-find; larger ones run
    iterative hash-min label propagation (each node adopts the min label
    in its neighborhood; iterate to fixpoint). Every iteration is ONE
    ``grouped_map`` shuffle of the (node, label) table at one fixed width
    (edges are pre-partitioned by src once); convergence is detected
    with a changed-count aggregate, no wall-clock reads. Iterations ~
    graph diameter — link graphs here are small star-ish families, so 2-3
    rounds; the hash-min scheme is the standard scalable CC on Ray-style
    shuffles (cf. PAPERS.md BTS/large-star-small-star for the adversarial
    long-path case).

  * ``expand_index`` — exact single-round parity with util.R:14-44 for the
    reference's fixture semantics, including its deliberate no-merge gap
    (conflicting groups untouched, util.R:38-41). Driver-side pandas.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from .join import collect_arrow, hash_join

__all__ = ["connected_components", "expand_index", "attach_entity_ids",
           "golden_records"]


_HM = np.uint64(0x9E3779B97F4A7C15)      # odd → bijective mod 2^64

# connected_components closes edge lists up to this size on the driver,
# larger ones with the distributed iteration
DRIVER_EDGE_MAX = 5_000_000
# round cap of the distributed iteration (pointer doubling converges in
# O(log diameter) rounds)
_MAX_ROUNDS = 50


def _rowhash_utf8(arr) -> np.ndarray:
    """Per-row 64-bit polynomial hash of a string column computed DIRECTLY
    on the Arrow buffers (offsets + UTF-8 data): h(row) = Σ (byte+1)·M^pos
    mixed with the row length — fully vectorized over the flat byte
    buffer, zero Python-object materialization."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = arr.cast(pa.large_string())     # int64 offsets, uniform path
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint64)
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], np.int64,
                        count=n + 1 + arr.offset)[arr.offset:]
    data = np.frombuffer(bufs[2], np.uint8)
    lo, hi = int(off[0]), int(off[-1])
    starts, ends = off[:-1] - lo, off[1:] - lo
    lens = ends - starts
    npos = hi - lo
    with np.errstate(over="ignore"):
        if npos:
            seg = data[lo:hi].astype(np.uint64)
            max_len = int(lens.max())
            ptab = np.full(max(max_len, 1), _HM, np.uint64)
            ptab[0] = np.uint64(1)
            ptab = np.cumprod(ptab)       # M^k mod 2^64 (wraps)
            pos_in_row = np.arange(npos, dtype=np.int64) - np.repeat(
                starts, lens)
            w = (seg + np.uint64(1)) * ptab[pos_in_row]
            csum = np.zeros(npos + 1, np.uint64)
            np.cumsum(w, out=csum[1:])
            raw = csum[ends] - csum[starts]
        else:
            raw = np.zeros(n, np.uint64)
        h = (raw ^ lens.astype(np.uint64)) * _HM
        h ^= h >> np.uint64(29)
    return h


def _sym_edges(ds_links, id_from: str, id_to: str):
    """links -> symmetric (src, dst) edge dataset (both directions)."""
    def sym(t: pa.Table) -> pa.Table:
        a = t[id_from].cast(pa.string()).combine_chunks()
        b = t[id_to].cast(pa.string()).combine_chunks()
        return pa.table({
            "src": pa.concat_arrays([a, b]),
            "dst": pa.concat_arrays([b, a]),
        })
    return ds_links.map_batches(sym, batch_format="pyarrow")


def _propagate_min(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Min-label propagation with pointer doubling over int-coded edges —
    O((E+V)·log D) fully-vectorized numpy, no Python per-edge loop."""
    label = np.arange(n, dtype=np.int64)
    for _ in range(200):
        old = label.copy()
        m = np.minimum(label[a], label[b])
        np.minimum.at(label, a, m)
        np.minimum.at(label, b, m)
        label = label[label]          # pointer doubling
        if np.array_equal(label, old):
            break
    return label


def _union_find_local(a_ids, b_ids):
    """Vectorized driver-side connected components over (src,dst) id pairs.

    Ids are dictionary-encoded in Arrow C++ (no Python-string np.unique) and
    re-ranked lexicographically so the min int code per component IS the
    lexicographic-min id (UTF-8 bytewise order == codepoint order). Returns
    (nodes, entity_ids) as Arrow string arrays, nodes sorted ascending."""
    import pyarrow.compute as pc
    a_ids = pa.array(a_ids, pa.string()) if not isinstance(
        a_ids, (pa.Array, pa.ChunkedArray)) else a_ids
    b_ids = pa.array(b_ids, pa.string()) if not isinstance(
        b_ids, (pa.Array, pa.ChunkedArray)) else b_ids
    both = pa.chunked_array([a_ids, b_ids]).combine_chunks()
    enc = pc.dictionary_encode(both)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    dictionary = enc.dictionary
    order = pc.sort_indices(dictionary).to_numpy(zero_copy_only=False)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    rcodes = rank[codes]
    n_edges = len(a_ids)
    label = _propagate_min(rcodes[:n_edges], rcodes[n_edges:], len(order))
    nodes_sorted = dictionary.take(pa.array(order))
    ents = nodes_sorted.take(pa.array(label))
    return nodes_sorted, ents


def connected_components(ds_links, *, id_from: str = "conv_id_from",
                         id_to: str = "conv_id_to"):
    """Dataset[links] -> Dataset[(node:str, entity_id:str)].

    entity_id = lexicographic-min node id of the component (deterministic,
    coordination-free — no global counter at 100 TB).

    An edge list of at most ``DRIVER_EDGE_MAX`` edges closes in a
    DRIVER-SIDE union-find (links ≪ records for a linkage graph —
    (src,dst) id pairs for 5M edges are ~200 MB, trivially collectable;
    the cluster-scale cost lives in producing the links, not closing
    them); a larger one runs the distributed hash-min + pointer-doubling
    iteration. The gate is read at call time (tests force the distributed
    path by patching it to 0).
    """
    # pin the edge list once: the gate needs a count AND a collect — on a
    # lazy input each would re-execute the caller's entire upstream chain
    # (measured: the minhash LSH explode+shuffle ran 3x per curation run
    # before this). Edges are slim 2-col rows; the distributed path
    # materializes its symmetrized copy anyway.
    ds_links = ds_links.materialize()
    if ds_links.count() <= DRIVER_EDGE_MAX:
        import ray.data as rd
        pairs = collect_arrow(
            ds_links.select_columns([id_from, id_to]),
            pa.schema([(id_from, pa.string()), (id_to, pa.string())]))
        if not len(pairs):
            # a 0-row dataset can surface with no columns at all (Ray emits
            # zero blocks) — the component table is simply empty
            return rd.from_arrow(pa.table({
                "node": pa.array([], pa.string()),
                "entity_id": pa.array([], pa.string())}))
        nodes, ents = _union_find_local(pairs[id_from], pairs[id_to])
        # arrow blocks (Ray 2.49 rename_columns/select_columns choke on
        # pandas blocks), one block — downstream joins repartition anyway
        return rd.from_arrow(pa.table({"node": nodes, "entity_id": ents}))

    edges = _sym_edges(ds_links, id_from, id_to).materialize()
    n_parts = min(64, max(8, edges.num_blocks()))

    # init: every node starts with the min label among itself + direct
    # neighbors (first hash-min round fused into initialization)
    def init_msgs(t: pa.Table) -> pa.Table:
        pc = pa.compute
        lab = pc.if_else(pc.less_equal(t["src"], t["dst"]), t["src"], t["dst"])
        return pa.table({"node": t["src"], "label": lab})

    from .grouped import grouped_map

    _label_schema = pa.schema([("node", pa.string()), ("label", pa.string())])

    def min_label_part(df: pd.DataFrame) -> pa.Table:
        """Vectorized per-partition min-label (arrow out — unions with the
        arrow msgs datasets need uniform block types)."""
        out = (df.groupby("node", sort=False)["label"].min().reset_index())
        return pa.Table.from_pandas(out, schema=_label_schema,
                                    preserve_index=False)

    labels = (grouped_map(edges.map_batches(init_msgs, batch_format="pyarrow"),
                          "node", min_label_part, num_partitions=n_parts)
              .materialize())

    def to_msgs(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["dst"], "label": t["label"]})

    def _signature(ds) -> int:
        """Order-independent content hash of the (node,label) table: one
        cheap streaming pass (per-batch vectorized hash + driver sum mod
        2^64) — labels move monotonically downward, so signature equality
        ⇔ fixpoint (up to a ~2^-64 collision that would cost one early
        stop; the alternative exact check is a full extra shuffle per
        iteration). Rows hash straight off the Arrow UTF-8 buffers
        (_rowhash_utf8) — no per-value Python materialization (the old
        ``to_pylist()`` walked every id twice per iteration)."""
        def batch_sig(t: pa.Table) -> pa.Table:
            hn = _rowhash_utf8(t["node"])
            hl = _rowhash_utf8(t["label"])
            with np.errstate(over="ignore"):
                h = hn ^ ((hl << np.uint64(1)) | (hl >> np.uint64(63)))
                # mix to decorrelate, then wrap-sum per batch
                h = (h ^ (h >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
            s = int(h.sum(dtype=np.uint64))
            return pa.table({"sig": pa.array([s & 0x7FFFFFFFFFFFFFFF],
                                             pa.int64())})
        parts = ds.map_batches(batch_sig, batch_format="pyarrow").take_all()
        return sum(r["sig"] for r in parts) & 0xFFFFFFFFFFFFFFFF

    def shortcut(ds_labels):
        """Pointer doubling: label <- label(label). Every label value is
        itself a node (labels are node ids inside the component), so the
        self-join is total; combined with the neighbor-min step this
        converges in O(log diameter) iterations instead of O(diameter) —
        the large-star/small-star acceleration (PAPERS.md BTS)."""
        j = hash_join(ds_labels, ds_labels, on="label", right_on="node",
                      how="inner", suffixes=("", "_p"))

        def take_parent(t: pa.Table) -> pa.Table:
            return pa.table({"node": t["node"], "label": t["label_p"]})
        return j.map_batches(take_parent, batch_format="pyarrow")

    prev_sig = _signature(labels)
    for _ in range(_MAX_ROUNDS):
        # propagate: join edges (on src) with labels -> candidate label for dst
        # (hash_join, not Dataset.join — see stages/join.py on why)
        msgs = hash_join(edges, labels, on="src", right_on="node",
                         how="inner").map_batches(to_msgs, batch_format="pyarrow")
        new_labels = grouped_map(labels.union(msgs), "node", min_label_part,
                                 num_partitions=n_parts)
        # bound block growth: unions + shuffles compound the block count
        # geometrically across iterations without an explicit repartition
        new_labels = shortcut(new_labels).repartition(n_parts).materialize()
        sig = _signature(new_labels)
        labels = new_labels
        if sig == prev_sig:
            break
        prev_sig = sig
    return labels.rename_columns({"label": "entity_id"})


def attach_entity_ids(ds_records, ds_components, *, id_col: str = "conv_id"):
    """Left-join entity ids back onto records; unlinked records become their
    own singleton entity (entity_id = own id), mirroring the reference's
    'every record keeps an index' contract (util.R:17-21). The component
    map holds one row per LINKED record — usually small, so hash_join
    broadcasts it."""
    joined = hash_join(ds_records, ds_components, on=id_col, right_on="node",
                       how="left")

    def fill(t: pa.Table) -> pa.Table:
        ent = pa.compute.coalesce(t["entity_id"], t[id_col].cast(pa.string()))
        return t.set_column(t.column_names.index("entity_id"),
                            "entity_id", ent)
    return joined.map_batches(fill, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# expand_index — exact one-round parity (util.R:14-44)
# ---------------------------------------------------------------------------

def expand_index(df: pd.DataFrame, index: str = "index",
                 index_candidate: str = "index_candidate") -> pd.DataFrame:
    """One relaxation step over (index, index_candidate), R semantics:

      * group all-NA index        -> adopt index_candidate   (util.R:17-21)
      * group all indexed         -> unchanged               (util.R:24-28)
      * bridge (some NA, exactly one distinct index) -> fill (util.R:31-37)
      * conflict (≥2 distinct)    -> unchanged               (util.R:38-41)

    Rows with NA index_candidate are never touched.
    """
    out = df.copy()
    grouped = out[out[index_candidate].notna()].groupby(index_candidate, sort=False)
    for cand, g in grouped:
        idx = g[index]
        na = idx.isna()
        distinct = idx.dropna().unique()
        if na.all():
            out.loc[g.index, index] = cand
        elif na.any() and len(distinct) == 1:
            out.loc[g.index[na], index] = distinct[0]
        # else: all indexed, or conflicting -> untouched
    return out


def golden_records(ds_records, ds_entities, *, key_col: str = "conv_id",
                   entity_col: str = "entity_id",
                   rules: dict[str, str] | None = None):
    """Survivorship / golden-record construction: collapse each entity
    cluster to ONE canonical row — the step after transitive clustering
    in every master-data/entity-resolution pipeline (the reference stops
    at cluster ids; production systems need the merged record).

    ``rules`` maps attribute -> survivorship rule:
      * ``"min"`` / ``"max"`` / ``"sum"`` — numeric/timestamp reduce
      * ``"mode"`` — most frequent non-null value, smallest-value tiebreak
        (stages/agg.mode_by convention)
      * ``"first"`` — the value from the cluster's REPRESENTATIVE row
        (lexicographically smallest ``key_col``, the engine-wide min-id
        keep convention)

    Output: one row per entity: (entity_col, n_members, <ruled attrs>).
    Shape: one distributed hash join attaches entity ids, ONE
    co-partitioning shuffle by entity, then each rule is a vectorized
    groupby reduce across ALL clusters of a partition (mode via one
    count-sort + keep-first, no per-cluster Python)."""
    rules = dict(rules or {})
    from .join import hash_join
    from .grouped import grouped_map

    joined = hash_join(ds_records, ds_entities, on=key_col)

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        from .grouped import typed_or_empty
        g = df.groupby(entity_col, sort=False)
        out = g.size().rename("n_members").to_frame()
        # representative row = smallest key per entity (stable via sort)
        rep = (df.sort_values([entity_col, key_col], kind="stable")
               .drop_duplicates(subset=[entity_col], keep="first")
               .set_index(entity_col))
        for col, rule in rules.items():
            if rule in ("min", "max", "sum"):
                out[col] = g[col].agg(rule)
            elif rule == "first":
                out[col] = rep[col]
            elif rule == "mode":
                sub = df[[entity_col, col]]
                sub = sub[sub[col].notna()]
                cnt = (sub.groupby([entity_col, col], sort=False)
                       .size().rename("_n").reset_index())
                cnt = cnt.sort_values([entity_col, "_n", col],
                                      ascending=[True, False, True],
                                      kind="stable")
                win = cnt.drop_duplicates(subset=[entity_col],
                                          keep="first")
                out[col] = win.set_index(entity_col)[col]
            else:
                raise ValueError(f"unknown survivorship rule {rule!r}")
        out["n_members"] = out["n_members"].astype(np.int64)
        return typed_or_empty(out.reset_index())

    return grouped_map(joined, entity_col, per_part)
