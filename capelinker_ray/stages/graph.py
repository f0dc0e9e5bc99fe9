"""Distributed graph analytics over edge tables: PageRank power iteration.

The linkage engine already emits graphs everywhere — candidate-pair edges,
entity-cluster components (stages/cluster.py), near-dup families
(pipelines/curate.py). PageRank (Brin & Page 1998) is the standard
importance score over such graphs (e.g. ranking entities by how connected
their transcript neighborhoods are, or weighting dup-cluster
representatives). This is the public power-iteration formulation with
uniform teleport and uniform redistribution of dangling-node mass:

    r'(v) = (1-d)/N + d * ( sum_{(u,v) in E} r(u)/outdeg(u) + D/N )
    D     = sum_{u : outdeg(u)=0} r(u)

100-TB shape: the EDGE table is the big side and never reaches the driver.

* broadcast (up to ``BROADCAST_NODES_MAX`` nodes): the rank /
  out-degree vectors live once in plasma (``ray.put``) keyed by a sorted
  node array; each iteration is ONE stateless ``map_batches`` pass over
  the edges emitting per-batch partial dst sums (bounded by distinct dst
  per batch), merged in one task. No shuffle at all — iterations cost
  #edges scan each.
* distributed (more nodes): ranks stay a Dataset. Each iteration is a
  hash co-partition of edges with the rank table on src (ONE exchange via
  grouped_map) producing partial contributions, then one grouped sum by
  dst, then a left join back onto the node table. Per-iteration
  ``materialize()`` pins the new rank table — required for any iterative
  algorithm on a lazy engine (otherwise the plan re-executes from scratch
  every iteration and grows exponentially).

Both paths are float64 and produce identical ranks up to summation order
(the DuckDB oracle rounds to 6 dp).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["pagerank", "node_degrees"]

# pagerank keeps the rank vector on the driver and broadcasts it per
# iteration up to this many nodes; larger graphs iterate distributed
BROADCAST_NODES_MAX = 2_000_000


def _partial_counts(df: pd.DataFrame, col: str, out: str) -> pd.DataFrame:
    g = df.groupby(col, sort=False).size().reset_index(name=out)
    return g


def node_degrees(edges, *, src_col: str = "src", dst_col: str = "dst"):
    """Dataset[(src,dst)] -> Dataset[(node, outdeg, indeg)] — per-batch
    partial counts, one co-partition merge (slim (node, n) rows shuffle,
    never the edges)."""
    from .grouped import grouped_map

    def part(df: pd.DataFrame) -> pd.DataFrame:
        o = _partial_counts(df, src_col, "outdeg").rename(
            columns={src_col: "node"})
        i = _partial_counts(df, dst_col, "indeg").rename(
            columns={dst_col: "node"})
        out = o.merge(i, on="node", how="outer")
        return out.fillna(0).astype({"outdeg": np.int64, "indeg": np.int64})

    partials = edges.map_batches(part, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", sort=False, as_index=False)[
            ["outdeg", "indeg"]].sum()

    return grouped_map(partials, "node", merge)


def _collect_outdeg(edges, src_col, dst_col):
    """Driver-side (nodes, outdeg) arrays from per-batch partials.
    Bounded by the broadcast gate the caller already checked."""
    def part(df: pd.DataFrame) -> pd.DataFrame:
        o = _partial_counts(df, src_col, "n").rename(columns={src_col: "node"})
        d = pd.DataFrame({"node": df[dst_col].unique()})
        d["n"] = 0
        return pd.concat([o, d], ignore_index=True)

    pp = edges.map_batches(part, batch_format="pandas").to_pandas()
    agg = pp.groupby("node", sort=True)["n"].sum()
    nodes = agg.index.to_numpy(np.int64)
    outdeg = agg.to_numpy(np.int64)
    return nodes, outdeg


def pagerank(edges, *, src_col: str = "src", dst_col: str = "dst",
             damping: float = 0.85, iters: int = 5,
             node_col: str = "node", rank_col: str = "rank"):
    """Edge Dataset -> Dataset[(node, rank)] after ``iters`` power
    iterations. Node ids must be int64; self-loops and parallel edges are
    used as given (pre-dedup if you want simple-graph semantics). The
    node count, read against ``BROADCAST_NODES_MAX`` at call time, picks
    the broadcast or the distributed iteration."""
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    # one slim pass for the node count; edges stream, never collect
    n_nodes = node_degrees(edges, src_col=src_col, dst_col=dst_col).count()
    if n_nodes <= BROADCAST_NODES_MAX:
        return _pagerank_broadcast(edges, src_col, dst_col, damping, iters,
                                   node_col, rank_col)
    return _pagerank_distributed(edges, src_col, dst_col, damping,
                                 iters, node_col, rank_col)


def _pagerank_broadcast(edges, src_col, dst_col, damping, iters,
                        node_col, rank_col):
    import ray
    import ray.data as rd

    nodes, outdeg = _collect_outdeg(edges, src_col, dst_col)
    n = len(nodes)
    if n == 0:
        return rd.from_pandas(pd.DataFrame({node_col: pd.Series([], np.int64),
                                            rank_col: pd.Series([], float)}))
    nodes_ref = ray.put(nodes)
    rank = np.full(n, 1.0 / n)
    safe_deg = np.maximum(outdeg, 1)

    # pin the edge blocks once so the per-iteration scan doesn't re-read
    # the upstream plan ``iters`` times
    edges = edges.materialize()

    for _ in range(iters):
        w = np.where(outdeg > 0, rank / safe_deg, 0.0)
        w_ref = ray.put(w)

        def contrib(df: pd.DataFrame, w_ref=w_ref) -> pd.DataFrame:
            import ray as _ray
            # ray.get of a numpy array is zero-copy from plasma — safe to
            # call per batch, no per-worker cache to leak across iterations
            nd = _ray.get(nodes_ref)
            wv = _ray.get(w_ref)
            si = np.searchsorted(nd, df[src_col].to_numpy(np.int64))
            di = np.searchsorted(nd, df[dst_col].to_numpy(np.int64))
            acc = np.zeros(len(nd))
            np.add.at(acc, di, wv[si])
            nz = np.flatnonzero(acc)
            return pd.DataFrame({"di": nz.astype(np.int64), "s": acc[nz]})

        pp = edges.map_batches(contrib, batch_format="pandas").to_pandas()
        sums = np.zeros(n)
        np.add.at(sums, pp["di"].to_numpy(np.int64), pp["s"].to_numpy())
        dangling = float(rank[outdeg == 0].sum())
        rank = (1.0 - damping) / n + damping * (sums + dangling / n)

    return rd.from_pandas(pd.DataFrame({node_col: nodes, rank_col: rank}))


def _pagerank_distributed(edges, src_col, dst_col, damping, iters,
                          node_col, rank_col):
    from .grouped import grouped_map
    from .join import hash_join

    deg = node_degrees(edges, src_col=src_col, dst_col=dst_col)
    deg = deg.drop_columns(["indeg"]).materialize()
    n = deg.count()
    ranks = deg.map_batches(
        lambda df: df.assign(**{rank_col: 1.0 / n}),
        batch_format="pandas").materialize()

    slim_edges = edges.select_columns([src_col, dst_col]).materialize()

    for _ in range(iters):
        # total dangling mass: one partial-sum pass, scalar to the driver
        def dang_part(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"s": [df.loc[df["outdeg"] == 0, rank_col].sum()]})
        dangling = float(ranks.map_batches(
            dang_part, batch_format="pandas").to_pandas()["s"].sum())

        contrib = hash_join(slim_edges, ranks, on=src_col,
                            right_on="node", how="inner")

        def part_sums(df: pd.DataFrame) -> pd.DataFrame:
            w = df[rank_col].to_numpy() / np.maximum(
                df["outdeg"].to_numpy(), 1)
            g = pd.DataFrame({dst_col: df[dst_col], "w": w}).groupby(
                dst_col, sort=False)["w"].sum().reset_index()
            return g

        sums = grouped_map(
            contrib.map_batches(part_sums, batch_format="pandas"),
            dst_col,
            lambda g: g.groupby(dst_col, sort=False, as_index=False)
            ["w"].sum())

        joined = hash_join(deg, sums, on="node", right_on=dst_col,
                           how="left")

        def update(df: pd.DataFrame) -> pd.DataFrame:
            s = df["w"].fillna(0.0).to_numpy()
            r = (1.0 - damping) / n + damping * (s + dangling / n)
            return pd.DataFrame({"node": df["node"].astype(np.int64),
                                 "outdeg": df["outdeg"].astype(np.int64),
                                 rank_col: r})

        ranks = joined.map_batches(
            update, batch_format="pandas").materialize()

    out = ranks.drop_columns(["outdeg"])
    if node_col != "node":
        out = out.rename_columns({"node": node_col})
    return out
