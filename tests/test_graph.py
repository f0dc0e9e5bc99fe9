"""PageRank (stages/graph.py): numpy power-iteration parity, dangling
mass, broadcast vs distributed strategy parity."""

import numpy as np
import pandas as pd
import ray.data as rd

from capelinker_ray.stages.graph import node_degrees, pagerank


def _numpy_pagerank(edges: pd.DataFrame, damping=0.85, iters=5):
    nodes = np.unique(np.concatenate(
        [edges["src"].to_numpy(np.int64), edges["dst"].to_numpy(np.int64)]))
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    si = np.array([idx[v] for v in edges["src"]], np.int64)
    di = np.array([idx[v] for v in edges["dst"]], np.int64)
    outdeg = np.bincount(si, minlength=n)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        w = np.where(outdeg > 0, r / np.maximum(outdeg, 1), 0.0)
        sums = np.zeros(n)
        np.add.at(sums, di, w[si])
        dangling = r[outdeg == 0].sum()
        r = (1 - damping) / n + damping * (sums + dangling / n)
    return pd.DataFrame({"node": nodes, "rank": r})


def _star_edges():
    # hub 0 <-> spokes 1..5, plus a chain 5 -> 6 -> 7 (7 dangling)
    rows = []
    for s in range(1, 6):
        rows.append((0, s))
        rows.append((s, 0))
    rows += [(5, 6), (6, 7)]
    return pd.DataFrame(rows, columns=["src", "dst"]).astype(np.int64)


def test_pagerank_matches_numpy_reference(ray_session):
    edges = _star_edges()
    got = pagerank(rd.from_pandas(edges), iters=5).to_pandas()
    want = _numpy_pagerank(edges)
    m = got.sort_values("node").reset_index(drop=True)
    w = want.sort_values("node").reset_index(drop=True)
    assert (m["node"] == w["node"]).all()
    np.testing.assert_allclose(m["rank"], w["rank"], rtol=1e-12)
    # ranks form a probability distribution (dangling mass conserved)
    assert abs(m["rank"].sum() - 1.0) < 1e-9
    # the hub out-ranks every spoke
    hub = float(m.loc[m["node"] == 0, "rank"].iloc[0])
    assert (hub > m.loc[m["node"] != 0, "rank"]).all()


def test_pagerank_strategy_parity(ray_session, monkeypatch):
    # the default broadcast path against the distributed one, forced by a
    # zero node gate
    from capelinker_ray.stages import graph
    rng = np.random.default_rng(3)
    edges = pd.DataFrame({
        "src": rng.integers(0, 50, 400).astype(np.int64),
        "dst": rng.integers(0, 50, 400).astype(np.int64)})
    ds = rd.from_pandas(edges)
    b = pagerank(ds, iters=4).to_pandas()
    monkeypatch.setattr(graph, "BROADCAST_NODES_MAX", 0)
    d = pagerank(ds, iters=4).to_pandas()
    b = b.sort_values("node").reset_index(drop=True)
    d = d.sort_values("node").reset_index(drop=True)
    assert (b["node"] == d["node"]).all()
    np.testing.assert_allclose(b["rank"], d["rank"], rtol=1e-9)
    want = _numpy_pagerank(edges, iters=4)
    np.testing.assert_allclose(
        b["rank"], want.sort_values("node")["rank"].to_numpy(), rtol=1e-9)


def test_node_degrees(ray_session):
    edges = _star_edges()
    deg = node_degrees(rd.from_pandas(edges)).to_pandas()
    deg = deg.set_index("node")
    assert deg.loc[0, "outdeg"] == 5 and deg.loc[0, "indeg"] == 5
    assert deg.loc[7, "outdeg"] == 0 and deg.loc[7, "indeg"] == 1
    assert deg.loc[5, "outdeg"] == 2


def test_pagerank_partition_invariance(ray_session):
    edges = _star_edges()
    one = pagerank(rd.from_pandas(edges).repartition(1), iters=3).to_pandas()
    many = pagerank(rd.from_pandas(edges).repartition(7), iters=3).to_pandas()
    a = one.sort_values("node")["rank"].to_numpy()
    b = many.sort_values("node")["rank"].to_numpy()
    np.testing.assert_allclose(a, b, rtol=1e-12)
