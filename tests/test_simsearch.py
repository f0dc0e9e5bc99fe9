"""ANN oracles: brute-force top-k vs exact numpy; IVF recall."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from capelinker_ray.stages.simsearch import brute_force_topk, ivf_topk


def _data(n=200, d=16, seed=0):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n, d))
    # a handful of real blocks, not one per row (from_items is one tiny
    # block per item -> hundreds of scheduler round-trips per test)
    rows = pd.DataFrame({"vec_id": np.arange(n),
                         "embedding": [V[i].tolist() for i in range(n)]})
    return V, rows


def _exact_topk(V, Q, k):
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    S = Qn @ Vn.T
    return {q: set(np.argsort(-S[q])[:k]) for q in range(len(Q))}


def test_brute_force_matches_exact(ray_session):
    V, rows = _data()
    Q = V[:5]
    out = brute_force_topk(rd.from_pandas(rows), Q, k=7).to_pandas()
    exact = _exact_topk(V, Q, 7)
    for q in range(5):
        got = set(out[out["query_id"] == q]["vec_id"])
        assert got == exact[q]
    # rank 1 is the query itself (cosine 1.0)
    r1 = out[out["rank"] == 1]
    assert (r1["query_id"] == r1["vec_id"]).all()


def test_brute_force_exact_k_rows_per_query(ray_session):
    V, rows = _data(n=50)
    out = brute_force_topk(rd.from_pandas(rows), V[:3], k=5).to_pandas()
    assert (out.groupby("query_id").size() == 5).all()


def test_ivf_recall(ray_session):
    V, rows = _data(n=400, seed=2)
    Q = V[:8]
    exact = _exact_topk(V, Q, 5)
    out = ivf_topk(rd.from_pandas(rows), Q, k=5, n_centroids=8,
                   n_probe=4).to_pandas()
    hits = total = 0
    for q in range(8):
        got = set(out[out["query_id"] == q]["vec_id"])
        hits += len(got & exact[q])
        total += 5
    assert hits / total >= 0.7  # probing half the lists: high recall


def test_ivf_auto_scale_skewed_recall(ray_session):
    """n_centroids='auto' (~sqrt(N)) with a hot cluster hosting 70% of the
    corpus: recall vs brute force stays high because probing follows the
    query, and the hot region is split over many lists instead of one."""
    rng = np.random.default_rng(5)
    hot = rng.normal(size=16)
    V = np.concatenate([hot + rng.normal(scale=0.05, size=(700, 16)),
                        rng.normal(size=(300, 16))])
    rows = pd.DataFrame({"vec_id": np.arange(len(V)),
                         "embedding": [v.tolist() for v in V]})
    Q = np.concatenate([V[:4], V[700:704]])
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    S = Qn @ Vn.T
    exact = {q: set(np.argsort(-S[q])[:5]) for q in range(len(Q))}
    out = ivf_topk(rd.from_pandas(rows), Q, k=5, n_probe=8).to_pandas()
    hits = total = 0
    for q in range(len(Q)):
        got = set(out[out["query_id"] == q]["vec_id"])
        hits += len(got & exact[q])
        total += 5
    assert hits / total >= 0.8, hits / total


def test_knn_join_broadcast_excludes_self_and_ranks(ray_session):
    from capelinker_ray.stages.simsearch import knn_join
    rng = np.random.default_rng(3)
    V = rng.normal(size=(40, 8)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(40, dtype=np.int64),
                       "embedding": list(V)})
    out = knn_join(rd.from_pandas(df).repartition(3), k=4).to_pandas()
    assert len(out) == 40 * 4
    assert (out["vec_id"] != out["nbr_id"]).all()
    # ranks are 1..4 per query and cosine non-increasing within a query
    for _, g in out.groupby("vec_id"):
        g = g.sort_values("rnk")
        assert g["rnk"].tolist() == [1, 2, 3, 4]
        assert (np.diff(g["cosine"].to_numpy()) <= 1e-12).all()
    # exact vs numpy brute force for one query
    Vn = V.astype(np.float64)
    Vn = Vn / np.linalg.norm(Vn, axis=1, keepdims=True)
    S = np.round(Vn @ Vn.T, 9)
    np.fill_diagonal(S, -np.inf)
    want = np.argsort(-S[7], kind="stable")[:4]
    got = out[out["vec_id"] == 7].sort_values("rnk")["nbr_id"].to_numpy()
    assert list(got) == list(want)


def test_knn_join_broadcast_size_gate(ray_session, monkeypatch):
    from capelinker_ray.stages import simsearch
    df = pd.DataFrame({"vec_id": np.arange(10, dtype=np.int64),
                       "embedding": list(np.ones((10, 4), np.float32))})
    monkeypatch.setattr(simsearch, "KNN_BROADCAST_MAX_BYTES", 16)
    with pytest.raises(ValueError, match="ivf"):
        simsearch.knn_join(rd.from_pandas(df), k=2)


def test_knn_join_ivf_recall_vs_broadcast(ray_session, monkeypatch):
    from capelinker_ray.stages import grouped
    from capelinker_ray.stages.simsearch import knn_join
    rng = np.random.default_rng(12)
    # clustered data so IVF lists are meaningful
    centers = rng.normal(size=(6, 16)) * 4
    V = np.concatenate([c + rng.normal(size=(50, 16)) * 0.5
                        for c in centers]).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(len(V), dtype=np.int64),
                       "embedding": list(V)})
    ds = rd.from_pandas(df).repartition(4)
    exact = knn_join(ds, k=3).to_pandas()
    # four reducers per shuffle, so lists and queries span partitions
    monkeypatch.setattr(grouped, "shuffle_width", lambda n_rows, cap=None: 4)
    approx = knn_join(ds, k=3, method="ivf", n_centroids=6,
                      n_probe=3).to_pandas()
    te = set(map(tuple, exact[["vec_id", "nbr_id"]].to_numpy()))
    ta = set(map(tuple, approx[["vec_id", "nbr_id"]].to_numpy()))
    recall = len(te & ta) / len(te)
    assert recall >= 0.9, recall
    # every query present, at most k rows each
    assert approx.groupby("vec_id").size().max() <= 3
    assert approx["vec_id"].nunique() == len(V)
