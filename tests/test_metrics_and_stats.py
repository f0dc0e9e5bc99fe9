"""Metrics module + corpus-stats + label-export oracles.

Metric values pinned to the reference's published vignette confusion matrix
(vignettes/example.rmd:184-197: TN 2395 FP 13 FN 22 TP 116 ->
P 0.8992248 R 0.8405797 F 0.8689139)."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from capelinker_ray.metrics import (
    confusion, confusion_text, pairwise_cluster_metrics, prf, threshold_sweep,
)
from capelinker_ray.stages.corpus_stats import (
    add_group_count, add_group_uniqueness, normalise_column,
    uniformise_column,
)


def _vignette_arrays():
    # reconstruct labels/preds matching the published confusion matrix
    y, p = [], []
    for yt, yp, n in [(0, 0, 2395), (0, 1, 13), (1, 0, 22), (1, 1, 116)]:
        y += [yt] * n
        p += [yp] * n
    return np.array(y), np.array(p)


def test_prf_vignette_parity():
    y, p = _vignette_arrays()
    m = prf(y, p)
    assert m["precision"] == pytest.approx(0.8992248, abs=1e-6)
    assert m["recall"] == pytest.approx(0.8405797, abs=1e-6)
    assert m["fbeta"] == pytest.approx(0.8689139, abs=1e-6)
    assert confusion(y, p) == {"tn": 2395, "fp": 13, "fn": 22, "tp": 116}


def test_threshold_sweep_monotone_recall():
    rng = np.random.default_rng(0)
    y = (rng.random(500) > 0.5).astype(int)
    s = y * 0.6 + rng.random(500) * 0.4
    sw = threshold_sweep(y, s)
    assert (np.diff(sw["recall"].to_numpy()) <= 1e-12).all()  # recall falls


def test_pairwise_cluster_metrics_perfect():
    assign = pd.DataFrame({"conv_id": list("abcd"),
                           "entity_id": ["x", "x", "y", "y"]})
    truth = pd.DataFrame({"conv_id": list("abcd"),
                          "entity_id": ["1", "1", "2", "2"]})
    m = pairwise_cluster_metrics(assign, truth)
    assert m["f1"] == 1.0 and m["tp"] == 2


def test_confusion_text_renders():
    t = confusion_text({"tn": 1, "fp": 2, "fn": 3, "tp": 4}, caption="c")
    assert "pred=0" in t and "c" in t


def test_add_group_count(ray_session):
    df = pd.DataFrame({"k": ["a", "a", "b"], "v": [1, 2, 3]})
    out = add_group_count(rd.from_pandas(df), "k", "n").to_pandas()
    assert dict(zip(out["k"], out["n"]))["a"] == 2


def test_normalise_column(ray_session):
    df = pd.DataFrame({"x": [0.0, 5.0, 10.0]})
    out = normalise_column(rd.from_pandas(df), "x").to_pandas()
    assert sorted(out["x_norm"]) == [0.0, 0.5, 1.0]


def test_uniformise_column(ray_session):
    df = pd.DataFrame({"id": range(6),
                       "s": ["smith", "smith", "smyth", "jones", None, 7]})
    out = (uniformise_column(rd.from_pandas(df), "s", maxdist=0.2)
           .to_pandas().sort_values("id"))
    # smyth absorbed into smith; None and the non-string map to None
    assert out["s_uniform"].tolist() == ["smith", "smith", "smith",
                                         "jones", None, None]
    # the mapping covers every string of the column, so the map-back of
    # a string it lacks (the string keeps itself) is checked directly
    from capelinker_ray.stages.corpus_stats import _map_strings
    vals = pd.Series(["smyth", None, 7, "unmapped", float("nan"), "smyth"],
                     dtype=object)
    got = _map_strings(vals, {"smyth": "smith"})
    assert got.tolist() == ["smith", None, None, "unmapped", None, "smith"]
    assert _map_strings(pd.Series([], dtype=object), {}).tolist() == []


def test_add_group_uniqueness(ray_session):
    df = pd.DataFrame({"g": [1, 1, 1, 2, 2],
                       "s": ["aaaa", "aaab", "zzzz", "q", "q"]})
    out = add_group_uniqueness(rd.from_pandas(df), "g", "s").to_pandas()
    g1 = out[out["g"] == 1].set_index("s")["s_uniqueness"]
    assert g1["zzzz"] > g1["aaaa"]  # the outlier is more unique
    g2 = out[out["g"] == 2]["s_uniqueness"]
    assert (g2 < 1e-9).all()        # identical strings -> zero distance


def test_label_export(ray_session, tmp_path):
    from capelinker_ray import synth
    from capelinker_ray.stages.conv_records import build_conv_records
    from capelinker_ray.stages.label import export_label_batches
    from capelinker_ray.stages.normalize import normalize_turns

    turns, _ = synth.gen_corpus(n_entities=30, seed=5)
    records = build_conv_records(normalize_turns(rd.from_arrow(turns)))
    n = export_label_batches(records, str(tmp_path / "labels"),
                             n_blocks=10, seed=1)
    assert n > 0
    out = rd.read_parquet(str(tmp_path / "labels")).to_pandas()
    assert {"conv_id_from", "conv_id_to", "block_key",
            "first_textdist"} <= set(out.columns)
    assert out["block_key"].nunique() <= 10


def test_label_export_high_cardinality_deterministic(ray_session, tmp_path):
    # the hash-top-k block sampler must stay deterministic and bounded
    # with MANY distinct block keys spread over many partitions (no
    # driver collect of the distinct-key table)
    from capelinker_ray import synth
    from capelinker_ray.stages.conv_records import build_conv_records
    from capelinker_ray.stages.label import export_label_batches
    from capelinker_ray.stages.normalize import normalize_turns

    turns, _ = synth.gen_corpus(n_entities=150, seed=8)
    records = build_conv_records(
        normalize_turns(rd.from_arrow(turns))).materialize()
    assert records.to_pandas()["block_key"].nunique() > 60
    n1 = export_label_batches(records.repartition(13),
                              str(tmp_path / "a"), n_blocks=7, seed=3)
    n2 = export_label_batches(records.repartition(2),
                              str(tmp_path / "b"), n_blocks=7, seed=3)
    a = rd.read_parquet(str(tmp_path / "a")).to_pandas()
    b = rd.read_parquet(str(tmp_path / "b")).to_pandas()
    # identical block selection regardless of partitioning
    assert sorted(a["block_key"].unique()) == sorted(b["block_key"].unique())
    assert a["block_key"].nunique() <= 7
    assert n1 == n2 > 0

def test_encode_tokens_ids_unk_and_positions(ray_session):
    from capelinker_ray.stages.corpus_stats import encode_tokens
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["b a a b b", "a rare b", ""]})
    # vocab as a plain DataFrame: b(n=4) -> id 1, a(n=3) -> id 2
    vocab = pd.DataFrame({"token": ["a", "b"], "n": [3, 4]})
    out = (encode_tokens(rd.from_pandas(docs).repartition(2), vocab)
           .to_pandas().sort_values(["doc_id", "pos"])
           .reset_index(drop=True))
    d0 = out[out["doc_id"] == 0]
    assert d0["pos"].tolist() == [1, 2, 3, 4, 5]
    assert d0["token_id"].tolist() == [1, 2, 2, 1, 1]
    d1 = out[out["doc_id"] == 1]
    assert d1["token_id"].tolist() == [2, 0, 1]        # OOV 'rare' -> unk
    d2 = out[out["doc_id"] == 2]                       # empty doc: one unk
    assert d2["pos"].tolist() == [1] and d2["token_id"].tolist() == [0]


def test_encode_tokens_tie_rank_by_token(ray_session):
    from capelinker_ray.stages.corpus_stats import encode_tokens
    # equal counts -> lexicographic token order breaks the tie
    docs = pd.DataFrame({"doc_id": [0], "text": ["z y z y"]})
    vocab = pd.DataFrame({"token": ["z", "y"], "n": [2, 2]})
    out = encode_tokens(rd.from_pandas(docs), vocab).to_pandas()
    got = dict(zip(out["pos"], out["token_id"]))
    assert got == {1: 2, 2: 1, 3: 2, 4: 1}             # y=1, z=2
