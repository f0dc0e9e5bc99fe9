"""Reshape fundamentals: explode, regex rows, global top-k."""

import numpy as np
import pandas as pd
import ray.data as rd

from capelinker_ray.stages.reshape import (explode, global_topk,
                                           regex_extract_rows)


def test_explode_positions_and_empty_drop(ray_session):
    df = pd.DataFrame({"id": [1, 2, 3],
                       "xs": [[10, 20], [], [30]]})
    out = (explode(rd.from_pandas(df), "xs", pos_col="pos")
           .to_pandas().sort_values(["id", "pos"]).reset_index(drop=True))
    assert out["id"].tolist() == [1, 1, 3]
    assert out["xs"].tolist() == [10, 20, 30]
    assert out["pos"].tolist() == [0, 1, 0]


def test_explode_keep_empty(ray_session):
    df = pd.DataFrame({"id": [1, 2], "xs": [[7], []]})
    out = (explode(rd.from_pandas(df), "xs", keep_empty=True,
                   pos_col="pos")
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert len(out) == 2
    assert out.loc[1, "pos"] == -1 and pd.isna(out.loc[1, "xs"])


def test_regex_extract_rows_match_order(ray_session):
    df = pd.DataFrame({"id": [1, 2, 3],
                       "s": ["ab12cd345", "nope", None]})
    out = (regex_extract_rows(rd.from_pandas(df).repartition(2), "s",
                              r"\d+")
           .to_pandas().sort_values(["id", "match_idx"])
           .reset_index(drop=True))
    assert out["id"].tolist() == [1, 1]
    assert out["match"].tolist() == ["12", "345"]
    assert out["match_idx"].tolist() == [0, 1]


def test_global_topk_across_batches(ray_session):
    rng = np.random.default_rng(2)
    df = pd.DataFrame({"id": np.arange(1000, dtype=np.int64),
                       "v": rng.permutation(1000).astype(np.float64)})
    out = (global_topk(rd.from_pandas(df).repartition(8), ["v", "id"], 5,
                       ascending=[False, True]).to_pandas())
    want = df.sort_values(["v", "id"], ascending=[False, True]).head(5)
    assert out["id"].tolist() == want["id"].tolist()
    asc = global_topk(rd.from_pandas(df).repartition(8), "v", 3,
                      ascending=True).to_pandas()
    assert asc["v"].tolist() == [0.0, 1.0, 2.0]


def test_melt_include_nulls_and_order(ray_session):
    from capelinker_ray.stages.reshape import melt
    df = pd.DataFrame({"id": [1, 2], "a": [1.0, np.nan], "b": [3.0, 4.0]})
    out = (melt(rd.from_pandas(df), "id", ["a", "b"])
           .to_pandas().sort_values(["id", "variable"])
           .reset_index(drop=True))
    assert len(out) == 4                       # nulls kept
    assert out["variable"].tolist() == ["a", "b", "a", "b"]
    assert out.loc[0, "value"] == 1.0 and pd.isna(out.loc[2, "value"])


def test_share_of_group_sums_to_one(ray_session, monkeypatch):
    from capelinker_ray.stages import grouped
    from capelinker_ray.stages.reshape import share_of_group
    df = pd.DataFrame({"k": [1, 1, 1, 2, 2, 3],
                       "v": [1.0, 2.0, 3.0, 5.0, np.nan, 0.0]})
    monkeypatch.setattr(grouped, "shuffle_width", lambda n_rows, cap=None: 4)
    out = share_of_group(rd.from_pandas(df).repartition(3), "k",
                         "v").to_pandas()
    s1 = out[out["k"] == 1]["share"]
    assert np.isclose(s1.sum(), 1.0)
    # null value -> null share, but doesn't break the group total
    k2 = out[out["k"] == 2].sort_values("v")
    assert k2["share"].tolist()[0] == 1.0 or np.isclose(
        k2.dropna(subset=["share"])["share"].iloc[0], 1.0)
    # zero-total group -> null share (0/0)
    assert out[out["k"] == 3]["share"].isna().all()
