"""Preflight profiler + multimodal plumbing + features stage oracles."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from capelinker_ray.stages.features import distcalc
from capelinker_ray.stages.multimodal import (
    N_FEATURES, fake_media_table, featurize_media,
)
from capelinker_ray.stages.preflight import preflight


def test_preflight_shares(ray_session):
    df = pd.DataFrame({
        "name": ["ABC", "", None, " x ", "Zz1"],
        "num": [1.0, 2.0, None, 4.0, 100.0],
    })
    rep = preflight(rd.from_pandas(df)).set_index("column")
    assert rep.loc["name", "n_missing"] == 1
    assert rep.loc["name", "n_empty"] == 1          # ""≠NA (prep.R:127-131)
    assert rep.loc["name", "n_ws_padded"] == 1
    assert rep.loc["num", "vmin"] == 1.0 and rep.loc["num", "vmax"] == 100.0


def test_preflight_model_variable_check(ray_session):
    df = pd.DataFrame({"first_textdist": [0.1]})
    with pytest.raises(KeyError, match="requires features"):
        preflight(rd.from_pandas(df), model="m_boost_transcripts")


def test_media_featurize_fake(ray_session):
    ds = rd.from_arrow(fake_media_table(n=16, seed=3))
    out = featurize_media(ds, fake=True).to_pandas()
    assert len(out) == 16
    feats = np.stack(out["media_features"].to_numpy())
    assert feats.shape == (16, N_FEATURES)
    np.testing.assert_allclose(feats.sum(axis=1), 1.0, atol=1e-5)


def test_media_featurize_stub_raises(ray_session):
    # raises at the call, before any task runs
    ds = rd.from_arrow(fake_media_table(n=4, seed=3))
    with pytest.raises(NotImplementedError):
        featurize_media(ds, fake=False)


def test_media_resize_fake(ray_session):
    from capelinker_ray.stages.multimodal import resize_media
    ds = rd.from_arrow(fake_media_table(n=12, seed=3))
    out = resize_media(ds, target_width=8, target_height=4,
                       fake=True).to_pandas()
    assert len(out) == 12
    assert (out["meta_width"] == 8).all() and (out["meta_height"] == 4).all()
    assert (out["n_bytes"] == 32).all()
    assert out["payload"].map(len).eq(32).all()
    # deterministic: same input -> same resized bytes
    out2 = resize_media(rd.from_arrow(fake_media_table(n=12, seed=3)),
                        target_width=8, target_height=4,
                        fake=True).to_pandas()
    a = out.sort_values("media_id")["payload"].tolist()
    b = out2.sort_values("media_id")["payload"].tolist()
    assert a == b


def test_media_sample_frames_fake(ray_session):
    from capelinker_ray.stages.multimodal import sample_frames
    tbl = fake_media_table(n=15, seed=3, with_video=True)
    n_video = sum(1 for t in tbl["media_type"].to_pylist() if t == "video")
    assert n_video == 3
    out = sample_frames(rd.from_arrow(tbl), n_frames=4,
                        fake=True).to_pandas()
    # one image row per (video, frame); non-video rows dropped
    assert len(out) == n_video * 4
    assert (out["media_type"] == "image").all()
    assert set(out["frame_idx"]) == {0, 1, 2, 3}
    # frames of one video reassemble to the original payload (fake slicer)
    orig = {m: p for m, p, t in zip(tbl["media_id"].to_pylist(),
                                    tbl["payload"].to_pylist(),
                                    tbl["media_type"].to_pylist())
            if t == "video"}
    for mid, g in out.groupby("media_id"):
        joined = b"".join(g.sort_values("frame_idx")["payload"])
        assert joined == orig[mid]


def test_media_frame_sampler_stub_raises(ray_session):
    from capelinker_ray.stages.multimodal import resize_media, sample_frames
    ds = rd.from_arrow(fake_media_table(n=5, seed=3, with_video=True))
    with pytest.raises(NotImplementedError):
        sample_frames(ds, fake=False)
    with pytest.raises(NotImplementedError):
        resize_media(ds, target_width=8, target_height=8, fake=False)


def test_distcalc_reference_semantics(ray_session):
    # distances.R:15-20 fixture shape: char var -> dist + sdx; numeric -> diff
    df = pd.DataFrame({
        "mlast_from": ["jong", "smid", None],
        "mlast_to": ["jongh", "smit", "x"],
        "year_from": [1828.0, 1829.0, 1830.0],
        "year_to": [1800.0, 1829.0, np.nan],
    })
    out = distcalc(rd.from_pandas(df), character_variables=["mlast"],
                   numeric_variables=["year"]).to_pandas()
    assert out["mlastdist"].iloc[0] == pytest.approx(1 - 0.96, abs=1e-9)
    assert out["mlastsdx"].iloc[1] == 0.0          # smid/smit same soundex
    assert np.isnan(out["mlastdist"].iloc[2])      # NA propagation
    assert out["yeardist"].iloc[0] == 28.0
    assert np.isnan(out["yeardist"].iloc[2])


def test_read_jsonl_roundtrip(ray_session, tmp_path):
    import json

    from capelinker_ray.sources.io import read_jsonl
    rows = [{"conv_id": f"c{i}", "turn_idx": i, "text": f"hello {i}",
             "extra": i * 2} for i in range(25)]
    p = tmp_path / "turns.jsonl"
    with open(p, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
    out = read_jsonl(str(p), columns=["conv_id", "turn_idx", "text"])\
        .to_pandas().sort_values("turn_idx").reset_index(drop=True)
    assert list(out.columns) == ["conv_id", "turn_idx", "text"]
    assert len(out) == 25 and out["text"][3] == "hello 3"


def test_pivot_counts_matches_pandas_crosstab(ray_session):
    from capelinker_ray.stages.pivot import pivot_counts
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "u": rng.integers(0, 20, 500).astype(str),
        "t": rng.choice(["a", "b", "c"], 500),
    })
    out = (pivot_counts(rd.from_pandas(df).repartition(6),
                        index="u", pivot="t")
           .to_pandas().sort_values("u").reset_index(drop=True))
    exp = (pd.crosstab(df["u"], df["t"]).reindex(columns=["a", "b", "c"],
                                                 fill_value=0)
           .reset_index().rename_axis(None, axis=1)
           .sort_values("u").reset_index(drop=True))
    exp.columns = ["u", "a", "b", "c"]
    pd.testing.assert_frame_equal(out[["u", "a", "b", "c"]], exp,
                                  check_dtype=False)


def test_pivot_counts_sum_mode_and_explicit_values(ray_session):
    from capelinker_ray.stages.pivot import pivot_counts
    df = pd.DataFrame({"u": ["x", "x", "y"], "t": ["a", "b", "a"],
                       "v": [1.5, 2.0, 3.0]})
    out = (pivot_counts(rd.from_pandas(df), index="u", pivot="t",
                        values=["a", "b", "z"], sum_col="v")
           .to_pandas().sort_values("u").reset_index(drop=True))
    assert list(out.loc[0, ["a", "b", "z"]]) == [1.5, 2.0, 0.0]
    assert list(out.loc[1, ["a", "b", "z"]]) == [3.0, 0.0, 0.0]


def test_clean_documents_ws_case_null(ray_session):
    from capelinker_ray.stages.normalize import clean_documents
    df = pd.DataFrame({"doc_id": [0, 1, 2],
                       "text": ["  Hello\t\tWORLD \n again ", None, "ok"]})
    out = (clean_documents(rd.from_pandas(df)).to_pandas()
           .sort_values("doc_id"))
    assert out["text_clean"].tolist() == ["hello world again", "", "ok"]
    assert out["text"].tolist()[0] == "  Hello\t\tWORLD \n again "  # kept


def test_union_by_name_null_fill_and_order(ray_session):
    from capelinker_ray.stages.setops import union_by_name
    a = pd.DataFrame({"x": [1, 2], "y": ["p", "q"]})
    b = pd.DataFrame({"y": ["r"], "z": [9.5]})
    out = (union_by_name(rd.from_pandas(a), rd.from_pandas(b))
           .to_pandas().sort_values(["y"]).reset_index(drop=True))
    assert list(out.columns) == ["x", "y", "z"]
    assert out["x"].tolist()[:2] == [1, 2] and pd.isna(out["x"]).tolist() \
        == [False, False, True]
    assert pd.isna(out["z"]).tolist() == [True, True, False]


def test_union_by_name_single_and_empty_args(ray_session):
    import pytest
    from capelinker_ray.stages.setops import union_by_name
    a = pd.DataFrame({"x": [1]})
    assert union_by_name(rd.from_pandas(a)).to_pandas()["x"].tolist() == [1]
    with pytest.raises(ValueError):
        union_by_name()


def test_winsorize_clips_to_exact_quantiles(ray_session):
    from capelinker_ray.stages.scan import winsorize
    df = pd.DataFrame({"v": np.arange(1, 101, dtype=np.float64)})
    out, lo, hi = winsorize(rd.from_pandas(df).repartition(4), "v",
                            lower_q=0.1, upper_q=0.9)
    res = out.to_pandas()
    assert lo == 10.0 and hi == 90.0          # quantile_disc parity
    assert res["v_winsor"].min() == 10.0
    assert res["v_winsor"].max() == 90.0
    mid = res[(res["v"] > 10) & (res["v"] < 90)]
    assert (mid["v_winsor"] == mid["v"]).all()


def test_group_centroids_wide_and_long(ray_session):
    from capelinker_ray.stages.agg import group_centroids
    vecs = [np.array([1.0, 0.0], np.float32),
            np.array([3.0, 2.0], np.float32),
            np.array([0.0, 8.0], np.float32)]
    df = pd.DataFrame({"lbl": [0, 0, 1], "v": vecs})
    wide = (group_centroids(rd.from_pandas(df).repartition(3),
                            "lbl", "v")
            .to_pandas().sort_values("lbl").reset_index(drop=True))
    assert np.allclose(wide.loc[0, "centroid"], [2.0, 1.0])
    assert np.allclose(wide.loc[1, "centroid"], [0.0, 8.0])
    assert wide["n"].tolist() == [2, 1]
    long = (group_centroids(rd.from_pandas(df), "lbl", "v",
                            long_form=True).to_pandas()
            .sort_values(["lbl", "dim"]).reset_index(drop=True))
    assert long["mean_val"].tolist() == [2.0, 1.0, 0.0, 8.0]


def test_check_rules_counts_and_null_violation(ray_session):
    import pytest
    from capelinker_ray.stages.quality import check_rules
    df = pd.DataFrame({"x": [1.0, -2.0, np.nan, 5.0],
                       "s": ["a", "b", "a", "c"]})
    out = (check_rules(rd.from_pandas(df).repartition(3),
                       {"x_pos": "x >= 0",
                        "s_known": "s in ('a', 'b')"})
           .to_pandas().set_index("rule"))
    # null x violates the strict gate; -2 violates
    assert out.loc["x_pos", "violations"] == 2
    assert out.loc["s_known", "violations"] == 1
    assert (out["checked"] == 4).all()
    with pytest.raises(ValueError):
        check_rules(rd.from_pandas(df), {})
