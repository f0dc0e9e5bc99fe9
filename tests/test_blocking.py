"""Blocking-stage oracles: the reference candidates() roxygen fixture,
outer retention, salting exactness, numeric band join."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from capelinker_ray.stages.blocking import (
    broadcast_jw_candidates,
    candidates,
    numeric_candidates,
)


def _d1():
    # candidates.R:27-28 fixture
    return pd.DataFrame({"mlast": ["jong", "smid", "nauda"], "persid": [1, 2, 3]})


def _d2():
    return pd.DataFrame({"mlast": ["jongh", "jong", "smit", "veld"], "persid": [1, 2, 3, 4]})


def _with_key(df, key="k"):
    df = df.copy()
    df["block_key"] = key  # single coarse block -> full cross comparison
    return df


def test_bigram_blocking_roxygen_fixture(ray_session):
    """candidates(d1, d2) with the vignette's maxdist=0.5: bigram cosine >
    0.5 gives jong->{jongh (0.73), jong (1.0)}, smid->smit (0.6),
    nauda->no candidate (NA row retained by the outer merge)."""
    f = rd.from_pandas(_with_key(_d1()))
    t = rd.from_pandas(_with_key(_d2()))
    out = candidates(f, t, id_col="persid", blocktype="bigram",
                     blockvariable="mlast", maxdist=0.5).to_pandas()
    got = {(r.persid_from, r.persid_to) for r in out.itertuples() if pd.notna(r.persid_to)}
    assert got == {(1, 1), (1, 2), (2, 3)}
    # outer retention: nauda (persid 3) kept with NA to-side
    na_rows = out[out["persid_to"].isna()]
    assert list(na_rows["persid_from"]) == [3]
    assert na_rows["matches"].iloc[0] == 0.0
    # exact-match pair scores 1.0
    exact = out[(out["persid_from"] == 1) & (out["persid_to"] == 2)]
    assert exact["score"].iloc[0] == pytest.approx(1.0)
    # matches = candidates per from record
    m = out.set_index(["persid_from", "persid_to"])["matches"]
    assert m[(1, 1)] == 2.0 and m[(2, 3)] == 1.0


def test_stringdist_blocking_scores_are_distances(ray_session):
    f = rd.from_pandas(_with_key(_d1()))
    t = rd.from_pandas(_with_key(_d2()))
    out = candidates(f, t, id_col="persid", blocktype="stringdist",
                     blockvariable="mlast", maxdist=0.15).to_pandas()
    real = out[out["persid_to"].notna()]
    # score is the JW(p=0.1) *distance*, as in the reference branch
    assert (real["score"] < 0.15).all()
    assert {(r.persid_from, r.persid_to) for r in real.itertuples()} == {(1, 1), (1, 2), (2, 3)}


def test_equality_blocking_and_salting_exactness(ray_session):
    """Salted split of a hot block must yield exactly the same pair set and
    matches values as the unsalted run."""
    rng = np.random.default_rng(0)
    nf, nt = 40, 30
    f = pd.DataFrame({"conv_id": [f"f{i}" for i in range(nf)],
                      "block_key": ["HOT"] * (nf - 5) + [f"k{i}" for i in range(5)],
                      "x": rng.normal(size=nf)})
    t = pd.DataFrame({"conv_id": [f"t{i}" for i in range(nt)],
                      "block_key": ["HOT"] * (nt - 3) + [f"k{i}" for i in range(3)],
                      "x": rng.normal(size=nt)})

    def run(cap):
        out = candidates(rd.from_pandas(f), rd.from_pandas(t),
                         blocktype="equality", max_block_pairs=cap).to_pandas()
        real = out[out["conv_id_to"].notna()]
        pairs = set(zip(real["conv_id_from"], real["conv_id_to"]))
        matches = real.set_index(["conv_id_from", "conv_id_to"])["matches"].to_dict()
        na = set(out.loc[out["conv_id_to"].isna(), "conv_id_from"])
        return pairs, matches, na

    p_big, m_big, na_big = run(10**9)   # no salting
    p_small, m_small, na_small = run(100)  # HOT (35x27=945 pairs) gets salted
    assert p_big == p_small
    assert m_big == m_small
    assert na_big == na_small
    assert len(p_big) == 35 * 27 + 3  # hot cross + k0..k2 matched singles
    assert na_big == {"f38", "f39"}  # k3, k4 have no to-side


def test_self_link_candidates(ray_session):
    df = pd.DataFrame({"conv_id": ["a", "b", "c", "d"],
                       "block_key": ["K", "K", "K", "L"]})
    out = candidates(rd.from_pandas(df), None, blocktype="equality").to_pandas()
    real = out[out["conv_id_to"].notna()]
    got = set(zip(real["conv_id_from"], real["conv_id_to"]))
    assert got == {("a", "b"), ("a", "c"), ("b", "c")}


def test_numeric_band_join(ray_session):
    f = pd.DataFrame({"persid": [1, 2, 3], "year": [1800.0, 1810.0, 1825.0]})
    t = pd.DataFrame({"persid": [10, 11, 12], "year": [1801.0, 1815.0, 1880.0]})
    # gk with sigma=2: sim = exp(-|dx|/4); maxdist .5 -> keep |dx| < 4*ln2 ≈ 2.77
    out = numeric_candidates(rd.from_pandas(f), rd.from_pandas(t),
                             value_col="year", id_col="persid",
                             sigma=2.0, maxdist=0.5).to_pandas()
    real = out[out["persid_to"].notna()]
    assert set(zip(real["persid_from"], real["persid_to"])) == {(1, 10)}
    assert real["score"].iloc[0] == pytest.approx(np.exp(-1 / 4))
    # unmatched from-rows 2 and 3 kept as single NA rows
    na = out[out["persid_to"].isna()]
    assert sorted(na["persid_from"]) == [2, 3]


def test_broadcast_jw_candidates(ray_session):
    f = rd.from_pandas(_d1())
    out = broadcast_jw_candidates(f, _d2(), blockvariable="mlast",
                                  id_col="persid", maxdist=0.15).to_pandas()
    real = out[out["persid_to"].notna()]
    assert {(r.persid_from, r.persid_to) for r in real.itertuples()} == {(1, 1), (1, 2), (2, 3)}
    assert set(out.loc[out["persid_to"].isna(), "persid_from"]) == {3}


def test_pair_exchange_width_invariant(ray_session, monkeypatch):
    """The pair exchange forced to width 1 and to width 8 gives the same
    pairs and features: self-link and two-sided, with salted hot
    blocks."""
    from capelinker_ray import synth
    from capelinker_ray.pipelines.linkage import PAIR_ATTR_COLS
    from capelinker_ray.stages import grouped
    from capelinker_ray.stages.conv_records import build_conv_records
    from capelinker_ray.stages.features import add_pair_features
    from capelinker_ray.stages.normalize import normalize_turns

    turns, _ = synth.gen_corpus(n_entities=60, seed=7, hot_frac=0.1)
    recs = build_conv_records(
        normalize_turns(rd.from_arrow(turns))).to_pandas()
    side = np.arange(len(recs)) % 2 == 0
    kw = dict(block_col="block_key", id_col="conv_id",
              attr_cols=PAIR_ATTR_COLS, max_block_pairs=50)
    keys = ["conv_id_from", "conv_id_to"]

    def run(width):
        monkeypatch.setattr(grouped, "heavy_width",
                            lambda n_rows, cap: width)
        self_link = candidates(rd.from_pandas(recs), None,
                               keep_unmatched=False, **kw)
        two_sided = candidates(rd.from_pandas(recs[side]),
                               rd.from_pandas(recs[~side]), **kw)
        return [add_pair_features(c).to_pandas().sort_values(keys)
                .reset_index(drop=True) for c in (self_link, two_sided)]

    narrow, wide = run(1), run(8)
    assert len(narrow[0]) > 0
    assert narrow[1]["conv_id_to"].notna().any()
    for a, b in zip(narrow, wide):
        pd.testing.assert_frame_equal(a, b[a.columns])
