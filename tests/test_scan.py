"""Distributed prefix scan (stages/scan.py) vs pandas cumsum ground truth."""

import numpy as np
import pandas as pd
import ray.data as rd

from capelinker_ray.stages.scan import pack_by_budget, running_total


def _df(n=1000, seed=2):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "id": rng.permutation(n).astype(np.int64),   # UNSORTED input
        "n": rng.integers(0, 500, n).astype(np.int64),
    })


def test_running_total_matches_cumsum(ray_session):
    df = _df()
    out = (running_total(rd.from_pandas(df).repartition(7), "n", "id")
           .to_pandas().sort_values("id").reset_index(drop=True))
    exp = df.sort_values("id").reset_index(drop=True)
    assert (out["running_total"].to_numpy()
            == exp["n"].cumsum().to_numpy()).all()
    assert (out["id"].to_numpy() == exp["id"].to_numpy()).all()


def test_running_total_null_counts_contribute_zero(ray_session):
    df = pd.DataFrame({"id": [1, 2, 3, 4],
                       "n": pd.array([10, None, 5, None],
                                     dtype="Int64")})
    out = (running_total(rd.from_pandas(df), "n", "id")
           .to_pandas().sort_values("id"))
    assert out["running_total"].tolist() == [10, 10, 15, 15]


def test_exact_quantiles_match_numpy_and_nulls(ray_session):
    import math

    from capelinker_ray.stages.scan import exact_quantiles
    rng = np.random.default_rng(4)
    vals = rng.integers(0, 10_000, 777).astype(np.int64)
    df = pd.DataFrame({"v": pd.array(list(vals) + [None, None],
                                     dtype="Int64")})
    out = exact_quantiles(rd.from_pandas(df).repartition(6), "v",
                          qs=(0.25, 0.5, 0.75))
    s = np.sort(vals)
    for q, v in zip(out["q"], out["value"]):
        assert v == float(s[max(1, math.ceil(q * len(s))) - 1])
    # empty column -> NaN frame, no crash
    empty = pd.DataFrame({"v": pd.array([None], dtype="Int64")})
    out2 = exact_quantiles(rd.from_pandas(empty), "v")
    assert out2["value"].isna().all()


def test_pack_by_budget_contiguous_shards(ray_session):
    df = _df(500, seed=9)
    out = (pack_by_budget(rd.from_pandas(df).repartition(5), "n", 1000,
                          "id")
           .to_pandas().sort_values("id").reset_index(drop=True))
    exp = df.sort_values("id").reset_index(drop=True)
    excl = exp["n"].cumsum() - exp["n"]
    assert (out["shard_id"].to_numpy() == (excl // 1000).to_numpy()).all()
    # shards are contiguous in id order and non-decreasing
    assert (np.diff(out["shard_id"].to_numpy()) >= 0).all()
    # every shard's exclusive start is under capacity of its boundary
    sizes = out.groupby("shard_id")["n"].sum()
    # all but possibly the last shard reach at least capacity incl. overshoot
    assert (sizes.iloc[:-1] + 500 - 1 >= 1000).all()


def test_grouped_quantiles_exact_per_group(ray_session):
    """quantile_disc rank rule within each group, incl. 1-row groups and
    nulls dropped."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from capelinker_ray.stages.scan import grouped_quantiles

    rng = np.random.default_rng(4)
    df = pd.DataFrame({
        "g": rng.choice(["x", "y", "z"], size=500),
        "v": rng.integers(0, 1000, 500).astype(float)})
    df.loc[df.index[:20], "v"] = np.nan
    df = pd.concat([df, pd.DataFrame({"g": ["solo"], "v": [42.0]})],
                   ignore_index=True)
    out = (grouped_quantiles(rd.from_pandas(df).repartition(6), "g", "v",
                             qs=(0.25, 0.5, 0.75)).to_pandas())
    import math
    for (g, q), grp in out.groupby(["g", "q"]):
        vals = np.sort(df.loc[df["g"].eq(g) & df["v"].notna(), "v"]
                       .to_numpy())
        rank = max(1, math.ceil(q * len(vals)))
        assert grp["value"].iloc[0] == vals[rank - 1], (g, q)
    assert set(out.loc[out["g"] == "solo", "value"]) == {42.0}


def test_grouped_running_total_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from capelinker_ray.stages.scan import grouped_running_total

    rng = np.random.default_rng(17)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], size=300),
        "o": rng.permutation(300),
        "v": rng.normal(5.0, 2.0, 300)})
    df.loc[df.index[:10], "v"] = np.nan          # nulls contribute 0
    out = (grouped_running_total(rd.from_pandas(df).repartition(5),
                                 "k", "v", order_by="o")
           .to_pandas().sort_values(["k", "o"]).reset_index(drop=True))
    exp = df.sort_values(["k", "o"]).reset_index(drop=True)
    exp["rt"] = (exp["v"].fillna(0.0).groupby(exp["k"].to_numpy())
                 .cumsum())
    np.testing.assert_allclose(out["running_total"], exp["rt"], rtol=1e-12)


def test_grouped_rolling_mean_matches_pandas(ray_session):
    from capelinker_ray.stages.scan import grouped_rolling_mean
    rng = np.random.default_rng(6)
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 300),
                       "t": rng.permutation(300),
                       "v": rng.normal(size=300)})
    df.loc[::17, "v"] = np.nan
    out = (grouped_rolling_mean(rd.from_pandas(df).repartition(5),
                                "k", "v", order_by="t", window=3)
           .to_pandas().sort_values(["k", "t"]).reset_index(drop=True))
    exp = df.sort_values(["k", "t"]).reset_index(drop=True)
    exp["rm"] = (exp.groupby("k")["v"].rolling(3, min_periods=1).mean()
                 .reset_index(level=0, drop=True))
    assert np.allclose(out["rolling_mean"], exp["rm"], equal_nan=True)


def test_grouped_percent_rank_matches_sql_semantics(ray_session):
    from capelinker_ray.stages.scan import grouped_percent_rank
    df = pd.DataFrame({"k": ["a"] * 4 + ["b"] * 1 + ["c"] * 3,
                       "v": [10.0, 10.0, 20.0, 30.0, 5.0,
                             1.0, np.nan, 2.0]})
    out = (grouped_percent_rank(rd.from_pandas(df), "k", "v")
           .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    # group a: ranks 1,1,3,4 -> pr 0, 0, 2/3, 1; singleton b -> 0;
    # group c: 1.0->0, 2.0->0.5, null ranks last -> 1.0
    got = dict(zip(zip(out["k"], out["v"].fillna(-1)), out["percent_rank"]))
    assert got[("a", 10.0)] == 0.0 and abs(got[("a", 20.0)] - 2/3) < 1e-12
    assert got[("a", 30.0)] == 1.0 and got[("b", 5.0)] == 0.0
    assert got[("c", 1.0)] == 0.0 and got[("c", 2.0)] == 0.5
    assert got[("c", -1)] == 1.0


def test_grouped_lag_diff_numeric_and_datetime(ray_session):
    from capelinker_ray.stages.scan import grouped_lag_diff
    df = pd.DataFrame({
        "k": ["a", "a", "a", "b", "b", "c"],
        "ord": [1, 2, 3, 1, 2, 1],
        "v": [10.0, 13.0, 12.0, 5.0, 9.0, 7.0]})
    out = (grouped_lag_diff(rd.from_pandas(df), "k", "v", order_by="ord")
           .to_pandas().sort_values(["k", "ord"]).reset_index(drop=True))
    assert out["lag_diff"].isna().tolist() == [True, False, False,
                                               True, False, True]
    assert out["lag_diff"].dropna().tolist() == [3.0, -1.0, 4.0]

    ts = pd.to_datetime(["2024-01-01 00:00:00", "2024-01-01 00:00:02.5",
                         "2024-01-01 00:01:00"], format="ISO8601")
    dfd = pd.DataFrame({"k": ["x"] * 3, "ord": [1, 2, 3], "t": ts})
    outd = (grouped_lag_diff(rd.from_pandas(dfd), "k", "t", order_by="ord")
            .to_pandas().sort_values("ord"))
    assert outd["lag_diff"].dropna().tolist() == [2.5, 57.5]   # seconds


def test_ntile_bucket_sizes_match_sql(ray_session):
    from capelinker_ray.stages.scan import ntile
    # n=10, k=3 -> bucket sizes 4,3,3 (first n%k buckets one larger)
    df = pd.DataFrame({"id": np.arange(10, dtype=np.int64)})
    out = (ntile(rd.from_pandas(df).repartition(4), order_by="id", k=3)
           .to_pandas().sort_values("id"))
    assert out["ntile"].tolist() == [1]*4 + [2]*3 + [3]*3
    # n < k: each row its own bucket 1..n
    small = pd.DataFrame({"id": np.arange(2, dtype=np.int64)})
    out2 = ntile(rd.from_pandas(small), order_by="id", k=5).to_pandas()
    assert sorted(out2["ntile"]) == [1, 2]


def test_rollup_sum_levels_and_grouping_id(ray_session):
    from capelinker_ray.stages.agg import rollup_sum
    df = pd.DataFrame({
        "a": ["x", "x", "y", "y"],
        "b": ["p", "q", "p", None],       # NULL key stays its own group
        "v": [1.0, 2.0, 4.0, 8.0]})
    out = (rollup_sum(rd.from_pandas(df).repartition(3), ["a", "b"], ["v"],
                      size_col="n")
           .to_pandas())
    fin = out[out["grouping_id"] == 0]
    assert len(fin) == 4
    assert fin.set_index(["a", "b"])["v"].to_dict()[("x", "q")] == 2.0
    # NULL b key survives as a finest-level group (dropna=False)
    assert fin[fin["b"].isna()]["v"].tolist() == [8.0]
    lvl1 = out[out["grouping_id"] == 1].set_index("a")["v"].to_dict()
    assert lvl1 == {"x": 3.0, "y": 12.0}
    total = out[out["grouping_id"] == 3]
    assert len(total) == 1 and total["v"].iloc[0] == 15.0
    assert total["n"].iloc[0] == 4 and total["a"].isna().all()


def test_mad_outliers_flags_planted_extremes(ray_session):
    from capelinker_ray.stages.scan import mad_outliers
    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.normal(100, 5, 500), [1000.0, -500.0]])
    df = pd.DataFrame({"id": np.arange(len(vals), dtype=np.int64),
                       "v": vals})
    out, med, mad = mad_outliers(rd.from_pandas(df).repartition(4), "v",
                                 k=3.0)
    res = out.to_pandas()
    assert 95 < med < 105 and mad > 0
    flagged = set(res[res["is_outlier"]]["id"])
    assert {500, 501} <= flagged
    assert len(flagged) < 20          # the bulk is not flagged


def test_histogram_counts_and_clamping(ray_session):
    from capelinker_ray.stages.agg import histogram
    df = pd.DataFrame({"v": [-5.0, 0.0, 1.5, 2.5, 9.99, 10.0, 50.0,
                             np.nan]})
    out = (histogram(rd.from_pandas(df).repartition(3), "v",
                     lo=0.0, hi=10.0, bins=5)
           .to_pandas().sort_values("bin").reset_index(drop=True))
    assert out["bin"].tolist() == [0, 1, 2, 3, 4]
    # -5 clamps into bin 0; 10.0 and 50.0 clamp into bin 4; nan skipped
    assert out["n"].tolist() == [3, 1, 0, 0, 3]
    assert out["lo_edge"].tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]


def test_grouped_range_sum_peers_and_edges(ray_session, monkeypatch):
    from capelinker_ray.stages import grouped
    from capelinker_ray.stages.scan import grouped_range_sum
    ts = pd.to_datetime([0, 50, 100, 100, 160, 0], unit="s")
    df = pd.DataFrame({"k": [1, 1, 1, 1, 1, 2],
                       "ts": ts,
                       "v": [1.0, 2.0, 4.0, 8.0, 16.0, 5.0],
                       "i": range(6)})
    monkeypatch.setattr(grouped, "shuffle_width", lambda n_rows, cap=None: 4)
    out = (grouped_range_sum(rd.from_pandas(df).repartition(3), "k", "ts",
                             "v", window_s=100.0)
           .to_pandas().sort_values("i"))
    # window [t-100, t] inclusive; exact-ts PEERS both included:
    # t=0: 1 | t=50: 3 | t=100 (both rows): 1+2+4+8=15 | t=160: 4+8+16=28
    assert out["range_sum"].tolist() == [1.0, 3.0, 15.0, 15.0, 28.0, 5.0]


def test_grouped_range_sum_skips_null_values(ray_session):
    from capelinker_ray.stages.scan import grouped_range_sum
    df = pd.DataFrame({"k": [1, 1],
                       "ts": pd.to_datetime([0, 10], unit="s"),
                       "v": [np.nan, 3.0]})
    out = (grouped_range_sum(rd.from_pandas(df), "k", "ts", "v", 60.0)
           .to_pandas().sort_values("ts"))
    assert out["range_sum"].tolist()[1] == 3.0


def test_grouped_zscore_matches_pandas_transform(ray_session):
    from capelinker_ray.stages.agg import grouped_zscore
    rng = np.random.default_rng(4)
    df = pd.DataFrame({
        "id": np.arange(300, dtype=np.int64),
        "g": rng.integers(0, 3, 300).astype(str),
        "x": rng.normal(10, 3, 300)})
    out = (grouped_zscore(rd.from_pandas(df).repartition(5), "g", "x")
           .to_pandas().sort_values("id").reset_index(drop=True))
    want = df.groupby("g")["x"].transform(
        lambda s: (s - s.mean()) / s.std(ddof=0))
    np.testing.assert_allclose(out["z"], want, rtol=1e-9)


def test_grouped_zscore_zero_variance_and_nulls(ray_session):
    from capelinker_ray.stages.agg import grouped_zscore
    df = pd.DataFrame({
        "id": np.arange(6, dtype=np.int64),
        "g": ["a", "a", "a", "b", "b", "b"],
        "x": [5.0, 5.0, 5.0, 1.0, None, 3.0]})
    out = (grouped_zscore(rd.from_pandas(df), "g", "x")
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert out[out["g"] == "a"]["z"].isna().all()   # zero variance
    assert pd.isna(out.loc[4, "z"])                 # null x
    assert not pd.isna(out.loc[3, "z"])


def test_group_concat_order_and_nulls(ray_session):
    from capelinker_ray.stages.agg import group_concat
    df = pd.DataFrame({
        "k": np.array([1, 1, 1, 2, 2], dtype=np.int64),
        "o": np.array([3, 1, 2, 2, 1], dtype=np.int64),
        "v": ["c", "a", None, "z", "y"]})
    out = (group_concat(rd.from_pandas(df).repartition(3), "k", "v",
                        order_cols="o")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert list(out["v_concat"]) == ["a,c", "y,z"]   # null skipped


def test_grouped_nunique_exact(ray_session):
    from capelinker_ray.stages.agg import grouped_nunique
    rng = np.random.default_rng(6)
    df = pd.DataFrame({
        "k": rng.integers(0, 20, 2000).astype(np.int64),
        "v": rng.integers(0, 15, 2000).astype(str)})
    df.loc[::50, "v"] = None
    out = (grouped_nunique(rd.from_pandas(df).repartition(7), "k", "v")
           .to_pandas().set_index("k")["n_distinct"])
    want = df.dropna(subset=["v"]).groupby("k")["v"].nunique()
    for k, n in want.items():
        assert out[k] == n


def test_exact_quantiles_interp_matches_numpy(ray_session):
    from capelinker_ray.stages.scan import exact_quantiles
    rng = np.random.default_rng(9)
    vals = rng.integers(0, 1000, 501).astype(np.int64)
    df = pd.DataFrame({"x": vals})
    out = exact_quantiles(rd.from_pandas(df).repartition(5), "x",
                          (0.1, 0.5, 0.9), interp=True)
    want = np.quantile(vals, [0.1, 0.5, 0.9])   # linear interpolation
    np.testing.assert_allclose(out["value"].to_numpy(), want, rtol=1e-12)
