"""hash_join / broadcast_join vs pandas merge ground truth."""

import numpy as np
import pandas as pd
import ray.data as rd

from capelinker_ray.stages.join import broadcast_join, hash_join


def _l():
    return pd.DataFrame({"k": ["a", "b", "b", "c", None],
                         "lv": [1, 2, 3, 4, 5]})


def _r():
    return pd.DataFrame({"k": ["b", "c", "d"], "rv": [10, 20, 30]})


def _sorted(df):
    return (df.sort_values(list(df.columns))
            .reset_index(drop=True)[sorted(df.columns)])


def test_hash_join_inner(ray_session):
    out = hash_join(rd.from_pandas(_l()), rd.from_pandas(_r()),
                    on="k", how="inner").to_pandas()
    exp = _l().merge(_r(), on="k", how="inner")
    pd.testing.assert_frame_equal(_sorted(out), _sorted(exp),
                                  check_dtype=False)


def test_hash_join_left_keeps_unmatched(ray_session):
    out = hash_join(rd.from_pandas(_l()), rd.from_pandas(_r()),
                    on="k", how="left").to_pandas()
    assert len(out) == len(_l().merge(_r(), on="k", how="left"))
    missing = out[out["rv"].isna()]
    assert set(missing["lv"]) == {1, 5}


def test_hash_join_semi(ray_session):
    out = hash_join(rd.from_pandas(_l()), rd.from_pandas(_r()),
                    on="k", how="semi").to_pandas()
    # EXISTS: b,b,c match; no duplication from the two 'b' right rows if
    # the right side had dupes; null key never matches
    assert sorted(out.columns) == ["k", "lv"]
    assert sorted(out["lv"]) == [2, 3, 4]


def test_hash_join_semi_no_fanout_on_duplicate_right(ray_session):
    r = pd.DataFrame({"k": ["b", "b", "b", "c"], "rv": [1, 2, 3, 4]})
    out = hash_join(rd.from_pandas(_l()), rd.from_pandas(r),
                    on="k", how="semi").to_pandas()
    assert sorted(out["lv"]) == [2, 3, 4]      # one output row per left row


def test_hash_join_anti_keeps_null_keys(ray_session):
    out = hash_join(rd.from_pandas(_l()), rd.from_pandas(_r()),
                    on="k", how="anti").to_pandas()
    # NOT EXISTS: 'a' unmatched and the null-keyed row is retained
    assert sorted(out.columns) == ["k", "lv"]
    assert sorted(out["lv"]) == [1, 5]


def test_hash_join_semi_anti_keep_left_column_order(ray_session,
                                                    monkeypatch):
    """semi/anti return the left's columns in the left's order on both the
    broadcast and the shuffle path (the key is not moved first)."""
    from capelinker_ray.stages import join
    left = rd.from_pandas(_l()[["lv", "k"]])
    for gate in (join.BROADCAST_MAX_BYTES, 0):
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", gate)
        for how in ("semi", "anti"):
            out = hash_join(left, rd.from_pandas(_r()), on="k", how=how)
            assert out.schema().names == ["lv", "k"], (gate, how)
            assert list(out.to_pandas().columns) == ["lv", "k"], (gate, how)


def test_hash_join_anti_right_on(ray_session):
    r = _r().rename(columns={"k": "kk"})
    out = hash_join(rd.from_pandas(_l()), rd.from_pandas(r),
                    on="k", right_on="kk", how="anti").to_pandas()
    assert sorted(out["lv"]) == [1, 5]


def test_hash_join_right_on_and_collision(ray_session):
    r = _r().rename(columns={"k": "kk"})
    r["lv"] = [100, 200, 300]  # name collision with left value col
    out = hash_join(rd.from_pandas(_l()), rd.from_pandas(r),
                    on="k", right_on="kk", how="inner").to_pandas()
    assert "lv" in out.columns and "lv_r" in out.columns
    assert set(out["lv_r"]) == {100, 200}


def test_broadcast_join(ray_session):
    out = broadcast_join(rd.from_pandas(_l()), _r(), on="k",
                         how="left").to_pandas()
    exp = _l().merge(_r(), on="k", how="left")
    pd.testing.assert_frame_equal(_sorted(out), _sorted(exp),
                                  check_dtype=False)


def test_broadcast_join_inner_and_arrow_right(ray_session):
    import pyarrow as pa
    out = broadcast_join(rd.from_pandas(_l()),
                         pa.Table.from_pandas(_r()), on="k",
                         how="inner").to_pandas()
    exp = _l().merge(_r(), on="k", how="inner")
    pd.testing.assert_frame_equal(_sorted(out), _sorted(exp),
                                  check_dtype=False)


def test_broadcast_join_duplicate_right_keys_fallback(ray_session):
    r = pd.DataFrame({"k": ["b", "b", "c"], "rv": [10, 11, 20]})
    out = broadcast_join(rd.from_pandas(_l()), r, on="k",
                         how="left").to_pandas()
    exp = _l().merge(r, on="k", how="left")
    pd.testing.assert_frame_equal(_sorted(out), _sorted(exp),
                                  check_dtype=False)


def test_broadcast_join_right_on_and_collision(ray_session):
    r = _r().rename(columns={"k": "kk"})
    r["lv"] = [100, 200, 300]
    out = broadcast_join(rd.from_pandas(_l()), r, on="k",
                         right_on="kk", how="left").to_pandas()
    assert "lv" in out.columns and "lv_r" in out.columns
    exp = _l().merge(r.rename(columns={"kk": "k"}), on="k", how="left",
                     suffixes=("", "_r"))
    pd.testing.assert_frame_equal(_sorted(out), _sorted(exp),
                                  check_dtype=False)


def test_hash_join_outer_retains_both_sides(ray_session):
    r = pd.DataFrame({"k": ["b", "x", None], "rv": [10, 30, 99]})
    out = hash_join(rd.from_pandas(_l()), rd.from_pandas(r),
                    on="k", how="outer").to_pandas()
    # matched: b,b; left-only: a, c, null-key lv=5; right-only: x, null-key
    assert len(out) == 7
    assert sorted(out.loc[out["rv"].notna() & out["lv"].notna(), "lv"]) \
        == [2, 3]
    left_only = out[out["rv"].isna()]
    assert sorted(left_only["lv"]) == [1, 4, 5]
    right_only = out[out["lv"].isna()]
    assert sorted(right_only["rv"]) == [30, 99]
    # SQL semantics: the two null-keyed rows do NOT join each other
    assert out[(out["lv"] == 5) & (out["rv"] == 99)].empty


def test_hash_join_outer_right_on_keys_populated(ray_session):
    r = _r().rename(columns={"k": "kk"})
    out = hash_join(rd.from_pandas(_l()), rd.from_pandas(r),
                    on="k", right_on="kk", how="outer").to_pandas()
    ronly = out[out["lv"].isna()]
    assert sorted(ronly["k"]) == ["d"]     # right key mapped onto left name
