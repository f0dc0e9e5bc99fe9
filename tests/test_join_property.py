"""Property tests on randomized frames: broadcast_join ≡ pandas merge, and
hash_join ≡ SQL-semantics merge on both of its paths.

Exercises the per-worker indexed fast path (unique right keys), the
duplicate-key fallback / fan-out, null keys on both sides, int/object
value columns, and empty sides (stages/join.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from capelinker_ray.stages.join import broadcast_join


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    out = df.copy()
    for c in out.columns:
        # unify missing markers / int-vs-float representation for compare
        out[c] = out[c].astype(object).where(out[c].notna(), None)
        out[c] = out[c].map(
            lambda v: float(v) if isinstance(v, (int, np.integer,
                                                 float, np.floating))
            else v)
    return (out.sort_values(list(out.columns))
            .reset_index(drop=True)[sorted(out.columns)])


@st.composite
def frames(draw):
    keys = draw(st.lists(
        st.one_of(st.sampled_from(["a", "b", "c", "d", "e"]), st.none()),
        min_size=0, max_size=25))
    left = pd.DataFrame({
        "k": pd.Series(keys, dtype=object),
        "lv": np.arange(len(keys), dtype=np.int64),
    })
    rkeys = draw(st.lists(
        st.sampled_from(["a", "b", "c", "x", "y"]),
        min_size=0, max_size=8))
    unique_right = draw(st.booleans())
    if unique_right:
        rkeys = sorted(set(rkeys))
    right = pd.DataFrame({
        "k": pd.Series(rkeys, dtype=object),
        "rv_int": np.arange(len(rkeys), dtype=np.int64),
        "rv_obj": [f"v{i}" for i in range(len(rkeys))],
    })
    how = draw(st.sampled_from(["left", "inner"]))
    return left, right, how


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(frames())
def test_broadcast_join_matches_pandas_merge(ray_session, case):
    left, right, how = case
    assume(len(left) > 0)  # Ray can't build a 0-row from_pandas dataset
    ds = broadcast_join(rd.from_pandas(left), right, on="k", how=how)
    exp = left.merge(right, on="k", how=how)
    if len(exp) == 0:
        # ray 2.49 to_pandas() drops columns on 0-row datasets; the typed
        # schema is still correct on the dataset itself
        assert ds.count() == 0
        assert set(ds.schema().names) == set(exp.columns)
        return
    pd.testing.assert_frame_equal(_norm(ds.to_pandas()), _norm(exp),
                                  check_dtype=False)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(frames())
def test_hash_join_semi_anti_matches_pandas(ray_session, case):
    from capelinker_ray.stages.join import hash_join
    left, right, _ = case
    assume(len(left) > 0 and len(right) > 0)
    rset = set(right["k"].dropna())
    for how in ("semi", "anti"):
        out = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                        on="k", how=how).to_pandas()
        if how == "semi":
            exp = left[left["k"].isin(rset)]
        else:  # NOT EXISTS keeps null-keyed left rows
            exp = left[~left["k"].isin(rset) | left["k"].isna()]
        if len(exp) == 0:
            # Ray's to_pandas drops columns on 0 rows (schema() keeps them)
            assert len(out) == 0, how
        else:
            assert sorted(out["lv"]) == sorted(exp["lv"]), how


_LSCHEMA = pa.schema([("k", pa.string()), ("lv", pa.int64())])
_RSCHEMA = pa.schema([("k", pa.string()), ("rv_int", pa.int64()),
                      ("rv_obj", pa.string())])


@st.composite
def sql_frames(draw):
    """Both sides may be empty; both may hold null keys; right keys may
    repeat (fan-out)."""
    lkeys = draw(st.lists(st.one_of(st.sampled_from("abcde"), st.none()),
                          max_size=20))
    rkeys = draw(st.lists(st.one_of(st.sampled_from("abcxy"), st.none()),
                          max_size=8))
    left = pd.DataFrame({"k": pd.Series(lkeys, dtype=object),
                         "lv": np.arange(len(lkeys), dtype=np.int64)})
    right = pd.DataFrame({"k": pd.Series(rkeys, dtype=object),
                          "rv_int": np.arange(len(rkeys), dtype=np.int64),
                          "rv_obj": [f"v{i}" for i in range(len(rkeys))]})
    return left, right


def _sql_expected(left, right, how):
    """SQL semantics via pandas: a null key matches nothing."""
    rvalid = right[right["k"].notna()]
    if how in ("inner", "left"):
        return left.merge(rvalid, on="k", how=how)
    hit = left["k"].isin(set(rvalid["k"])) & left["k"].notna()
    return left[hit] if how == "semi" else left[~hit]


@pytest.mark.parametrize("gate", ["default", 0])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sql_frames())
def test_hash_join_matches_sql_merge_both_paths(ray_session, gate, case):
    """hash_join ≡ SQL-semantics merge for inner/left/semi/anti, on the
    broadcast path (default gate at this size) and on the shuffle path
    (gate forced to 0 bytes)."""
    from unittest import mock

    from capelinker_ray.stages import join
    left, right = case
    lds = rd.from_arrow(pa.Table.from_pandas(left, schema=_LSCHEMA,
                                             preserve_index=False))
    rds = rd.from_arrow(pa.Table.from_pandas(right, schema=_RSCHEMA,
                                             preserve_index=False))
    limit = join.BROADCAST_MAX_BYTES if gate == "default" else gate
    with mock.patch.object(join, "BROADCAST_MAX_BYTES", limit):
        for how in ("inner", "left", "semi", "anti"):
            out = join.hash_join(lds, rds, on="k", how=how)
            exp = _sql_expected(left, right, how)
            # one output schema on both paths, whatever the row count
            assert out.schema().names == list(exp.columns), how
            got = out.to_pandas()
            if len(exp) == 0:
                assert len(got) == 0, how
                continue
            pd.testing.assert_frame_equal(_norm(got), _norm(exp),
                                          check_dtype=False, obj=how)
