"""Windowed-aggregate oracles: sessionize gap semantics, tumbling windows
via partial aggregation."""

import collections

import numpy as np
import pandas as pd
import ray.data as rd

from capelinker_ray.stages.events import (
    session_stats, sessionize, tumbling_window_agg,
)

_MIN_US = 60_000_000


def _events():
    rows = []
    eid = 0
    for user, offsets in [(1, [0, 5, 10, 50, 55]),      # 2 sessions (gap 40m)
                          (2, [0, 31, 62]),             # 3 sessions (31m gaps)
                          (3, [0])]:                    # 1 session
        for off in offsets:
            rows.append({"event_id": eid, "user_id": user,
                         "ts": pd.Timestamp("2025-01-01") +
                               pd.Timedelta(minutes=off),
                         "value": 1.0})
            eid += 1
    return pd.DataFrame(rows)


def test_sessionize_gaps(ray_session):
    out = sessionize(rd.from_pandas(_events()), gap_minutes=30).to_pandas()
    per_user = out.groupby("user_id")["session_idx"].max() + 1
    assert per_user.to_dict() == {1: 2, 2: 3, 3: 1}


def test_session_stats(ray_session):
    sess = sessionize(rd.from_pandas(_events()), gap_minutes=30)
    stats = session_stats(sess).to_pandas()
    s = stats.set_index("session_id")
    assert s.loc["1#0", "n_events"] == 3
    assert s.loc["1#1", "n_events"] == 2
    assert s.loc["3#0", "value_sum"] == 1.0


def test_tumbling_window_matches_pandas(ray_session):
    import ray
    df = _events()
    # several blocks, one partial row per (user, window) per block: the
    # merge must add partials of a group that spans blocks
    ds = rd.from_pandas(df).repartition(4).materialize()
    blocks = ray.get(ds.to_pandas_refs())
    span = collections.Counter(
        k for b in blocks
        for k in set(zip(b["user_id"], b["ts"].dt.floor("60min"))))
    assert max(span.values()) >= 2
    out = tumbling_window_agg(ds, window_minutes=60).to_pandas()
    ts_us = df["ts"].astype("datetime64[ns]").astype("int64") // 1000
    exp = (df.assign(window=(ts_us // (60 * _MIN_US)))
           .groupby(["user_id", "window"])
           .agg(n_events=("value", "size"), value_sum=("value", "sum"))
           .reset_index())
    out = out.sort_values(["user_id", "window"]).reset_index(drop=True)
    exp = exp.sort_values(["user_id", "window"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        out[["user_id", "window", "n_events", "value_sum"]].astype(
            {"n_events": np.int64}),
        exp.astype({"n_events": np.int64}), check_dtype=False)


def test_asof_join(ray_session):
    """Backward as-of join: latest right row with ts <= left ts per key;
    unmatched left rows keep nulls."""
    import pandas as pd
    from capelinker_ray.stages.events import asof_join
    L = pd.DataFrame({
        "user_id": ["a", "a", "a", "b", "c"],
        "ts": pd.to_datetime(["2024-01-01 10:00", "2024-01-01 11:00",
                              "2024-01-01 09:00", "2024-01-01 10:30",
                              "2024-01-02 00:00"]),
        "event_id": [1, 2, 3, 4, 5]})
    R = pd.DataFrame({
        "user_id": ["a", "a", "b"],
        "ts": pd.to_datetime(["2024-01-01 09:30", "2024-01-01 10:30",
                              "2024-01-01 10:00"]),
        "value": [1.5, 2.5, 9.0]})
    out = asof_join(rd.from_pandas(L), rd.from_pandas(R),
                    by="user_id").to_pandas()
    got = out.sort_values("event_id")
    assert list(got["value"].fillna(-1)) == [1.5, 2.5, -1, 9.0, -1]
    assert got["ts_r"].notna().tolist() == [True, True, False, True, False]


def test_asof_join_null_ts(ray_session):
    """Null-ts left rows stay unmatched instead of crashing merge_asof;
    null-ts right rows never match."""
    import pandas as pd
    from capelinker_ray.stages.events import asof_join
    L = pd.DataFrame({"user_id": ["a", "a"],
                      "ts": [pd.Timestamp("2024-01-01 10:00"), pd.NaT],
                      "event_id": [1, 2]})
    R = pd.DataFrame({"user_id": ["a", "a"],
                      "ts": [pd.Timestamp("2024-01-01 09:00"), pd.NaT],
                      "value": [7.0, 99.0]})
    out = asof_join(rd.from_pandas(L), rd.from_pandas(R),
                    by="user_id").to_pandas().sort_values("event_id")
    assert list(out["value"].fillna(-1)) == [7.0, -1]


def test_asof_join_bucketed_hot_key_parity(ray_session):
    """bucket_minutes splits a hot key across (key, time-bucket) partitions
    with carry-in of the latest earlier right row; output must equal the
    unbucketed join exactly — including buckets with left rows but no right
    rows (carry must skip empty buckets, not just look one bucket back)."""
    import pandas as pd
    import numpy as np
    from capelinker_ray.stages.events import asof_join
    rng = np.random.default_rng(3)
    base = pd.Timestamp("2024-01-01")
    # hot user: 400 left events over ~40 hours; right rows only in the
    # first quarter -> later buckets rely on multi-bucket carry
    hl = base + pd.to_timedelta(rng.integers(0, 40 * 60, 400), unit="m")
    hr = base + pd.to_timedelta(rng.integers(0, 10 * 60, 50), unit="m")
    L = pd.DataFrame({
        "user_id": ["hot"] * 400 + ["cold"] * 3,
        "ts": list(hl) + [base, base + pd.Timedelta("1h"), pd.NaT],
        "event_id": np.arange(403)})
    R = pd.DataFrame({
        "user_id": ["hot"] * 50 + ["cold"],
        "ts": list(hr) + [base + pd.Timedelta("30min")],
        "value": np.round(rng.normal(size=51), 4)})
    flat = asof_join(rd.from_pandas(L), rd.from_pandas(R),
                     by="user_id").to_pandas()
    bucketed = asof_join(rd.from_pandas(L), rd.from_pandas(R),
                         by="user_id", bucket_minutes=60.0).to_pandas()
    f = flat.sort_values("event_id").reset_index(drop=True)
    b = bucketed.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(f, b[f.columns])
    assert f["value"].notna().sum() > 300  # carries actually fired


def test_hopping_window_matches_pandas(ray_session):
    """Every event lands in exactly window/hop sliding windows; counts and
    sums match a brute-force expansion."""
    from capelinker_ray.stages.events import hopping_window_agg
    rng = np.random.default_rng(13)
    base = pd.Timestamp("2024-03-01 00:00:00")
    df = pd.DataFrame({
        "event_type": rng.choice(["a", "b"], size=400),
        "ts": base + pd.to_timedelta(rng.integers(0, 86_400, 400), unit="s"),
        "value": rng.normal(10.0, 2.0, 400)})
    out = (hopping_window_agg(rd.from_pandas(df).repartition(5),
                              window_minutes=60, hop_minutes=15)
           .to_pandas().sort_values(["event_type", "window_start_us"])
           .reset_index(drop=True))
    # brute force: replicate each event into its 4 windows
    hop = 15 * 60 * 1_000_000
    ts_us = df["ts"].astype("datetime64[ns]").astype("int64") // 1000
    rows = []
    for c in range(4):
        k = ts_us // hop - c
        rows.append(pd.DataFrame({"event_type": df["event_type"],
                                  "w": k * hop, "value": df["value"]}))
    exp = (pd.concat(rows).groupby(["event_type", "w"])
           .agg(n_events=("value", "size"), value_sum=("value", "sum"))
           .reset_index().sort_values(["event_type", "w"])
           .reset_index(drop=True))
    assert len(out) == len(exp)
    assert (out["n_events"].to_numpy() == exp["n_events"].to_numpy()).all()
    np.testing.assert_allclose(out["value_sum"], exp["value_sum"],
                               rtol=1e-9)
    # fan-out invariant: total replicated events = 4x input
    assert out["n_events"].sum() == 4 * len(df)


def test_hopping_window_rejects_nondivisible_hop(ray_session):
    from capelinker_ray.stages.events import hopping_window_agg
    import pytest
    df = pd.DataFrame({"event_type": ["a"],
                       "ts": [pd.Timestamp("2024-01-01")], "value": [1.0]})
    with pytest.raises(ValueError):
        hopping_window_agg(rd.from_pandas(df), window_minutes=60,
                           hop_minutes=25)


def test_interval_join_bucketed_matches_unbucketed(ray_session):
    # the hot-key bucketed mode (interval replication across spanned
    # buckets) must produce EXACTLY the unbucketed co-partition result,
    # including intervals spanning many buckets and ties at both ends
    from capelinker_ray.stages.events import interval_join
    rng = np.random.default_rng(17)
    n = 800
    pts = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 12, n).astype(np.int64),
        "ts": pd.Timestamp("2024-03-01")
        + pd.to_timedelta(rng.integers(0, 72 * 3600, n), unit="s"),
    })
    m = 60
    starts = (pd.Timestamp("2024-03-01")
              + pd.to_timedelta(rng.integers(0, 70 * 3600, m), unit="s"))
    iv = pd.DataFrame({
        "iv_id": np.arange(m, dtype=np.int64),
        "user_id": rng.integers(0, 12, m).astype(np.int64),
        "start": starts,
        # spans from minutes to many hours (many 10-min buckets)
        "end": starts + pd.to_timedelta(rng.integers(60, 8 * 3600, m),
                                        unit="s"),
    })

    def run(bucket):
        out = interval_join(
            rd.from_pandas(pts).repartition(7),
            rd.from_pandas(iv).repartition(3),
            by="user_id", ts_col="ts", start_col="start", end_col="end",
            bucket_minutes=bucket)
        return (out.to_pandas()[["event_id", "iv_id"]]
                .sort_values(["event_id", "iv_id"]).reset_index(drop=True))

    plain = run(None)
    bucketed = run(10.0)
    pd.testing.assert_frame_equal(plain, bucketed)
    # sanity vs a pandas reference join
    ref = pts.merge(iv, on="user_id")
    ref = ref[(ref["start"] <= ref["ts"]) & (ref["ts"] <= ref["end"])]
    ref = (ref[["event_id", "iv_id"]]
           .sort_values(["event_id", "iv_id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(plain, ref)
    assert len(ref) > 100


def test_interval_join_span_guard(ray_session):
    from capelinker_ray.stages.events import interval_join
    import pytest
    pts = pd.DataFrame({"event_id": [1], "user_id": [0],
                        "ts": [pd.Timestamp("2024-01-05")]})
    iv = pd.DataFrame({"iv_id": [1], "user_id": [0],
                       "start": [pd.Timestamp("2024-01-01")],
                       "end": [pd.Timestamp("2024-12-31")]})
    with pytest.raises(Exception, match="span"):
        interval_join(rd.from_pandas(pts), rd.from_pandas(iv),
                      by="user_id", bucket_minutes=1.0,
                      max_span_buckets=100).count()
