"""CDC compaction, funnel, gap-fill resample (stages/cdc.py, events.py)."""

import numpy as np
import pandas as pd
import ray.data as rd

from capelinker_ray.stages import grouped
from capelinker_ray.stages.cdc import compact_latest
from capelinker_ray.stages.events import funnel, resample_ffill


def _ts(*secs):
    return pd.to_datetime(list(secs), unit="s")


def _pin_width(monkeypatch, width):
    """Every grouped_map shuffle runs ``width`` reducers, so keys spread
    over more than one partition even at a few rows."""
    monkeypatch.setattr(grouped, "shuffle_width",
                        lambda n_rows, cap=None: width)


def test_compact_latest_keeps_newest_with_tiebreak(ray_session, monkeypatch):
    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2],
        "ts": _ts(10, 30, 30, 5, 1),
        "seq": [0, 1, 2, 0, 1],
        "v": ["a", "b", "c", "d", "e"]})
    _pin_width(monkeypatch, 4)
    out = (compact_latest(rd.from_pandas(df).repartition(3), "k", "ts",
                          tiebreak_cols="seq")
           .to_pandas().sort_values("k"))
    # k=1: ts ties at 30 -> seq 2 wins; k=2: ts=5 wins
    assert out["v"].tolist() == ["c", "d"]


def test_compact_latest_null_ts_oldest(ray_session):
    df = pd.DataFrame({"k": [1, 1, 2],
                       "ts": [pd.NaT, pd.Timestamp("2024-01-01"), pd.NaT],
                       "v": [9, 1, 7]})
    out = (compact_latest(rd.from_pandas(df), "k", "ts")
           .to_pandas().sort_values("k"))
    # null ts sorts oldest: k=1 winner is the non-null row; a key with
    # ONLY null ts still emits its row
    assert out["v"].tolist() == [1, 7]


def test_compact_latest_tombstone_drops_key(ray_session):
    df = pd.DataFrame({
        "k": [1, 1, 2, 2, 3],
        "ts": _ts(1, 2, 1, 2, 1),
        "del": [False, True, True, False, False],
        "v": [1, 2, 3, 4, 5]})
    out = (compact_latest(rd.from_pandas(df), "k", "ts",
                          tombstone_col="del")
           .to_pandas().sort_values("k"))
    # k=1 latest is a delete -> gone; k=2 delete was superseded -> kept
    assert out["k"].tolist() == [2, 3]
    assert out["v"].tolist() == [4, 5]


def test_funnel_strict_order_and_stall(ray_session, monkeypatch):
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2, 2, 3, 3, 3],
        "ts": _ts(10, 20, 30, 40, 50, 10, 10, 5),
        "event_type": ["a", "b", "c", "b", "a", "a", "b", "b"]})
    _pin_width(monkeypatch, 4)
    out = (funnel(rd.from_pandas(df).repartition(3), ["a", "b", "c"])
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    assert out["steps_completed"].tolist() == [3, 1, 1]
    # user 2: b happens BEFORE a -> funnel stalls after a
    assert pd.isna(out.loc[1, "t2"])
    # user 3: b at the SAME ts as a does not count (strictly after)
    assert pd.isna(out.loc[2, "t2"])
    assert out.loc[0, "t3"] == pd.Timestamp("1970-01-01 00:00:30")


def test_funnel_user_without_first_step(ray_session):
    df = pd.DataFrame({"user_id": [7, 7], "ts": _ts(1, 2),
                       "event_type": ["x", "y"]})
    out = funnel(rd.from_pandas(df), ["a", "b"]).to_pandas()
    assert out["steps_completed"].tolist() == [0]
    assert pd.isna(out["t1"]).all()


def test_resample_ffill_matches_bruteforce(ray_session, monkeypatch):
    rng = np.random.default_rng(11)
    rows = []
    for u in range(5):
        times = np.sort(rng.choice(np.arange(0, 1000), 30, replace=False))
        for i, t in enumerate(times):
            rows.append((u, t, float(rng.normal()), i))
    df = pd.DataFrame(rows, columns=["user_id", "sec", "value", "eid"])
    df["ts"] = pd.to_datetime(df["sec"], unit="s")
    _pin_width(monkeypatch, 4)
    out = (resample_ffill(rd.from_pandas(df).repartition(4),
                          key_col="user_id", ts_col="ts",
                          value_col="value", every_s=100.0,
                          tiebreak_col="eid")
           .to_pandas())
    for u, g in df.groupby("user_id"):
        lo, hi = g["sec"].min() // 100, g["sec"].max() // 100
        sub = out[out["user_id"] == u].sort_values("grid_ts")
        assert len(sub) == hi - lo + 1
        for _, r in sub.iterrows():
            t = r["grid_ts"].timestamp()
            past = g[g["sec"] <= t]
            if len(past):
                want = past.sort_values(["sec", "eid"]).iloc[-1]["value"]
                assert r["value"] == want
            else:
                assert pd.isna(r["value"])


def test_resample_ffill_tie_dedup_and_inclusive_edge(ray_session):
    df = pd.DataFrame({
        "user_id": [1, 1, 1],
        "ts": _ts(100, 100, 250),
        "value": [5.0, 6.0, 7.0],
        "eid": [0, 1, 2]})
    out = (resample_ffill(rd.from_pandas(df), key_col="user_id",
                          ts_col="ts", value_col="value", every_s=100.0,
                          tiebreak_col="eid")
           .to_pandas().sort_values("grid_ts").reset_index(drop=True))
    # grid at 100 and 200: event AT the grid instant counts (<=);
    # duplicate-ts rows collapse to the max-eid one
    assert len(out) == 2
    assert out["value"].tolist() == [6.0, 6.0]


def test_mode_by_ties_and_partials(ray_session, monkeypatch):
    from capelinker_ray.stages.agg import mode_by
    df = pd.DataFrame({"k": [1] * 5 + [2] * 4,
                       "v": ["b", "b", "a", "a", "c", "z", "y", "z", "y"]})
    _pin_width(monkeypatch, 3)
    out = (mode_by(rd.from_pandas(df).repartition(4), "k", "v")
           .to_pandas().sort_values("k").reset_index(drop=True))
    # k=1: a and b tie at 2 -> smallest value wins; k=2: y/z tie -> y
    assert out["mode"].tolist() == ["a", "y"]
    assert out["n"].tolist() == [2, 2]


def test_snapshot_diff_statuses(ray_session, monkeypatch):
    from capelinker_ray.stages.cdc import snapshot_diff
    old = pd.DataFrame({"k": [1, 2, 3, 4],
                        "a": [10, 20, 30, 40],
                        "b": ["x", "y", "z", "w"]})
    new = pd.DataFrame({"k": [2, 3, 4, 5],
                        "a": [20, 31, 40, 50],
                        "b": ["y", "z", "w", "v"]})
    _pin_width(monkeypatch, 4)
    out = (snapshot_diff(rd.from_pandas(old).repartition(2),
                         rd.from_pandas(new).repartition(3), "k")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["k"].tolist() == [1, 3, 5]
    assert out["status"].tolist() == ["removed", "changed", "added"]
    full = (snapshot_diff(rd.from_pandas(old), rd.from_pandas(new), "k",
                          include_unchanged=True)
            .to_pandas())
    assert (full[full["status"] == "unchanged"]["k"].sort_values()
            .tolist() == [2, 4])


def test_snapshot_diff_compare_cols_subset(ray_session):
    from capelinker_ray.stages.cdc import snapshot_diff
    old = pd.DataFrame({"k": [1], "a": [10], "noise": [0]})
    new = pd.DataFrame({"k": [1], "a": [10], "noise": [99]})
    out = snapshot_diff(rd.from_pandas(old), rd.from_pandas(new), "k",
                        compare_cols=["a"],
                        include_unchanged=True).to_pandas()
    assert out["status"].tolist() == ["unchanged"]


def test_apply_changes_upsert_delete_insert(ray_session):
    from capelinker_ray.stages.cdc import apply_changes
    base = pd.DataFrame({
        "k": np.array([1, 2, 3, 4], dtype=np.int64),
        "v": ["a", "b", "c", "d"],
        "ts": pd.to_datetime(["2024-01-01"] * 4)})
    ch = pd.DataFrame({
        "k": np.array([2, 3, 3, 5], dtype=np.int64),
        "v": ["B", "C1", "C2", "E"],
        "ts": pd.to_datetime(["2023-12-01",          # OLDER than base:
                              "2024-02-01",          # change still wins
                              "2024-02-01", "2024-03-01"]),
        "seq": np.array([1, 1, 2, 1], dtype=np.int64),
        "del": [False, False, True, False]})
    out = (apply_changes(rd.from_pandas(base).repartition(2),
                         rd.from_pandas(ch).repartition(2),
                         "k", "ts", tiebreak_cols="seq",
                         tombstone_col="del")
           .to_pandas().sort_values("k").reset_index(drop=True))
    # 1 passes through; 2 updated despite older ts; 3 deleted (seq 2
    # beats seq 1 at equal ts); 4 passes through; 5 inserted
    assert list(out["k"]) == [1, 2, 4, 5]
    assert list(out["v"]) == ["a", "B", "d", "E"]
    assert "_rank" not in out.columns


def test_apply_changes_schema_evolution_null_fill(ray_session):
    from capelinker_ray.stages.cdc import apply_changes
    base = pd.DataFrame({"k": np.array([1, 2], dtype=np.int64),
                         "v": ["a", "b"],
                         "extra": [10.0, 20.0],
                         "ts": pd.to_datetime(["2024-01-01"] * 2)})
    ch = pd.DataFrame({"k": np.array([2], dtype=np.int64),
                       "v": ["B"],
                       "ts": pd.to_datetime(["2024-01-02"])})
    out = (apply_changes(rd.from_pandas(base), rd.from_pandas(ch),
                         "k", "ts").to_pandas()
           .sort_values("k").reset_index(drop=True))
    assert list(out["v"]) == ["a", "B"]
    assert out["extra"].tolist()[0] == 10.0
    assert pd.isna(out["extra"].tolist()[1])   # change lacked the column


def test_event_transitions_counts(ray_session):
    from capelinker_ray.stages.events import event_transitions
    ts = pd.to_datetime([
        "2024-01-01 10:00", "2024-01-01 10:01", "2024-01-01 10:02",
        "2024-01-01 10:00", "2024-01-01 10:01", "2024-01-01 10:01"])
    df = pd.DataFrame({
        "event_id": np.arange(6, dtype=np.int64),
        "user_id": np.array([1, 1, 1, 2, 2, 2], dtype=np.int64),
        "ts": ts,
        "event_type": ["a", "b", "a", "a", "b", "c"]})
    out = (event_transitions(rd.from_pandas(df).repartition(3))
           .to_pandas().sort_values(["prev_type", "next_type"])
           .reset_index(drop=True))
    # user1: a->b, b->a; user2: a->b, b->c (10:01 tie broken by event_id)
    want = {("a", "b"): 2, ("b", "a"): 1, ("b", "c"): 1}
    got = {(r.prev_type, r.next_type): r.n for r in out.itertuples()}
    assert got == want


def test_event_transitions_single_event_users_emit_nothing(ray_session):
    from capelinker_ray.stages.events import event_transitions
    df = pd.DataFrame({
        "event_id": np.arange(3, dtype=np.int64),
        "user_id": np.array([1, 2, 3], dtype=np.int64),
        "ts": pd.to_datetime(["2024-01-01"] * 3),
        "event_type": ["a", "b", "c"]})
    out = event_transitions(rd.from_pandas(df)).to_pandas()
    assert len(out) == 0


def test_scd2_intervals_lead_and_current(ray_session):
    from capelinker_ray.stages.cdc import scd2_intervals
    df = pd.DataFrame({
        "event_id": np.arange(5, dtype=np.int64),
        "user_id": np.array([1, 1, 1, 2, 2], dtype=np.int64),
        "ts": pd.to_datetime(["2024-01-01", "2024-01-03", "2024-01-02",
                              "2024-02-01", "2024-02-05"])})
    out = (scd2_intervals(rd.from_pandas(df).repartition(3), "user_id",
                          "ts", tiebreak_cols="event_id")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    # user 1 order by ts: e0 (01-01) -> e2 (01-02) -> e1 (01-03 current)
    assert out.loc[0, "valid_to"] == pd.Timestamp("2024-01-02")
    assert out.loc[2, "valid_to"] == pd.Timestamp("2024-01-03")
    assert pd.isna(out.loc[1, "valid_to"]) and out.loc[1, "is_current"]
    assert pd.isna(out.loc[4, "valid_to"]) and out.loc[4, "is_current"]
    assert not out.loc[0, "is_current"]
    assert (out["valid_from"] == df.set_index("event_id")["ts"]
            .loc[out["event_id"]].to_numpy()).all()
