"""Clustering oracles: connected components fixpoint, singleton attach,
expand_index single-round parity (util.R:14-44 semantics)."""

import numpy as np
import pandas as pd
import ray.data as rd

from capelinker_ray.stages.cluster import (
    attach_entity_ids, connected_components, expand_index,
)


def test_cc_chain_and_components(ray_session):
    links = rd.from_items([
        {"conv_id_from": "a", "conv_id_to": "b"},
        {"conv_id_from": "b", "conv_id_to": "c"},
        {"conv_id_from": "d", "conv_id_to": "e"},
        {"conv_id_from": "x", "conv_id_to": "y"},
        {"conv_id_from": "y", "conv_id_to": "z"},
        {"conv_id_from": "z", "conv_id_to": "a"},   # merges x,y,z into a's
    ])
    cc = {r["node"]: r["entity_id"]
          for r in connected_components(links).take_all()}
    assert cc == {"a": "a", "b": "a", "c": "a", "x": "a", "y": "a",
                  "z": "a", "d": "d", "e": "d"}


def test_cc_long_path_converges(ray_session, monkeypatch):
    # an 8-node path: worst case for hash-min iterations. A zero edge gate
    # forces the DISTRIBUTED path (pointer doubling -> O(log n) rounds),
    # which must agree with the default driver union-find.
    from capelinker_ray.stages import cluster
    nodes = [f"n{i:02d}" for i in range(8)]
    rows = [{"conv_id_from": nodes[i], "conv_id_to": nodes[i + 1]}
            for i in range(7)]
    rows += [{"conv_id_from": "p", "conv_id_to": "q"}]
    driver = {r["node"]: r["entity_id"]
              for r in connected_components(rd.from_items(rows)).take_all()}
    monkeypatch.setattr(cluster, "DRIVER_EDGE_MAX", 0)
    cc = {r["node"]: r["entity_id"]
          for r in connected_components(rd.from_items(rows)).take_all()}
    assert {cc[n] for n in nodes} == {"n00"}
    assert cc["p"] == cc["q"] == "p"
    assert len(cc) == 10
    assert cc == driver


def test_attach_entity_singletons(ray_session):
    links = rd.from_items([{"conv_id_from": "a", "conv_id_to": "b"}])
    cc = connected_components(links)
    recs = rd.from_items([{"conv_id": c, "v": 1} for c in ["a", "b", "q"]])
    out = {r["conv_id"]: r["entity_id"]
           for r in attach_entity_ids(recs, cc).take_all()}
    assert out == {"a": "a", "b": "a", "q": "q"}  # unlinked -> own id


def test_expand_index_semantics():
    df = pd.DataFrame({
        "index":           [1, None, None, 2, None, 3, 4, None],
        "index_candidate": [10, 10,  11,   12, 12,  13, 13, None],
    })
    out = expand_index(df)["index"].tolist()
    # group 10: bridge -> fill with 1;   group 11: all-NA -> adopt 11
    # group 12: bridge -> fill with 2;   group 13: conflict (3,4) -> untouched
    # NA candidate row -> untouched
    assert out[:7] == [1, 1, 11, 2, 2, 3, 4]
    assert np.isnan(out[7])


def test_expand_index_all_indexed_noop():
    df = pd.DataFrame({"index": [5, 6], "index_candidate": [9, 9]})
    assert expand_index(df)["index"].tolist() == [5, 6]


def test_golden_records_rules(ray_session):
    import ray.data as rd
    from capelinker_ray.stages.cluster import golden_records
    recs = pd.DataFrame({
        "k": np.array([1, 2, 3, 4, 5], dtype=np.int64),
        "v": [10.0, 20.0, 5.0, 7.0, None],
        "s": ["b", "a", "a", None, "z"],
        "t": ["r1", "r2", "r3", "r4", "r5"]})
    ents = pd.DataFrame({
        "k": np.array([1, 2, 3, 4, 5], dtype=np.int64),
        "entity_id": np.array([100, 100, 100, 200, 200], dtype=np.int64)})
    out = (golden_records(rd.from_pandas(recs).repartition(3),
                          rd.from_pandas(ents), key_col="k",
                          rules={"v": "sum", "s": "mode", "t": "first"})
           .to_pandas().sort_values("entity_id").reset_index(drop=True))
    e1 = out[out["entity_id"] == 100].iloc[0]
    assert e1["n_members"] == 3
    assert e1["v"] == 35.0
    assert e1["s"] == "a"          # mode (2x 'a' vs 1x 'b')
    assert e1["t"] == "r1"         # representative = min key
    e2 = out[out["entity_id"] == 200].iloc[0]
    assert e2["n_members"] == 2
    assert e2["v"] == 7.0          # null-skipping sum
    assert e2["s"] == "z"          # null dropped; single value
    assert e2["t"] == "r4"


def test_golden_records_mode_tiebreak_smallest(ray_session):
    import ray.data as rd
    from capelinker_ray.stages.cluster import golden_records
    recs = pd.DataFrame({
        "k": np.array([1, 2], dtype=np.int64),
        "s": ["b", "a"]})
    ents = pd.DataFrame({"k": np.array([1, 2], dtype=np.int64),
                         "entity_id": np.array([7, 7], dtype=np.int64)})
    out = golden_records(rd.from_pandas(recs), rd.from_pandas(ents),
                         key_col="k", rules={"s": "mode"}).to_pandas()
    assert out.iloc[0]["s"] == "a"   # 1-1 tie -> smallest value
