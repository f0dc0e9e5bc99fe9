"""Incremental assignment of new conversations to a frozen entity table."""

import pandas as pd
import pytest
import ray.data as rd

from capelinker_ray import synth
from capelinker_ray.pipelines.incremental import assign_to_entities
from capelinker_ray.pipelines.linkage import link_transcripts


def test_assign_to_entities_recovers_holdout(ray_session):
    turns, truth = synth.gen_corpus(n_entities=120, seed=11)
    tdf = truth.to_pandas() if not isinstance(truth, pd.DataFrame) else truth
    groups = tdf.groupby("entity_id")["conv_id"].apply(list)
    # hold out TWO convs from big entities (exercises within-batch linking
    # + base adoption) and one from pairs
    held = []
    for v in groups:
        if len(v) >= 3:
            held.extend(sorted(v)[:2])
        elif len(v) == 2:
            held.append(sorted(v)[0])
    held = sorted(held)[:40]
    turns_pd = turns.to_pandas()
    new_pd = turns_pd[turns_pd["conv_id"].isin(held)]
    base_pd = turns_pd[~turns_pd["conv_id"].isin(held)]

    base_out = link_transcripts(rd.from_pandas(base_pd),
                                checkpoint_dir=None, sort_output=False)
    res = assign_to_entities(rd.from_pandas(new_pd),
                             base_out["records"], base_out["entities"])
    asg = res["assignments"].to_pandas()

    # exactly one assignment per held-out conversation
    assert sorted(asg["conv_id"]) == held

    # frozen-base invariant surface: matched rows point at EXISTING ids
    ent_pd = base_out["entities"].to_pandas()[["conv_id", "entity_id"]]
    base_ids = set(ent_pd["entity_id"])
    m = asg[asg["matched"]]
    assert set(m["entity_id"]) <= base_ids
    # minted rows use ids of THIS batch (their own component rep)
    minted = asg[~asg["matched"]]
    assert set(minted["entity_id"]) <= set(asg["conv_id"])

    # quality: most held convs re-find their entity, and matched
    # assignments land in a cluster containing a true sibling
    true_of = dict(zip(tdf["conv_id"], tdf["entity_id"]))
    ent_pd = ent_pd.assign(true_ent=ent_pd["conv_id"].map(true_of))
    truth_sets = ent_pd.groupby("entity_id")["true_ent"].agg(set)
    ok = sum(1 for _, r in m.iterrows()
             if true_of[r["conv_id"]] in truth_sets.get(r["entity_id"],
                                                        set()))
    assert len(m) >= 0.8 * len(held)
    assert ok >= 0.95 * max(1, len(m))


def test_assign_no_batch_linking_mints_singletons(ray_session):
    turns, truth = synth.gen_corpus(n_entities=40, seed=23)
    turns_pd = turns.to_pandas()
    # one conversation per entity: the batch holds no in-batch links
    held = sorted(truth.to_pandas().groupby("entity_id")["conv_id"]
                  .min())[:6]
    new_pd = turns_pd[turns_pd["conv_id"].isin(held)]
    base_pd = turns_pd[~turns_pd["conv_id"].isin(held)]
    base_out = link_transcripts(rd.from_pandas(base_pd),
                                checkpoint_dir=None, sort_output=False)
    res = assign_to_entities(rd.from_pandas(new_pd),
                             base_out["records"], base_out["entities"])
    assert res["links_within"].count() == 0
    asg = res["assignments"].to_pandas()
    assert sorted(asg["conv_id"]) == held
    minted = asg[~asg["matched"]]
    # without in-batch links every unmatched conv is its own entity
    assert (minted["entity_id"] == minted["conv_id"]).all()


def _truth_scorer(true_of: dict):
    """Rule scorer: 1.0 for a pair of the same true entity, else 0.0, so
    the test's split alone decides which links exist."""
    def score(df: pd.DataFrame) -> pd.DataFrame:
        same = (df["conv_id_from"].map(true_of)
                == df["conv_id_to"].map(true_of))
        out = df[["conv_id_from", "conv_id_to"]].copy()
        out["pred"] = same.astype(float)
        return out
    return score


def _reference_assignments(new_ids, links_nb, links_ww, base_ent):
    """One row per new conversation: the min base entity matched by its
    in-batch component, else the component's min conv_id."""
    root = {c: c for c in new_ids}

    def find(c):
        while root[c] != c:
            c = root[c]
        return c
    for a, b in zip(links_ww["conv_id_from"], links_ww["conv_id_to"]):
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)      # a root is its set's min id
    comp = pd.DataFrame({"conv_id": new_ids,
                         "comp": [find(c) for c in new_ids]})
    ent_of = dict(zip(base_ent["conv_id"], base_ent["entity_id"]))
    hits = comp.merge(pd.DataFrame({
        "conv_id": links_nb["conv_id_from"],
        "base": links_nb["conv_id_to"].map(ent_of)}), on="conv_id")
    comp["base"] = comp["comp"].map(hits.groupby("comp")["base"].min())
    return pd.DataFrame({
        "conv_id": comp["conv_id"],
        "entity_id": comp["base"].fillna(comp["comp"]),
        "matched": comp["base"].notna()})


@pytest.mark.parametrize("case,checkpoint", [
    ("no_base_match", False), ("no_in_batch", False), ("neither", False),
    ("neither", True)])
def test_assign_zero_link_cases(ray_session, tmp_path, case, checkpoint):
    """Empty link stages (pinned or checkpointed) still give one
    assignment per new conversation, equal to a pandas reference."""
    from capelinker_ray.stages.conv_records import build_conv_records
    from capelinker_ray.stages.normalize import normalize_turns
    turns, truth = synth.gen_corpus(n_entities=40, seed=29)
    turns_pd, tdf = turns.to_pandas(), truth.to_pandas()
    groups = tdf.groupby("entity_id")["conv_id"].apply(sorted)
    multi = [v for v in groups if len(v) >= 2][:8]
    if case == "no_base_match":      # whole entities: siblings only in-batch
        held, gone = [c for v in multi for c in v], []
    elif case == "no_in_batch":      # one conv of each: siblings in the base
        held, gone = [v[0] for v in multi], []
    else:                            # one conv of each, siblings dropped
        held, gone = [v[0] for v in multi], [c for v in multi for c in v[1:]]
    held = sorted(held)
    new_pd = turns_pd[turns_pd["conv_id"].isin(held)]
    base_pd = turns_pd[~turns_pd["conv_id"].isin(held + gone)]
    base_records = build_conv_records(
        normalize_turns(rd.from_pandas(base_pd))).materialize()
    base_ent = pd.DataFrame({
        "conv_id": tdf["conv_id"],
        "entity_id": "e" + tdf["entity_id"].astype(str)})
    base_ent = base_ent[base_ent["conv_id"].isin(base_pd["conv_id"])]

    res = assign_to_entities(
        rd.from_pandas(new_pd), base_records, rd.from_pandas(base_ent),
        score_fn=_truth_scorer(dict(zip(tdf["conv_id"], tdf["entity_id"]))),
        attr_cols=["first_text_norm"],
        checkpoint_dir=str(tmp_path / "ck") if checkpoint else None)
    # to_pandas of a zero-row Dataset can come back column-less
    links_nb, links_ww = (
        res[k].to_pandas().reindex(columns=["conv_id_from", "conv_id_to"])
        for k in ("links_new_base", "links_within"))
    assert (len(links_nb) > 0) == (case == "no_in_batch")
    assert (len(links_ww) > 0) == (case == "no_base_match")

    got = (res["assignments"].to_pandas()
           .sort_values("conv_id").reset_index(drop=True))
    want = _reference_assignments(held, links_nb, links_ww, base_ent)
    got["matched"] = got["matched"].astype(bool)
    pd.testing.assert_frame_equal(got[["conv_id", "entity_id", "matched"]],
                                  want, check_dtype=False)


def test_assign_checkpoint_resume_identical(ray_session, tmp_path):
    turns, _ = synth.gen_corpus(n_entities=30, seed=31)
    turns_pd = turns.to_pandas()
    convs = sorted(turns_pd["conv_id"].unique())
    held = convs[:5]
    new_pd = turns_pd[turns_pd["conv_id"].isin(held)]
    base_pd = turns_pd[~turns_pd["conv_id"].isin(held)]
    base_out = link_transcripts(rd.from_pandas(base_pd),
                                checkpoint_dir=None, sort_output=False)
    ckdir = str(tmp_path / "inc_ck")
    r1 = assign_to_entities(rd.from_pandas(new_pd), base_out["records"],
                            base_out["entities"], checkpoint_dir=ckdir)
    a1 = (r1["assignments"].to_pandas()
          .sort_values("conv_id").reset_index(drop=True))
    import os
    assert os.path.exists(os.path.join(ckdir, "inc_assignments",
                                       "_SUCCESS.json"))
    # resume: heavy stages read back from parquet, output identical
    r2 = assign_to_entities(rd.from_pandas(new_pd), base_out["records"],
                            base_out["entities"], checkpoint_dir=ckdir)
    a2 = (r2["assignments"].to_pandas()
          .sort_values("conv_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a1, a2)
    # the resumed run's lineage still lists every stage
    assert [(m["stage"], m["resumed"]) for m in r2["metrics"]] == [
        (s, True) for s in ("inc_records", "inc_links_nb", "inc_links_ww",
                            "inc_assignments")]


def test_incremental_assign_rule_matches_duckdb(ray_session):
    # the SQL-expressible rule mode (score_fn JW) must be value-exact vs
    # the DuckDB twin on the sf0.001 derived transcripts — a local copy of
    # the driver's correctness gate for this query
    import duckdb
    import numpy as np
    from capelinker_ray.pipelines.queries import (
        ensure_transcripts, q_incremental_assign_rule,
        sql_incremental_assign_rule)

    sf = "/root/testdata/sf0.001"
    mine = (q_incremental_assign_rule(sf).to_pandas()
            .sort_values("conv_id").reset_index(drop=True))
    sql = sql_incremental_assign_rule(ensure_transcripts(sf))
    oracle = (duckdb.connect().execute(sql).fetchdf()
              .sort_values("conv_id").reset_index(drop=True))
    assert len(mine) > 10
    # exercises all three assignment paths
    assert mine["matched"].any() and (~mine["matched"]).any()
    mine["matched"] = mine["matched"].astype(np.bool_)
    oracle["matched"] = oracle["matched"].astype(np.bool_)
    pd.testing.assert_frame_equal(mine[sorted(mine.columns)],
                                  oracle[sorted(oracle.columns)])


def test_assign_shuffle_join_parity(ray_session, monkeypatch):
    """assign_to_entities' joins (attach_entity_ids' component map, the
    base-entity lookup and the match-onto-component join) give the same
    assignments whether hash_join broadcasts their right sides (the
    default at this size) or shuffles them (gate forced to 0 bytes)."""
    from capelinker_ray.stages import join
    turns, _ = synth.gen_corpus(n_entities=40, seed=17)
    turns_pd = turns.to_pandas()
    convs = sorted(turns_pd["conv_id"].unique())
    held = convs[::5]
    new_pd = turns_pd[turns_pd["conv_id"].isin(held)]
    base_pd = turns_pd[~turns_pd["conv_id"].isin(held)]
    base_out = link_transcripts(rd.from_pandas(base_pd),
                                checkpoint_dir=None, sort_output=False)
    records = base_out["records"].materialize()
    entities = base_out["entities"].materialize()

    def run():
        res = assign_to_entities(rd.from_pandas(new_pd), records, entities)
        return (res["assignments"].to_pandas()
                .sort_values("conv_id").reset_index(drop=True))

    a = run()
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    b = run()
    pd.testing.assert_frame_equal(a, b)
    assert sorted(a["conv_id"]) == held
    assert a["matched"].any()
