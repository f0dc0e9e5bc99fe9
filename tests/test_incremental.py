"""Incremental assignment of new conversations to a frozen entity table."""

import pandas as pd
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
    convs = sorted(turns_pd["conv_id"].unique())
    held = convs[:6]
    new_pd = turns_pd[turns_pd["conv_id"].isin(held)]
    base_pd = turns_pd[~turns_pd["conv_id"].isin(held)]
    base_out = link_transcripts(rd.from_pandas(base_pd),
                                checkpoint_dir=None, sort_output=False)
    res = assign_to_entities(rd.from_pandas(new_pd),
                             base_out["records"], base_out["entities"],
                             link_within_batch=False)
    asg = res["assignments"].to_pandas()
    assert sorted(asg["conv_id"]) == held
    minted = asg[~asg["matched"]]
    # without in-batch linking every unmatched conv is its own entity
    assert (minted["entity_id"] == minted["conv_id"]).all()


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
    """assign_to_entities' four joins give the same assignments whether
    hash_join broadcasts their right sides (the default at this size) or
    shuffles them (gate forced to 0 bytes)."""
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
