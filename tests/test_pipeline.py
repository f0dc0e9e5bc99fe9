"""End-to-end flagship oracles: golden quality on the seeded corpus, per-turn
text-equality invariant, checkpoint resume (SURVEY §5 test plan c)."""

from itertools import combinations

import pandas as pd
import ray.data as rd

from capelinker_ray import synth
from capelinker_ray.pipelines.linkage import link_transcripts


def _pairs_of(df, col):
    s = set()
    for _, g in df.groupby(col):
        s.update(combinations(sorted(g["conv_id"]), 2))
    return s


def _run(tmpdir=None, n_entities=80, seed=7):
    turns, truth = synth.gen_corpus(n_entities=n_entities, seed=seed)
    out = link_transcripts(rd.from_arrow(turns),
                           checkpoint_dir=tmpdir, sort_output=True)
    return turns, truth, out


def test_flagship_quality_and_invariant(ray_session, tmp_path):
    turns, truth, out = _run(str(tmp_path / "ck"))
    ents = out["entities"].to_pandas()
    m = ents.merge(truth.to_pandas(), on="conv_id",
                   suffixes=("_pred", "_true"))
    pred = _pairs_of(m, "entity_id_pred")
    true = _pairs_of(m, "entity_id_true")
    tp = len(pred & true)
    prec = tp / len(pred) if pred else 1.0
    rec = tp / len(true) if true else 1.0
    f1 = 2 * prec * rec / (prec + rec)
    assert prec >= 0.99, (prec, rec)
    assert f1 >= 0.93, (prec, rec)

    # per-turn text equality under stable (conv_id, turn_idx) order
    tout = out["turns_out"].to_pandas().sort_values(
        ["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
    orig = turns.to_pandas().sort_values(
        ["conv_id", "turn_idx"], kind="stable").reset_index(drop=True)
    assert len(tout) == len(orig)
    assert (tout["text"].fillna("<NA>") == orig["text"].fillna("<NA>")).all()
    assert tout["entity_id"].notna().all()

    # lineage/metrics records for every stage
    stages = [r["stage"] for r in out["metrics"]]
    assert stages == ["conv_records", "candidate_pairs", "scored_pairs",
                      "links", "components", "entities", "turns_out"]
    assert all(r["rows"] > 0 for r in out["metrics"])


def test_checkpoint_resume_skips_stages(ray_session, tmp_path):
    ck = str(tmp_path / "ck2")
    _, _, out1 = _run(ck, n_entities=20, seed=11)
    n1 = out1["entities"].count()
    # second run must read checkpoints (records carry the first run's walls)
    _, _, out2 = _run(ck, n_entities=20, seed=11)
    assert out2["entities"].count() == n1
    o1 = {r["stage"]: r["wall_seconds"] for r in out1["metrics"]}
    o2 = {r["stage"]: r["wall_seconds"] for r in out2["metrics"]}
    assert o1 == o2  # resumed run reuses the recorded lineage, no rebuild


def test_checkpoint_param_change_invalidates(ray_session, tmp_path):
    """A changed stage parameter must NOT serve stale checkpointed results
    (ADVICE r1): rerunning with a different minimum_confidence recomputes
    the selection stage and everything downstream, but still reuses the
    upstream (parameter-identical) candidate/score checkpoints."""
    ck = str(tmp_path / "ck3")
    turns, _ = synth.gen_corpus(n_entities=20, seed=11)
    out1 = link_transcripts(rd.from_arrow(turns), checkpoint_dir=ck,
                            sort_output=False, minimum_confidence=0.5)
    n_links1 = out1["links"].count()
    w1 = {r["stage"]: r["wall_seconds"] for r in out1["metrics"]}
    # impossible threshold -> zero links survive; stale checkpoint would
    # still return n_links1 rows
    out2 = link_transcripts(rd.from_arrow(turns), checkpoint_dir=ck,
                            sort_output=False, minimum_confidence=1.1)
    assert n_links1 > 0
    assert out2["links"].count() == 0
    w2 = {r["stage"]: r["wall_seconds"] for r in out2["metrics"]}
    # upstream stages (params unchanged) were resumed, not rebuilt
    assert w2["candidate_pairs"] == w1["candidate_pairs"]
    assert w2["conv_records"] == w1["conv_records"]
    # downstream of the changed parameter was recomputed
    assert w2["links"] != w1["links"] or out2["links"].count() == 0


def test_flagship_bigram_global_blocking(ray_session):
    """blocktype='bigram_global' runs the reference's DEFAULT (corpus-wide
    bigram cosine, no pre-block) inside the flagship: the corrupted-prefix
    duplicates that equality blocking misses by design become candidates,
    lifting recall to 1.0 on the seeded corpus (vs 0.98 for equality)."""
    turns, truth = synth.gen_corpus(n_entities=80, seed=7)
    out = link_transcripts(rd.from_arrow(turns), checkpoint_dir=None,
                           blocktype="bigram_global", maxdist=0.3,
                           sort_output=False)
    ents = out["entities"].to_pandas()
    m = ents.merge(truth.to_pandas(), on="conv_id",
                   suffixes=("_pred", "_true"))
    pred = _pairs_of(m, "entity_id_pred")
    true = _pairs_of(m, "entity_id_true")
    tp = len(pred & true)
    prec = tp / len(pred) if pred else 1.0
    rec = tp / len(true) if true else 1.0
    assert prec >= 0.99, (prec, rec)
    assert rec >= 0.99, (prec, rec)


def test_checkpoint_legacy_marker_not_trusted(ray_session, tmp_path):
    """A pre-param-hash marker (no recorded hash) must trigger recompute,
    not be vacuously accepted."""
    import json
    import os
    ck = str(tmp_path / "ck4")
    turns, _ = synth.gen_corpus(n_entities=15, seed=3)
    out1 = link_transcripts(rd.from_arrow(turns), checkpoint_dir=ck,
                            sort_output=False)
    n1 = out1["links"].count()
    marker = os.path.join(ck, "links", "_SUCCESS.json")
    with open(marker) as f:
        rec = json.load(f)
    del rec["param_hash"]
    with open(marker, "w") as f:
        json.dump(rec, f)
    out2 = link_transcripts(rd.from_arrow(turns), checkpoint_dir=ck,
                            sort_output=False)
    assert out2["links"].count() == n1
    w2 = {r["stage"]: r for r in out2["metrics"]}
    # the legacy-marker stage was rebuilt and re-stamped with a hash
    with open(marker) as f:
        assert "param_hash" in json.load(f)


def test_link_transcripts_shuffle_join_parity(ray_session, monkeypatch):
    """The flagship's joins (entity attach, per-turn output) give the same
    entities and turns whether hash_join broadcasts its right side (the
    default at this size) or shuffles it (gate forced to 0 bytes)."""
    from capelinker_ray import synth
    from capelinker_ray.pipelines.linkage import link_transcripts
    from capelinker_ray.stages import join
    turns, _ = synth.gen_corpus(n_entities=60, seed=5)

    def run():
        out = link_transcripts(rd.from_arrow(turns), checkpoint_dir=None)
        ents = (out["entities"].to_pandas().sort_values("conv_id")
                .reset_index(drop=True))
        tout = out["turns_out"].to_pandas().reset_index(drop=True)
        return out, ents, tout

    bcast, ents_b, tout_b = run()
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    shuf, ents_s, tout_s = run()
    pd.testing.assert_frame_equal(ents_b, ents_s)
    pd.testing.assert_frame_equal(tout_b, tout_s)
    assert len(tout_b) == turns.num_rows
    assert ents_b["entity_id"].notna().all()
    assert tout_b["entity_id"].notna().all()
    # regression guard: the flagship pins SLIM pair tables — the per-side
    # attribute columns are feature inputs, never downstream reads
    # (carrying them tripled the materialized pair bytes at 14M pairs)
    names = set(bcast["pairs"].schema().names)
    assert not any(n.endswith("_from") or n.endswith("_to")
                   for n in names - {"conv_id_from", "conv_id_to"}), names


def test_link_transcripts_empty_corpus(ray_session):
    """A filter that drops everything must yield 0-row outputs, not a
    crash (Ray returns None schemas / None unique() on empty datasets)."""
    import pyarrow as pa
    empty = pa.table({
        "conv_id": pa.array([], pa.string()),
        "turn_idx": pa.array([], pa.int32()),
        "role": pa.array([], pa.string()),
        "text": pa.array([], pa.string()),
        "tool": pa.array([], pa.string()),
        "ts": pa.array([], pa.timestamp("us"))})
    out = link_transcripts(rd.from_arrow(empty), checkpoint_dir=None,
                           sort_output=True)
    assert out["entities"].count() == 0
    assert out["pairs"].count() == 0
    assert out["turns_out"].count() == 0
