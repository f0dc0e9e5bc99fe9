"""Document curation pipeline (pipelines/curate.py) and the one-call
predict_links API (pipelines/predict.py)."""

import numpy as np
import pandas as pd
import ray.data as rd

from capelinker_ray.pipelines.curate import curate_documents


def _corpus():
    base = ("the quick brown fox jumps over the lazy dog while the river "
            "keeps flowing through the quiet green valley toward the sea")
    rows = [
        (1, base),                                  # keep
        (2, base + " and the birds sing"),          # near-dup of 1
        (3, base.replace("quick", "qiuck")),        # near-dup of 1 (family)
        (4, "tiny"),                                # too_short
        (5, "x y z w v " + "!!! ??? ### $$$ " * 40),  # low quality
        (6, base),                                  # exact dup of 1
        (7, "a completely different document about distributed query "
            "engines processing large corpora with streaming shuffles"),
    ]
    return pd.DataFrame({"doc_id": [r[0] for r in rows],
                         "text": [r[1] for r in rows]})


def test_curate_reasons_and_transitive_family(ray_session):
    out = curate_documents(rd.from_pandas(_corpus()), min_tokens=5,
                           min_quality=0.5, jaccard_threshold=0.55)
    kept = out["kept"].to_pandas()
    removed = out["removed"].to_pandas().set_index("doc_id")["reason"]
    assert removed[4] == "too_short"
    assert removed[5] == "low_quality"
    assert removed[6] == "exact_dup"
    # the {1,2,3} near-dup family collapses to its min-id representative
    assert 1 in set(kept["doc_id"]) and 7 in set(kept["doc_id"])
    assert removed[2] == "near_dup" and removed[3] == "near_dup"
    assert out["stats"]["input"] == 7
    assert out["stats"]["kept"] + out["stats"]["removed"] == 7
    # annotations survive on kept docs
    assert {"n_ws_tokens", "quality", "lang_pred"} <= set(kept.columns)


def test_curate_source_cap_and_sample(ray_session):
    rng = np.random.default_rng(5)
    words = np.array(["alpha", "bravo", "charlie", "delta", "echo",
                      "foxtrot", "golf", "hotel", "india", "juliet"])
    n = 120
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": [" ".join(rng.choice(words, 30)) for _ in range(n)],
        "source": (["web"] * 80 + ["books"] * 40),
    })
    out = curate_documents(rd.from_pandas(df), min_tokens=1,
                           min_quality=0.0, near_dup=False,
                           max_per_source=25)
    kept = out["kept"].to_pandas()
    sizes = kept.groupby("source").size()
    assert sizes["web"] == 25 and sizes["books"] == 25
    removed = out["removed"].to_pandas()
    assert (removed["reason"] == "source_cap").sum() == (80 - 25) + (40 - 25)
    assert out["stats"]["source_capped"] == 70
    # deterministic: same seed keeps the same ids
    out2 = curate_documents(rd.from_pandas(df), min_tokens=1,
                            min_quality=0.0, near_dup=False,
                            max_per_source=25)
    assert set(kept["doc_id"]) == set(out2["kept"].to_pandas()["doc_id"])

    out3 = curate_documents(rd.from_pandas(df), min_tokens=1,
                            min_quality=0.0, near_dup=False,
                            sample_fraction=0.5)
    stats = out3["stats"]
    assert stats["kept"] + stats["removed"] == n
    assert 0.3 * n < stats["kept"] < 0.7 * n
    assert stats["sampled_out"] == stats["removed"]


def test_predict_links_with_reference_model(ray_session):
    """One-call reference API: score with the bundled randomForest model
    and rank-select — exercises the imported R model inside a distributed
    pipeline."""
    import os
    import pytest
    if not os.path.exists(
            "/root/reference/data/pretrained_models.rda"):
        pytest.skip("reference models not available")
    from capelinker_ray.pipelines.predict import predict_links
    # candidates: a1 has one good and one bad match; b1 only bad
    cand = pd.DataFrame({
        "pid_from": ["a1", "a1", "b1"],
        "pid_to": ["x", "y", "z"],
        "mlastdist": [0.0, 0.7, 0.8],
        "mfirstdist": [0.05, 0.6, 0.9],
        "wfirstdist": [0.0, 0.8, 0.7],
        "yeardist": [1.0, 9.0, 12.0],
    })
    out = predict_links(rd.from_pandas(cand), id_from="pid_from",
                        id_to="pid_to", model="m_rf_baptisms_sparse",
                        minimum_confidence=0.5,
                        linktype="one:one").to_pandas()
    assert set(zip(out["pid_from"], out["pid_to"])) == {("a1", "x")}
    assert (out["pred"] > 0.5).all()


def test_predict_links_matches_pandas_average_rank(ray_session, tmp_path):
    """predict_links with a test-trained artifact equals pandas scoring
    plus R's average-tie one:one selection (pred.R:47-54): a tied best
    pair ranks 1.5 and is dropped, and a rank-1 pair must clear the
    confidence bar."""
    from capelinker_ray.models.trees import (GBTClassifier,
                                             predict_ensemble, save_artifact)
    from capelinker_ray.pipelines.predict import predict_links
    rng = np.random.default_rng(11)
    feats = ["f0", "f1", "f2"]
    X = rng.normal(size=(400, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    m = GBTClassifier(n_rounds=15, seed=1, early_stopping_rounds=None)
    m.fit(X, y, feature_names=feats)
    path = str(tmp_path / "m.json")
    save_artifact(m.artifact(), path)

    n = 60
    cand = pd.DataFrame(rng.normal(size=(n, 3)), columns=feats)
    cand["pid_from"] = [f"a{i % 12}" for i in range(n)]
    cand["pid_to"] = [f"b{i % 9}" for i in range(n)]
    # a0's best pair is an exact tie on two fresh to-ids
    best = X[np.argmax(m.predict_proba(X))]
    tie = pd.DataFrame([best, best], columns=feats)
    tie["pid_from"] = "a0"
    tie["pid_to"] = ["t1", "t2"]
    cand = pd.concat([cand, tie], ignore_index=True)

    ref = cand.copy()
    ref["pred"] = predict_ensemble(m.artifact(), ref[feats].to_numpy())
    for side in ("from", "to"):
        ref[f"rank_{side}"] = ref.groupby(f"pid_{side}")["pred"].rank(
            ascending=False, method="average")
    ref = ref[(ref["rank_from"] == 1) & (ref["rank_to"] == 1)
              & (ref["pred"] > 0.5)]
    assert len(ref) and not (ref["pid_from"] == "a0").any()

    out = predict_links(rd.from_pandas(cand).repartition(3),
                        id_from="pid_from", id_to="pid_to", model=path,
                        minimum_confidence=0.5,
                        linktype="one:one").to_pandas()
    got = out.set_index(["pid_from", "pid_to"])["pred"].sort_index()
    want = ref.set_index(["pid_from", "pid_to"])["pred"].sort_index()
    assert list(got.index) == list(want.index)
    np.testing.assert_allclose(got.to_numpy(), want.to_numpy(), rtol=1e-12)


def test_curate_distributed_ledger_parity(ray_session, monkeypatch):
    """A 0-byte broadcast gate forces hash_join's shuffle anti-join
    (removal ids never collected driver-side); output must match the
    broadcast path exactly (r2 verdict: de-driver the removal ledger)."""
    from capelinker_ray.stages import join
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    out = curate_documents(rd.from_pandas(_corpus()), min_tokens=5,
                           min_quality=0.5, jaccard_threshold=0.55)
    removed = out["removed"].to_pandas().sort_values("doc_id")
    assert list(removed["doc_id"]) == [2, 3, 4, 5, 6]
    assert sorted(out["kept"].to_pandas()["doc_id"]) == [1, 7]
    assert out["stats"] == {"input": 7, "kept": 2, "removed": 5}


def test_curate_segment_scrub(ray_session):
    import ray.data as rd
    from capelinker_ray.pipelines.curate import curate_documents
    boiler = " ".join(f"b{i}" for i in range(4))
    bodies = [" ".join(f"doc{d}w{i}" for i in range(12)) for d in range(6)]
    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [f"{boiler} {b}" for b in bodies[:4]] + bodies[4:],
    })
    out = curate_documents(rd.from_pandas(df), min_tokens=1, min_quality=0.0,
                           near_dup=False, segment_scrub=True,
                           words_per_seg=4, seg_max_count=2)
    kept = out["kept"].to_pandas().sort_values("doc_id")
    assert out["stats"]["segments_removed"] == 4
    # boilerplate window stripped, bodies intact and in order
    for d in range(4):
        assert kept.loc[kept.doc_id == d, "text"].iloc[0] == bodies[d]
    assert kept.loc[kept.doc_id == 4, "text"].iloc[0] == bodies[4]
    assert out["stats"]["kept"] == 6


def test_curate_pii_and_decontam(ray_session):
    eight = "alpha beta gamma delta epsilon zeta eta theta"
    df = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": [
            "write to me at someone@example.com about the quiet green "
            "valley with rivers flowing toward the open sea shore",
            f"leaked benchmark span {eight} hidden inside training text "
            "with plenty of additional filler words to pass the gates",
            "a completely different document about distributed query "
            "engines processing large corpora with streaming shuffles",
            "tiny",
        ],
    })
    bench = pd.DataFrame({"doc_id": [100],
                          "text": [f"question {eight} answer"]})
    out = curate_documents(
        rd.from_pandas(df), min_tokens=5, min_quality=0.0, near_dup=False,
        pii_scrub=True, decontam_against=rd.from_pandas(bench),
        decontam_ngram=8)
    kept = out["kept"].to_pandas().set_index("doc_id")
    removed = out["removed"].to_pandas().set_index("doc_id")
    # PII masked in the surviving text
    assert "<EMAIL>" in kept.loc[0, "text"]
    assert "someone@example.com" not in kept.loc[0, "text"]
    # benchmark-overlapping doc removed with its own reason
    assert removed.loc[1, "reason"] == "contaminated"
    assert removed.loc[3, "reason"] == "too_short"
    assert out["stats"]["contaminated"] == 1
    assert set(kept.index) == {0, 2}


def test_curate_near_dup_keep_best_quality(ray_session):
    """near_dup_keep='best_quality' keeps the family member with the
    highest quality score instead of the min id."""
    out = curate_documents(rd.from_pandas(_corpus()), min_tokens=5,
                           min_quality=0.5, jaccard_threshold=0.55,
                           near_dup_keep="best_quality")
    kept = out["kept"].to_pandas()
    removed = out["removed"].to_pandas().set_index("doc_id")["reason"]
    fam = {1, 2, 3}
    kept_fam = fam & set(kept["doc_id"])
    assert len(kept_fam) == 1
    rep = kept_fam.pop()
    # the representative's quality is the family max (ties -> min id)
    from capelinker_ray.stages.textstats import (add_quality_score,
                                                 add_token_counts)
    ann = add_quality_score(add_token_counts(
        rd.from_pandas(_corpus()))).to_pandas().set_index("doc_id")
    best = max(sorted(fam), key=lambda i: (ann.loc[i, "quality"], -i))
    assert rep == best
    assert (fam - {rep}) <= set(removed[removed == "near_dup"].index)
    assert out["stats"]["kept"] + out["stats"]["removed"] == 7


def test_curate_near_dup_keep_rejects_unknown(ray_session):
    import pytest
    with pytest.raises(ValueError):
        curate_documents(rd.from_pandas(_corpus()),
                         near_dup_keep="longest")


def test_curate_perplexity_gate(ray_session):
    """max_nll removes the improbable-character docs with reason
    high_perplexity; None (default) leaves behavior unchanged."""
    import numpy as np
    rng = np.random.default_rng(9)
    normal = ["the quick brown fox jumps over the lazy dog " * 4] * 40
    weird = ["".join(chr(int(c)) for c in rng.integers(0x4E00, 0x9FFF, 80))
             for _ in range(3)]
    df = pd.DataFrame({"doc_id": np.arange(43, dtype=np.int64),
                       "text": normal + weird,
                       "lang": ["en"] * 43, "source": ["s"] * 43})
    base = curate_documents(rd.from_pandas(df), min_quality=0.0,
                            min_tokens=1, near_dup=False)
    out = curate_documents(rd.from_pandas(df), min_quality=0.0,
                           min_tokens=1, near_dup=False, max_nll=3.0)
    rem = out["removed"].to_pandas()
    ppl = rem[rem["reason"] == "high_perplexity"]
    assert set(ppl["doc_id"]) == {40, 41, 42}
    assert out["stats"]["high_perplexity"] == 3
    # the gate only ever removes MORE, never changes other reasons
    assert out["stats"]["kept"] == base["stats"]["kept"] - 3
