"""Tree-ensemble oracles: separable fits, NaN default-direction routing,
artifact round-trip, distributed scoring (SURVEY §2.6)."""

import os

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from capelinker_ray.models.trees import (
    GBTClassifier, RandomForest, load_artifact, predict_ensemble,
    save_artifact,
)
from capelinker_ray.models.scorer import score_pairs


def _toy(n=800, seed=0, nan_frac=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = ((X[:, 0] + 0.5 * X[:, 1] > 0)).astype(float)
    if nan_frac:
        mask = rng.random(X.shape) < nan_frac
        X = np.where(mask, np.nan, X)
    return X, y


def test_gbt_separable_fit():
    X, y = _toy()
    m = GBTClassifier(n_rounds=60, max_depth=4, gamma=0.0,
                      subsample=1.0, colsample_bytree=1.0, seed=1,
                      early_stopping_rounds=None)
    m.fit(X, y)
    acc = ((m.predict_proba(X) > 0.5) == y).mean()
    assert acc > 0.97


def test_gbt_handles_nan_features():
    X, y = _toy(nan_frac=0.25)
    m = GBTClassifier(n_rounds=80, max_depth=4, gamma=0.0, seed=1,
                      early_stopping_rounds=None)
    m.fit(X, y)
    p = m.predict_proba(X)
    assert not np.isnan(p).any()
    assert ((p > 0.5) == y).mean() > 0.85


def test_rf_votes_probability():
    X, y = _toy(seed=3)
    m = RandomForest(n_trees=40, max_depth=8, seed=2)
    m.fit(X, y)
    p = m.predict_proba(X)
    assert (p >= 0).all() and (p <= 1).all()
    assert ((p > 0.5) == y).mean() > 0.95


def test_artifact_roundtrip(tmp_path):
    X, y = _toy(n=200)
    m = GBTClassifier(n_rounds=10, seed=1, early_stopping_rounds=None)
    m.fit(X, y, feature_names=["a", "b", "c", "d"])
    p1 = m.predict_proba(X)
    path = str(tmp_path / "m.json")
    save_artifact(m.artifact(), path)
    art = load_artifact(path)
    assert art["feature_names"] == ["a", "b", "c", "d"]
    p2 = predict_ensemble(art, X)
    np.testing.assert_allclose(p1, p2, rtol=1e-12)


def test_pretrained_registry_exists():
    from capelinker_ray.models.registry import pretrained_models, resolve_artifact
    names = pretrained_models()
    assert "m_boost_transcripts" in names
    art = resolve_artifact("m_boost_transcripts")
    assert art["feature_names"]  # registry contract: model knows its features


def test_score_pairs_parity_all_model_forms(ray_session, tmp_path):
    """Registry name, JSON path and loaded dict all score exactly as
    predict_ensemble does on the driver, row for row."""
    from capelinker_ray.models.registry import resolve_artifact
    rng = np.random.default_rng(5)
    named = resolve_artifact("m_boost_transcripts")
    Xn = rng.random((300, len(named["feature_names"])))
    X, y = _toy(n=300, seed=5)
    m = GBTClassifier(n_rounds=15, seed=1, early_stopping_rounds=None)
    m.fit(X, y, feature_names=["f0", "f1", "f2", "f3"])
    path = str(tmp_path / "m.json")
    save_artifact(m.artifact(), path)
    cases = [("m_boost_transcripts", named, Xn),
             (path, load_artifact(path), X),
             (m.artifact(), m.artifact(), X)]
    for model, art, feats in cases:
        df = pd.DataFrame(feats, columns=art["feature_names"])
        df["row"] = np.arange(len(df))
        out = score_pairs(rd.from_pandas(df).repartition(4), model,
                          batch_size=64).to_pandas().sort_values("row")
        np.testing.assert_allclose(out["pred"].to_numpy(),
                                   predict_ensemble(art, feats), rtol=1e-12)


def test_score_pairs_unknown_model_raises_on_call(ray_session):
    ds = rd.from_pandas(pd.DataFrame({"f0": [0.1, 0.2]}))
    with pytest.raises(KeyError, match="no_such_model"):
        score_pairs(ds, "no_such_model")


def test_scorer_missing_feature_routes_default(ray_session, tmp_path):
    X, y = _toy(n=300, seed=6)
    m = GBTClassifier(n_rounds=15, seed=1, early_stopping_rounds=None)
    m.fit(X, y, feature_names=["f0", "f1", "f2", "f3"])
    path = str(tmp_path / "m.json")
    save_artifact(m.artifact(), path)
    # drop a feature column entirely: scorer must feed NaN, not crash
    df = pd.DataFrame(X[:, :3], columns=["f0", "f1", "f2"])
    out = score_pairs(rd.from_pandas(df), path, batch_size=128).to_pandas()
    assert not out["pred"].isna().any()
