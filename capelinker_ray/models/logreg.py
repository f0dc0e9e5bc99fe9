"""Distributed logistic regression: the quality-classifier trainer.

Curation pipelines routinely train a small linear classifier over corpus
features (fastText-style quality filters, CCNet's LM-vs-wiki gate); at
100 TB the training data never fits one node, but full-batch gradient
descent parallelizes perfectly: every epoch is ONE ``map_batches`` pass
emitting a fixed-width (Σgrad, Σloss, n) partial per batch, summed on
the driver (bytes ∝ #batches × d, never rows), then a deterministic
weight update broadcast back via ``ray.put``. No shuffle anywhere.

Scoring with a fitted (or pinned) model is one stateless vectorized
pass — exactly SQL-expressible, so ``predict_logreg`` carries a
value-exact DuckDB sigmoid oracle; the iterative fit is pinned by
accuracy/parity pytests instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import ray

__all__ = ["LogRegModel", "fit_logreg", "predict_logreg"]


@dataclass
class LogRegModel:
    feature_cols: list
    weights: np.ndarray       # (d,) coefficients on STANDARDIZED features
    bias: float
    mean: np.ndarray          # (d,) standardization mean
    scale: np.ndarray         # (d,) standardization scale (std, >= eps)


def _design(df: pd.DataFrame, cols, mean, scale) -> np.ndarray:
    X = df[list(cols)].to_numpy(np.float64)
    X = (X - mean) / scale
    return np.nan_to_num(X, nan=0.0)   # null -> 0 std units = mean impute


def fit_logreg(ds, feature_cols, label_col: str, *, epochs: int = 30,
               lr: float = 0.5, l2: float = 1e-4) -> LogRegModel:
    """Full-batch gradient-descent logistic regression over a Dataset.

    Pass 1 collects per-batch (n, Σx, Σx²) to standardize features (GD on
    raw feature scales stalls); then ``epochs`` passes each reduce
    per-batch gradient partials. Deterministic up to float addition order
    (partials are summed in block order). Null features count as 0 after
    standardization (i.e. imputed at the mean)."""
    feature_cols = list(feature_cols)
    d = len(feature_cols)

    def mom(df: pd.DataFrame) -> pd.DataFrame:
        X = np.nan_to_num(df[feature_cols].to_numpy(np.float64), nan=0.0)
        return pd.DataFrame({"n": [float(len(X))],
                             "sx": [X.sum(axis=0)],
                             "sxx": [(X * X).sum(axis=0)]})

    rows = ds.map_batches(mom, batch_format="pandas").take_all()
    n_tot = sum(r["n"] for r in rows)
    if n_tot == 0:
        raise ValueError("empty training set")
    sx = np.sum([np.asarray(r["sx"]) for r in rows], axis=0)
    sxx = np.sum([np.asarray(r["sxx"]) for r in rows], axis=0)
    mean = sx / n_tot
    var = np.maximum(sxx / n_tot - mean * mean, 0.0)
    scale = np.where(var > 1e-12, np.sqrt(var), 1.0)

    w = np.zeros(d)
    b = 0.0
    for _ in range(epochs):
        ref = ray.put((w, b, mean, scale))

        def grad(df: pd.DataFrame) -> pd.DataFrame:
            wk, bk, mu, sc = ray.get(ref)
            X = _design(df, feature_cols, mu, sc)
            y = df[label_col].to_numpy(np.float64)
            z = X @ wk + bk
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y
            return pd.DataFrame({"gw": [X.T @ err], "gb": [err.sum()],
                                 "n": [float(len(X))]})

        parts = ds.map_batches(grad, batch_format="pandas").take_all()
        gw = np.sum([np.asarray(r["gw"]) for r in parts], axis=0)
        gb = sum(r["gb"] for r in parts)
        w = w - lr * (gw / n_tot + l2 * w)
        b = b - lr * (gb / n_tot)
    return LogRegModel(feature_cols, w, float(b), mean, scale)


def predict_logreg(ds, model: LogRegModel, *, out_col: str = "prob"):
    """Add ``out_col`` = P(label=1) per row — one stateless vectorized
    pass; the model rides the object store once."""
    ref = ray.put((np.asarray(model.weights, np.float64), model.bias,
                   np.asarray(model.mean, np.float64),
                   np.asarray(model.scale, np.float64)))
    cols = list(model.feature_cols)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        w, b, mu, sc = ray.get(ref)
        X = _design(df, cols, mu, sc)
        df = df.copy()
        df[out_col] = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        return df

    return ds.map_batches(score, batch_format="pandas")
