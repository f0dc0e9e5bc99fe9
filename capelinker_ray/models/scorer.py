"""Pair scoring — the Ray graft of ``predict_links`` scoring.

The reference fetches a pretrained model by name and scores every candidate
row in-process (reference R/pred.R:40-45). Here scoring is one
stateless ``map_batches`` stage: the frozen artifact is resolved once on
the driver and shipped inside the batch function, and each batch builds
the feature matrix from the artifact's own ``feature_names`` (the registry
contract: models introspect their required features,
data_raw/pretrained.R:489-508) and appends ``pred``.

Wide pair rows are NOT shipped through the scorer redundantly: callers may
``select_columns`` down to ids + features first (SURVEY §7 hard part f).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .registry import resolve_artifact
from .trees import predict_ensemble

__all__ = ["score_pairs", "feature_matrix"]


def feature_matrix(t: pa.Table, feature_names: list[str]) -> np.ndarray:
    cols = []
    n = len(t)
    for name in feature_names:
        if name in t.column_names:
            a = t[name]
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            # cast to float64 in Arrow so nulls become NaN on the numpy
            # side — to_numpy(zero_copy_only=False) is a single buffer
            # copy, not a per-value Python conversion
            if not pa.types.is_float64(a.type):
                a = a.cast(pa.float64())
            cols.append(a.to_numpy(zero_copy_only=False))
        elif name == "(Intercept)":
            # R model.matrix intercept column (imported reference boosters
            # were trained with it): constant 1, never split on
            cols.append(np.ones(n))
        else:
            # absent feature -> all-NaN column; trees route it down the
            # learned default branch (xgboost NA semantics, example.rmd:147)
            cols.append(np.full(n, np.nan))
    return np.column_stack(cols) if cols else np.empty((n, 0))


def score_pairs(ds_pairs, model, batch_size: int | None = None):
    """Dataset[pairs+features] -> + ``pred`` column.

    ``model`` is a registry name, a JSON artifact path or a loaded dict.
    It is resolved ONCE here on the driver (an unknown name raises
    ``KeyError`` before any task runs), and the stateless batch function
    closes over the artifact: each task unpickles it with the function,
    which costs less than re-parsing a JSON path per batch and has no
    pool spin-up (measured: a (1,16) actor pool cost ~6 s of cold start
    on a 4k-pair run whose model loads in <1 ms)."""
    art = resolve_artifact(model)
    feature_names = art["feature_names"]

    def score_batch(t: pa.Table) -> pa.Table:
        X = feature_matrix(t, feature_names)
        pred = predict_ensemble(art, X)
        return t.append_column("pred", pa.array(pred, pa.float64()))
    return ds_pairs.map_batches(score_batch, batch_size=batch_size,
                                batch_format="pyarrow")
