"""Numpy gradient-boosted trees + random forest, from scratch.

Training is driver-side (labeled pairs ≪ corpus — the reference trains on a
few thousand hand-labeled candidate pairs, data_raw/pretrained.R:55-86) and
deliberately mirrors the reference's xgboost hyperparameters
(/root/reference/data_raw/pretrained.R:61-73: max_depth=6,
min_child_weight=1, gamma=1, eta=0.3, subsample=0.8, colsample_bytree=0.5,
objective=binary:logistic) including xgboost's *learned missing-value default
direction* per split — the vignette explicitly relies on NA routing
(vignettes/example.rmd:147). The random forest mirrors
``randomForest(..., na.action="na.exclude")`` (pretrained.R:168-181) as a
bagged regression forest voting P(match).

Exact greedy split finding, vectorized per feature over sorted prefix sums;
fine for ≤1e6 × ~16 training matrices. Inference is array-based level-wise
traversal (predict_ensemble) — the same code path the Ray scorer uses
per batch, no Python loop over rows.

Artifacts are frozen to JSON: feature_names + flat node arrays per tree.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "GBTClassifier", "RandomForest", "predict_ensemble",
    "save_artifact", "load_artifact",
]

_EPS = 1e-12


# ---------------------------------------------------------------------------
# single-tree exact greedy builder (shared by GBT and RF)
# ---------------------------------------------------------------------------

class _Tree:
    __slots__ = ("feature", "threshold", "default_left", "left", "right", "value")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.default_left: list[bool] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.default_left.append(True)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def arrays(self):
        return dict(
            feature=np.asarray(self.feature, np.int32),
            threshold=np.asarray(self.threshold, np.float64),
            default_left=np.asarray(self.default_left, bool),
            left=np.asarray(self.left, np.int32),
            right=np.asarray(self.right, np.int32),
            value=np.asarray(self.value, np.float64),
        )


def _best_split_feature(x, g, h, lam, min_child_weight):
    """Best (gain_raw, threshold, default_left, GL+HL with missing placed).

    gain_raw = GL^2/(HL+λ) + GR^2/(HR+λ) - G^2/(H+λ)   (γ applied by caller)
    Missing rows are routed to the side that maximizes gain (xgboost
    'learned default direction').
    """
    miss = np.isnan(x)
    xs = x[~miss]
    if len(xs) < 2:
        return None
    gs, hs = g[~miss], h[~miss]
    order = np.argsort(xs, kind="stable")
    xs, gs, hs = xs[order], gs[order], hs[order]
    Gm, Hm = g[miss].sum(), h[miss].sum()
    G, H = gs.sum() + Gm, hs.sum() + Hm

    cg = np.cumsum(gs)
    ch = np.cumsum(hs)
    # candidate split positions: between distinct consecutive values
    cut = xs[:-1] != xs[1:]
    if not cut.any():
        return None
    idx = np.nonzero(cut)[0]
    GL, HL = cg[idx], ch[idx]
    GR, HR = G - Gm - GL, H - Hm - HL
    parent = G * G / (H + lam)

    best = None
    for default_left in (True, False):
        gl = GL + (Gm if default_left else 0.0)
        hl = HL + (Hm if default_left else 0.0)
        gr = GR + (0.0 if default_left else Gm)
        hr = HR + (0.0 if default_left else Hm)
        ok = (hl >= min_child_weight) & (hr >= min_child_weight)
        if not ok.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent
        gain = np.where(ok, gain, -np.inf)
        k = int(np.argmax(gain))
        if best is None or gain[k] > best[0]:
            thr = (xs[idx[k]] + xs[idx[k] + 1]) / 2.0
            best = (float(gain[k]), float(thr), default_left)
    return best


def _build_tree(X, g, h, *, max_depth, lam, gamma, min_child_weight,
                colsample, rng, leaf_scale) -> _Tree:
    n, d = X.shape
    tree = _Tree()

    def grow(rows: np.ndarray, depth: int) -> int:
        node = tree._new_node()
        G, H = g[rows].sum(), h[rows].sum()
        tree.value[node] = float(leaf_scale * (-G / (H + lam)))
        if depth >= max_depth or len(rows) < 2:
            return node
        if colsample < 1.0:
            k = max(1, int(round(colsample * d)))
            feats = rng.choice(d, size=k, replace=False)
        else:
            feats = np.arange(d)
        best = None
        for f in feats:
            r = _best_split_feature(X[rows, f], g[rows], h[rows], lam,
                                    min_child_weight)
            if r is not None and (best is None or r[0] > best[1][0]):
                best = (int(f), r)
        if best is None:
            return node
        f, (gain, thr, default_left) = best
        if 0.5 * gain < gamma:  # xgboost pruning criterion
            return node
        x = X[rows, f]
        go_left = (x < thr) | (np.isnan(x) & default_left)
        lrows, rrows = rows[go_left], rows[~go_left]
        if len(lrows) == 0 or len(rrows) == 0:
            return node
        tree.feature[node] = f
        tree.threshold[node] = thr
        tree.default_left[node] = default_left
        tree.left[node] = grow(lrows, depth + 1)
        tree.right[node] = grow(rrows, depth + 1)
        return node

    grow(np.arange(n), 0)
    return tree


def _predict_tree(arrs: dict, X: np.ndarray) -> np.ndarray:
    """Vectorized level-wise traversal; ≤ max_depth iterations."""
    n = len(X)
    node = np.zeros(n, dtype=np.int64)
    feature = arrs["feature"]
    while True:
        f = feature[node]
        live = f >= 0
        if not live.any():
            break
        idx = np.nonzero(live)[0]
        fi = f[live]
        x = X[idx, fi]
        thr = arrs["threshold"][node[live]]
        dl = arrs["default_left"][node[live]]
        go_left = (x < thr) | (np.isnan(x) & dl)
        node[idx] = np.where(go_left, arrs["left"][node[live]],
                             arrs["right"][node[live]])
    return arrs["value"][node]


def predict_ensemble(artifact: dict, X: np.ndarray) -> np.ndarray:
    """Raw margin/mean for a loaded artifact dict; batch-vectorized."""
    out = np.full(len(X), float(artifact.get("base_score", 0.0)))
    for arrs in artifact["trees"]:
        out += _predict_tree(arrs, X)
    if artifact["type"] == "gbt":
        return 1.0 / (1.0 + np.exp(-out))
    return out / max(len(artifact["trees"]), 1)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

class GBTClassifier:
    """Binary-logistic gradient-boosted trees (xgboost parameter parity)."""

    def __init__(self, n_rounds: int = 200, max_depth: int = 6, eta: float = 0.3,
                 min_child_weight: float = 1.0, gamma: float = 1.0,
                 subsample: float = 0.8, colsample_bytree: float = 0.5,
                 reg_lambda: float = 1.0, base_score: float = 0.5,
                 early_stopping_rounds: int | None = 20, seed: int = 0):
        self.params = dict(n_rounds=n_rounds, max_depth=max_depth, eta=eta,
                           min_child_weight=min_child_weight, gamma=gamma,
                           subsample=subsample, colsample_bytree=colsample_bytree,
                           reg_lambda=reg_lambda, base_score=base_score,
                           early_stopping_rounds=early_stopping_rounds, seed=seed)
        self.trees: list[dict] = []
        self.feature_names: list[str] = []
        self.base_margin = float(np.log(base_score / (1 - base_score)))

    def fit(self, X: np.ndarray, y: np.ndarray, feature_names=None,
            eval_set=None):
        p = self.params
        rng = np.random.default_rng(p["seed"])
        X = np.asarray(X, np.float64)
        y = np.asarray(y, np.float64)
        n = len(X)
        self.feature_names = list(feature_names or
                                  [f"f{i}" for i in range(X.shape[1])])
        margin = np.full(n, self.base_margin)
        ev = None
        if eval_set is not None:
            Xe, ye = eval_set
            ev_margin = np.full(len(Xe), self.base_margin)
            best_loss, best_len, since = np.inf, 0, 0
        for _ in range(p["n_rounds"]):
            prob = 1.0 / (1.0 + np.exp(-margin))
            g = prob - y
            h = prob * (1.0 - prob)
            if p["subsample"] < 1.0:
                rows = rng.random(n) < p["subsample"]
                gs = np.where(rows, g, 0.0)
                hs = np.where(rows, h, 0.0)
            else:
                gs, hs = g, h
            tree = _build_tree(X, gs, hs, max_depth=p["max_depth"],
                               lam=p["reg_lambda"], gamma=p["gamma"],
                               min_child_weight=p["min_child_weight"],
                               colsample=p["colsample_bytree"], rng=rng,
                               leaf_scale=p["eta"])
            arrs = tree.arrays()
            self.trees.append(arrs)
            margin += _predict_tree(arrs, X)
            if eval_set is not None:
                ev_margin += _predict_tree(arrs, Xe)
                pe = 1.0 / (1.0 + np.exp(-ev_margin))
                pe = np.clip(pe, _EPS, 1 - _EPS)
                loss = float(-(ye * np.log(pe) + (1 - ye) * np.log(1 - pe)).mean())
                if loss < best_loss - 1e-7:
                    best_loss, best_len, since = loss, len(self.trees), 0
                else:
                    since += 1
                    if (p["early_stopping_rounds"] and
                            since >= p["early_stopping_rounds"]):
                        self.trees = self.trees[:best_len]
                        break
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return predict_ensemble(self.artifact(), np.asarray(X, np.float64))

    def artifact(self) -> dict:
        return {"type": "gbt", "feature_names": self.feature_names,
                "base_score": self.base_margin, "trees": self.trees,
                "params": {k: v for k, v in self.params.items()}}


class RandomForest:
    """Bagged regression forest voting P(match).

    Behavior target: randomForest(as.factor(correct) ~ ., na.action=
    "na.exclude") with type="prob" voting (/root/reference/R/pred.R:43,
    data_raw/pretrained.R:168-181). NaN features route down learned default
    directions instead of R's row exclusion (strictly more data-tolerant).
    """

    def __init__(self, n_trees: int = 200, max_depth: int = 12,
                 min_child_weight: float = 5.0, mtry: float | None = None,
                 seed: int = 0):
        self.params = dict(n_trees=n_trees, max_depth=max_depth,
                           min_child_weight=min_child_weight, mtry=mtry,
                           seed=seed)
        self.trees: list[dict] = []
        self.feature_names: list[str] = []

    def fit(self, X: np.ndarray, y: np.ndarray, feature_names=None):
        p = self.params
        rng = np.random.default_rng(p["seed"])
        X = np.asarray(X, np.float64)
        y = np.asarray(y, np.float64)
        n, d = X.shape
        self.feature_names = list(feature_names or [f"f{i}" for i in range(d)])
        mtry = p["mtry"] if p["mtry"] is not None else max(1, int(np.sqrt(d)) ) / d
        for _ in range(p["n_trees"]):
            rows = rng.integers(0, n, size=n)  # bootstrap
            w = np.bincount(rows, minlength=n).astype(np.float64)
            # squared-error tree on y: g = -w*y, h = w  ->  leaf = weighted mean
            tree = _build_tree(X, -w * y, w, max_depth=p["max_depth"],
                               lam=0.0, gamma=0.0,
                               min_child_weight=p["min_child_weight"],
                               colsample=mtry, rng=rng, leaf_scale=1.0)
            self.trees.append(tree.arrays())
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return predict_ensemble(self.artifact(), np.asarray(X, np.float64))

    def artifact(self) -> dict:
        return {"type": "rf", "feature_names": self.feature_names,
                "base_score": 0.0, "trees": self.trees,
                "params": {k: v for k, v in self.params.items()}}


# ---------------------------------------------------------------------------
# frozen JSON artifacts (the model-registry contract, pretrained.R:489-508)
# ---------------------------------------------------------------------------

def save_artifact(artifact: dict, path: str) -> None:
    ser = {
        "type": artifact["type"],
        "feature_names": artifact["feature_names"],
        "base_score": artifact["base_score"],
        "params": artifact.get("params", {}),
        "trees": [
            {k: (v.astype(int).tolist() if k in ("feature", "left", "right")
                 else v.astype(float).tolist() if k in ("threshold", "value")
                 else v.astype(int).tolist())
             for k, v in t.items()}
            for t in artifact["trees"]
        ],
    }
    with open(path, "w") as f:
        json.dump(ser, f)


def load_artifact(path: str) -> dict:
    with open(path) as f:
        raw = json.load(f)
    return {
        "type": raw["type"],
        "feature_names": raw["feature_names"],
        "base_score": raw["base_score"],
        "params": raw.get("params", {}),
        "trees": [
            {"feature": np.asarray(t["feature"], np.int32),
             "threshold": np.asarray(t["threshold"], np.float64),
             "default_left": np.asarray(t["default_left"], bool),
             "left": np.asarray(t["left"], np.int32),
             "right": np.asarray(t["right"], np.int32),
             "value": np.asarray(t["value"], np.float64)}
            for t in raw["trees"]
        ],
    }
