"""From-scratch numpy tree-ensemble match classifiers + frozen artifacts.

The reference scores candidate pairs with pretrained xgboost / randomForest
models fetched by name from a registry (/root/reference/R/pred.R:40-45,
data_raw/pretrained.R:489-513). No xgboost/sklearn exists in this
environment, so both ensemble types are reimplemented in numpy (trees.py)
with xgboost-compatible hyperparameters and NaN default-direction handling,
frozen to JSON artifacts that embed ``feature_names`` (the registry contract,
SURVEY §2.6), and scored by one stateless ``map_batches`` stage
(scorer.py).
"""

from .trees import GBTClassifier, RandomForest, load_artifact, save_artifact
from .scorer import score_pairs
from .registry import pretrained_models, artifact_path

__all__ = [
    "GBTClassifier", "RandomForest", "load_artifact", "save_artifact",
    "score_pairs", "pretrained_models", "artifact_path",
]
