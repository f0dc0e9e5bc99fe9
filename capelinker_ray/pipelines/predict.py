"""``predict_links`` — the reference's one-call score-and-select API.

Parity with /root/reference/R/pred.R:27-57: fetch a pretrained model by
name, score every candidate pair, rank per id with R's average-tie
semantics, and keep rank-1 pairs above ``minimum_confidence`` (both sides
rank 1 for ``one:one``). Composed from the engine's distributed stages:
stateless batch scoring (models/scorer.py) + grouped rank selection
(stages/selection.py) — the reference's in-process loop re-expressed as
two Ray stages.
"""

from __future__ import annotations

from ..models.scorer import score_pairs
from ..stages.selection import select_links

__all__ = ["predict_links"]


def predict_links(ds_candidates, *, id_from: str, id_to: str,
                  model: str = "m_rf_baptisms_full",
                  minimum_confidence: float = 0.5,
                  linktype: str = "one:one",
                  carry_cols: list[str] | None = None,
                  batch_size: int | None = None):
    """Dataset[candidate pairs + feature columns] -> Dataset[accepted
    links] (id_from, id_to, pred, rank columns, carry_cols).

    ``model`` resolves through the registry — including the reference's
    bundled pretrained models (m_boost_stel_rein, m_rf_baptisms_sparse,
    ...), auto-imported from pretrained_models.rda. Missing feature
    columns feed NaN into the trees (learned-default routing), exactly as
    the reference's xgboost path.
    """
    scored = score_pairs(ds_candidates, model, batch_size=batch_size)
    return select_links(scored, id_from=id_from, id_to=id_to,
                        pred_col="pred",
                        minimum_confidence=minimum_confidence,
                        linktype=linktype, carry_cols=carry_cols,
                        tie_break="average")
