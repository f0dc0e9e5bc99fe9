"""Rank-based link selection — ``predict_links`` semantics, distributed.

Reimplements /root/reference/R/pred.R:27-57: after scoring,

  rank_from := rank(-pred) by id_from        (pred.R:47)
  rank_to   := rank(-pred) by id_to          (pred.R:48)
  many:one  -> keep rank_from == 1 & pred > minimum_confidence  (pred.R:50-51)
  one:one   -> additionally rank_to == 1                        (pred.R:52-54)

R ``rank`` uses AVERAGE ties (pred.R tie quirk, SURVEY §2.7): a tied best
pair gets rank 1.5 on both rows and BOTH are dropped — pandas
``Series.rank(method='average')`` matches exactly, so the grouped window is
one pandas rank per group inside ``map_groups``.

Scale notes: the pair table is projected to (ids, pred [, carry]) BEFORE the
two rank shuffles (wide `_from`/`_to` attribute rows never move twice —
SURVEY §7 hard part f); ``many:one`` needs only the id_from shuffle;
``one:one`` needs the second, global per-id_to shuffle (a true all-to-all —
block-local ranking would miss cross-block ties, SURVEY §7 hard part c).
NA-scored outer-retention rows are filtered before ranking (they cannot
clear ``minimum_confidence``; R ranks them last with na.last=TRUE).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["select_links"]


def _rank_fn(group_col: str, pred_col: str, out_col: str, tie_break: str,
             other_id: str):
    """Vectorized grouped rank over a COARSE partition holding many
    complete id-groups (stages/grouped.py)."""
    def add_rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        if tie_break == "average":
            # R parity: rank(-pred) with average ties (pred.R:47-48) — a
            # tied best pair ranks 1.5 on both rows and is dropped
            g[out_col] = (g.groupby(group_col, sort=False)[pred_col]
                          .rank(ascending=False, method="average"))
        else:
            # deterministic: ties broken by the other-side id, so piecewise-
            # constant tree scores (exact ties are COMMON for near-identical
            # pairs) still select exactly one pair per group
            g = g.sort_values([group_col, pred_col, other_id],
                              ascending=[True, False, True], kind="stable")
            g[out_col] = (g.groupby(group_col, sort=False).cumcount()
                          .to_numpy() + 1.0)
        return g
    return add_rank


def select_links(ds_scored, *, id_from: str = "conv_id_from",
                 id_to: str = "conv_id_to", pred_col: str = "pred",
                 minimum_confidence: float = 0.5, linktype: str = "one:one",
                 carry_cols: list[str] | None = None,
                 tie_break: str = "average"):
    """Dataset[scored pairs] -> Dataset[accepted links].

    Output columns: id_from, id_to, pred, rank_from[, rank_to], carry_cols.

    ``tie_break`` defaults to ``"average"`` — exact reference parity
    (pred.R:47-54: a tied-best pair ranks 1.5 on both rows and BOTH are
    dropped). Pass ``"deterministic"`` to instead break exact ties by the
    other-side id and always keep exactly one pair per group (useful with
    piecewise-constant tree scores, where exact ties are common).
    """
    if linktype not in ("one:one", "many:one", "threshold"):
        raise ValueError(
            f"linktype must be one:one, many:one or threshold, got {linktype!r}")
    carry = list(carry_cols or [])
    keep = [id_from, id_to, pred_col] + carry
    ds = ds_scored.select_columns(keep)

    # drop outer-retention NA rows + sub-threshold pairs early: the rank of a
    # dropped sub-threshold row can never promote a kept row (ranks only grow
    # when rows are removed... they shrink — so filtering BEFORE ranking
    # could turn rank-2 into rank-1). Threshold therefore applies AFTER
    # ranking, exactly as pred.R:50-54; only NA rows (never selectable,
    # never rank<=1 vs any real score) are pre-filtered.
    from .grouped import typed_or_empty

    def drop_na(df: pd.DataFrame):
        return typed_or_empty(df[df[pred_col].notna()])

    ds = ds.map_batches(drop_na, batch_format="pandas")

    if linktype == "threshold":
        # engine extension for SELF-LINK dedup: a rank-restricted matching
        # breaks transitive families ({a,b,c}: one:one keeps only (a,b) and
        # orphans c) — keep every pair above confidence and let connected
        # components do the transitive closure. Shuffle-free.
        def thr(df: pd.DataFrame):
            return typed_or_empty(df[df[pred_col] > minimum_confidence])
        return ds.map_batches(thr, batch_format="pandas")

    from .grouped import grouped_map
    ds = grouped_map(ds, id_from,
                     _rank_fn(id_from, pred_col, "rank_from", tie_break,
                              id_to))
    if linktype == "one:one":
        ds = grouped_map(ds, id_to,
                         _rank_fn(id_to, pred_col, "rank_to", tie_break,
                                  id_from))

    def final_filter(df: pd.DataFrame):
        m = (df["rank_from"] == 1.0) & (df[pred_col] > minimum_confidence)
        if "rank_to" in df.columns:
            m &= df["rank_to"] == 1.0
        return typed_or_empty(df[m])

    return ds.map_batches(final_filter, batch_format="pandas")
