"""Pairwise feature computation over the candidate-pair table.

Reimplements ``distcalc`` (/root/reference/R/distances.R:23-45) plus the
model-specific extra features (/root/reference/data_raw/pretrained.R:205-222,
381-399) as ONE stateless ``map_batches`` stage over the pair table: for each
character variable ``v`` present as ``v_from``/``v_to`` it appends

    {v}dist      Jaro-Winkler distance, prefix weight p (reference distcalc
                 pins p=0.1, distances.R:32; the vignette feature calls use
                 p=0 — both are exposed, SURVEY §2.4)
    {v}sdx       soundex distance (0/1), distances.R:35-39
    {v}dist_osa  1 - OSA similarity (pretrained.R:213 ``minitialsdist_osa``)

and for each numeric variable the plain difference ``v_from - v_to``
(distances.R:41-43) and optionally the Gaussian-kernel similarity
``{v}gauss`` (``settlerchildrengauss``, pretrained.R:44 / util.R:271-273).

Null semantics: any null operand yields NaN (stringdist parity, SURVEY §1.2).

The graft features (SURVEY §1.3) derive the same signal from transcript
conversation records: text JW/OSA over the normalized first/second turns,
tool-set Jaccard over broadcast-vocab bitmasks (pure popcount — no shuffle),
role-signature equality, turn-count / length differences and a ts-gap
Gaussian kernel.

Everything is vectorized numpy over Arrow columns; no Python loop over pairs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels.strdist import (
    jaro_winkler_sim,
    mask_jaccard,
    osa_sim,
    soundex_dist,
    token_jaccard,
)
from ..kernels.textutil import gk

__all__ = ["distcalc", "add_pair_features", "TRANSCRIPT_FEATURES"]


def _obj(t: pa.Table, col: str) -> np.ndarray:
    """Column -> object ndarray (strings with None for nulls)."""
    return np.asarray(t[col].to_pylist(), dtype=object)


def _str_col(t: pa.Table, col: str):
    """String column handed to the distance kernels AS ARROW — their
    ``encode`` decodes pure-ASCII arrays straight from the UTF-8 buffer
    (kernels/strdist.py:_encode_arrow_ascii), skipping one Python-string
    materialization per value per kernel."""
    return t[col]


def _num(t: pa.Table, col: str) -> np.ndarray:
    a = t[col]
    if pa.types.is_timestamp(a.type):
        a = a.cast(pa.int64())
    if pa.types.is_integer(a.type) or pa.types.is_floating(a.type):
        out = a.to_numpy(zero_copy_only=False)
        return np.asarray(out, dtype=np.float64)      # nulls -> nan
    return np.array(a.to_pylist(), dtype=np.float64)  # nulls -> nan


def _distcalc_batch(t: pa.Table, character_variables, numeric_variables,
                    osa_variables, gauss_variables, p_jw, sdx) -> pa.Table:
    cols: dict[str, np.ndarray] = {}
    for v in character_variables:
        f, to = _obj(t, f"{v}_from"), _obj(t, f"{v}_to")
        cols[f"{v}dist"] = 1.0 - jaro_winkler_sim(f, to, p=p_jw)
        if sdx:
            cols[f"{v}sdx"] = soundex_dist(f, to)
    for v in osa_variables:
        f, to = _obj(t, f"{v}_from"), _obj(t, f"{v}_to")
        cols[f"{v}dist_osa"] = 1.0 - osa_sim(f, to)
    for v in numeric_variables:
        cols[f"{v}dist"] = _num(t, f"{v}_from") - _num(t, f"{v}_to")
    for v, sigma in (gauss_variables or {}).items():
        cols[f"{v}gauss"] = gk(_num(t, f"{v}_from"), _num(t, f"{v}_to"), sigma)
    for name, arr in cols.items():
        t = t.append_column(name, pa.array(arr, pa.float64()))
    return t


def distcalc(ds_pairs, character_variables=(), numeric_variables=(),
             osa_variables=(), gauss_variables=None, p_jw: float = 0.1,
             sdx: bool = True, batch_size: int | None = None):
    """Dataset[pairs] -> same + feature columns (distances.R:23-45 parity)."""
    return ds_pairs.map_batches(
        lambda t: _distcalc_batch(t, character_variables, numeric_variables,
                                  osa_variables, gauss_variables, p_jw, sdx),
        batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------------
# Graft: transcript pair features (over conv-record pair tables)
# ---------------------------------------------------------------------------

# feature names produced by add_pair_features, in artifact order
TRANSCRIPT_FEATURES = [
    "first_textdist",        # JW(p=0.1) distance over normalized first turns
    "first_textdist_osa",    # 1 - OSA similarity
    "first_textsdx",         # soundex 0/1 distance
    "second_textdist",       # JW over normalized second turns
    "initialsdist_osa",      # OSA over first-turn initials (minitialsdist_osa analog)
    "tool_jacc",             # Jaccard over tool bitmasks
    "role_sig_eq",           # 1.0 if role signature equal
    "n_turnsdist",           # turn-count difference
    "text_charsdist",        # total-text-length difference
    "ts_gapgauss",           # gk over start timestamps (sigma in days)
    "epochdist",             # epoch (day bucket) difference
    "matches",               # block-size feature (vignettes/example.rmd:106)
]


def _pair_features_batch(t: pa.Table, ts_sigma_days: float) -> pa.Table:
    # prefer the 32-char prefix columns (what pipelines ship through the
    # pair table); fall back to the full normalized texts for pair tables
    # built with custom attr_cols — values are identical either way because
    # the kernels cap at max_len=32
    def txt(base: str, side: str):
        for c in (f"{base}_32_{side}", f"{base}_norm_{side}"):
            if c in t.column_names:
                return _str_col(t, c)
        return np.full(len(t), None, dtype=object)

    ff, ft = txt("first_text", "from"), txt("first_text", "to")
    sf, st = txt("second_text", "from"), txt("second_text", "to")
    inf, int_ = (_str_col(t, "first_text_initials_from"),
                 _str_col(t, "first_text_initials_to"))

    mf = _num(t, "tool_mask_from")
    mt = _num(t, "tool_mask_to")
    mask_f = np.where(np.isnan(mf), -1, mf).astype(np.int64)
    mask_t = np.where(np.isnan(mt), -1, mt).astype(np.int64)

    import pyarrow.compute as pc
    role_eq = np.asarray(
        pc.cast(pc.equal(t["role_sig_from"], t["role_sig_to"]),
                pa.float64()).to_numpy(zero_copy_only=False),
        dtype=np.float64)

    ts_f = _num(t, "ts_min_from") / 86_400e6  # days
    ts_t = _num(t, "ts_min_to") / 86_400e6

    # JW/OSA are O(len²) per pair — cap the compared prefix at 32 normalized
    # chars (2× the 16-char blocking prefix; near-dup signal saturates long
    # before that, and uncapped multi-hundred-char turns would dominate the
    # whole pipeline's wall time). Identical strings short-circuit the DP
    # entirely (strdist._core_with_eq_fastpath).
    cols = {
        "first_textdist": 1.0 - jaro_winkler_sim(ff, ft, p=0.1, max_len=32),
        "first_textdist_osa": 1.0 - osa_sim(ff, ft, max_len=32),
        "first_textsdx": soundex_dist(ff, ft),
        "second_textdist": 1.0 - jaro_winkler_sim(sf, st, p=0.1, max_len=32),
        "initialsdist_osa": 1.0 - osa_sim(inf, int_, max_len=32),
        "tool_jacc": mask_jaccard(mask_f, mask_t),
        "role_sig_eq": role_eq,
        "n_turnsdist": _num(t, "n_turns_from") - _num(t, "n_turns_to"),
        "text_charsdist": _num(t, "text_chars_from") - _num(t, "text_chars_to"),
        "ts_gapgauss": gk(ts_f, ts_t, sigma=ts_sigma_days),
        "epochdist": _num(t, "epoch_from") - _num(t, "epoch_to"),
    }
    for name, arr in cols.items():
        t = t.append_column(name, pa.array(arr, pa.float64()))
    if "matches" not in t.column_names:
        t = t.append_column("matches", pa.array(np.full(len(t), np.nan), pa.float64()))
    return t


# identity/metadata columns kept by the slim projection (whatever subset
# the caller's pair table carries)
_SLIM_PAIR_COLS = {"conv_id_from", "conv_id_to", "id_from", "id_to",
                   "score", "dist", "block_key"}


def add_pair_features(ds_pairs, ts_sigma_days: float = 30.0,
                      batch_size: int | None = None, slim: bool = False):
    """Conv-record pair table -> + TRANSCRIPT_FEATURES columns.

    ``matches`` (candidates per from-record) is already emitted by the
    blocking stage (free, block-local); it is only back-filled with NaN here
    if absent so the feature schema is stable.

    ``slim=True`` drops the per-side attribute columns (``*_from``/``*_to``
    inputs) from the OUTPUT inside the same fused task: downstream
    consumers (scorer, rank selection) read only ids + features, and the
    wide attrs otherwise ride every pair row through the stage
    materialize — ~2.5x the pinned bytes at 14M pairs for nothing.
    """
    def fn(t: pa.Table) -> pa.Table:
        t = _pair_features_batch(t, ts_sigma_days)
        if slim:
            keep = [c for c in t.column_names
                    if c in _SLIM_PAIR_COLS or c in TRANSCRIPT_FEATURES]
            t = t.select(keep)
        return t

    return ds_pairs.map_batches(fn, batch_format="pyarrow",
                                batch_size=batch_size)

