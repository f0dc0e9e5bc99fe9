"""Conversation-record aggregation: the graft of the reference's record table.

``groupby(conv_id)`` over the turn table produces one row per conversation
with the derived fields the linkage pipeline blocks and scores on — the
analog of the reference's person/household record table (``rein`` schema,
/root/reference/data_raw/traindata_graafreinet.R:144-174; SURVEY §1.3 /
FIXTURES.md F2).

Scale design: a bare ``groupby(conv_id).map_groups`` would shuffle every
*turn* row and pay a Python call per conversation. Instead:

  1. ``map_batches`` computes vectorized per-batch *partial* records with a
     pandas groupby (one row per conversation per batch — ~1 partial per
     conversation when input files are written conversation-contiguously, as
     any transcript log is);
  2. one small shuffle combines partials per conv_id (associative merge);
  3. a final stateless ``map_batches`` derives the blocking fields
     (normalized first-turn prefix, role/tool signature, epoch) from the
     combined record — this is where the reference's blocking variable
     (mlast / soundex key, /root/reference/R/candidates.R:113-116) is grafted
     onto transcripts.

Tool signatures are bitmask-encoded against a small broadcast vocabulary
(``ray.put`` once, read per actor/task) so pairwise tool-set Jaccard later is
pure vectorized popcount — never a shuffle join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels.textutil import initials as _initials

BLOCK_PREFIX_LEN = 16

RECORD_FIELDS = [
    "conv_id", "first_text_norm", "second_text_norm", "role_sig",
    "tool_mask", "tool_sig", "n_turns", "text_chars",
    "ts_min", "ts_max", "epoch", "block_key",
    "first_text_prefix", "first_text_initials",
    # 32-char feature prefixes: the PAIR table carries these instead of the
    # full turn texts (the feature kernels cap at 32 chars anyway, and full
    # texts would multiply the shuffled/materialized pair bytes ~5-10x)
    "first_text_32", "second_text_32",
]

_DAY_US = 86_400_000_000


def collect_tool_vocab(ds) -> dict[str, int]:
    """Distinct tool names -> bit index. Small global aggregate, computed once
    and broadcast (the reference's model-registry-style shared state).

    Per-batch distinct partials + one-task merge (the ``distinct_small``
    pattern) instead of ``Dataset.unique`` — unique() is a full sort-shuffle
    groupby over every turn, and measured as the flagship's worst-scaling
    chunk (conv_records 1.74x going 2->8 cpus at 4.6M turns; the tool
    column's distinct set is ~10 names)."""
    from .agg import distinct_small
    names = distinct_small(ds.select_columns(["tool"]), "tool")
    if len(names) > 62:
        # cap the exact mask at 62 tools; the tail shares overflow bit 62 —
        # bit 63 stays clear so int64 masks remain non-negative (negative is
        # the dedicated NULL sentinel for mask_jaccard)
        names = names[:62]
    return {n: i for i, n in enumerate(names)}


def _partials_fn(vocab: dict[str, int], text_cap: int | None = None):
    def partials(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        tool_bit = df["tool"].map(vocab).fillna(62).astype(np.int64)
        df["_bit"] = np.where(df["tool"].isna(), 0,
                              np.int64(1) << tool_bit.to_numpy())
        df["_chars"] = df["text"].str.len().fillna(0).astype(np.int64)
        g = df.groupby("conv_id", sort=False)
        out = g.agg(
            n_turns=("turn_idx", "size"),
            ts_min=("ts", "min"),
            ts_max=("ts", "max"),
            text_chars=("_chars", "sum"),
        )
        # bitwise-OR of single-bit values == sum over distinct (conv, bit)
        bits = (df[["conv_id", "_bit"]].drop_duplicates()
                .groupby("conv_id", sort=False)["_bit"].sum())
        out["tool_mask"] = bits
        for idx, (tcol, rcol) in ((0, ("first_text_norm", "role0")),
                                  (1, ("second_text_norm", "role1"))):
            sel = df[df["turn_idx"] == idx]
            out[tcol] = sel.set_index("conv_id")["text_norm"]
            out[rcol] = sel.set_index("conv_id")["role"]
        # initials derive from the FULL turn-0 text here (before any cap)
        # so the record field is cap-invariant; the combine carries them
        # with a null-skipping "first" like the texts
        ft = out["first_text_norm"]
        has = ft.notna()
        ini = np.full(len(out), None, dtype=object)
        if has.any():
            ini[has.to_numpy()] = _initials(
                ft[has].to_numpy(dtype=object))
        out["first_text_initials"] = ini
        if text_cap:
            # downstream consumers read at most 32-char prefixes (feature
            # kernels cap at max_len=32; the block key at prefix_len) —
            # full multi-hundred-char texts otherwise dominate the
            # partial-combine shuffle bytes
            out["first_text_norm"] = out["first_text_norm"].str.slice(
                0, text_cap)
            out["second_text_norm"] = out["second_text_norm"].str.slice(
                0, text_cap)
        out["n_turns"] = out["n_turns"].astype(np.int64)
        return out.reset_index()
    return partials


def _combine_partials(partials):
    """Associative partial merge: ONE coarse hash-partitioned shuffle with a
    vectorized pandas aggregation per partition (stages/grouped.py — Ray's
    built-in groupby().aggregate() pays ~ms of Python per distinct key).
    ``tool_mask`` merges by OR (Sum would double-count overlapping bits);
    ``first_text_norm``/roles use ``first`` (null-skipping): exactly one
    batch contains a conversation's turn 0/1, so at most one partial is
    non-null."""
    from .grouped import grouped_map

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", sort=False)
        out = g.agg(
            n_turns=("n_turns", "sum"),
            ts_min=("ts_min", "min"),
            ts_max=("ts_max", "max"),
            text_chars=("text_chars", "sum"),
            first_text_norm=("first_text_norm", "first"),
            role0=("role0", "first"),
            second_text_norm=("second_text_norm", "first"),
            role1=("role1", "first"),
            first_text_initials=("first_text_initials", "first"),
        )
        # vectorized OR-reduce via ufunc.at over factorized group codes —
        # the per-group Python lambda here was ~1 interpreted call per
        # conversation (400k+ at the scaling corpus)
        codes, uniq = pd.factorize(df["conv_id"], sort=False)
        acc = np.zeros(len(uniq), np.int64)
        np.bitwise_or.at(acc, codes,
                         df["tool_mask"].to_numpy(np.int64))
        out["tool_mask"] = pd.Series(acc, index=uniq)
        return out.reset_index()

    return grouped_map(partials, "conv_id", agg)


def _finalize_fn(vocab: dict[str, int], prefix_len: int):
    inv = sorted(vocab, key=vocab.get)

    def tool_sig_of(mask: int) -> str:
        if mask <= 0:
            return ""
        return "|".join(n for n in inv if mask & (1 << vocab[n]))

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        ft = df["first_text_norm"].fillna("")
        df["first_text_32"] = df["first_text_norm"].str.slice(0, 32)
        df["second_text_32"] = df["second_text_norm"].str.slice(0, 32)
        df["first_text_prefix"] = ft.str.slice(0, prefix_len)
        # initials were computed in the partials pass from the UNCAPPED
        # turn-0 text (cap-invariant); null only for convs with no turn 0
        df["first_text_initials"] = df["first_text_initials"].fillna("")
        df["role_sig"] = (df["role0"].fillna("") + ">" + df["role1"].fillna(""))
        df["block_key"] = df["first_text_prefix"] + "|" + df["role_sig"]
        df["tool_sig"] = df["tool_mask"].map(tool_sig_of)
        ts_us = (pd.to_datetime(df["ts_min"]).astype("datetime64[ns]")
                 .astype("int64") // 1000)
        df["epoch"] = (ts_us // _DAY_US).astype(np.int32)
        df["n_turns"] = df["n_turns"].astype(np.int32)
        return df[RECORD_FIELDS]
    return finalize


def build_conv_records(ds_turns, tool_vocab: dict[str, int] | None = None,
                       prefix_len: int = BLOCK_PREFIX_LEN,
                       text_cap: int | None = None,
                       pin_partials: bool = True):
    """Dataset[turns + text_norm] -> Dataset[conversation records].

    One shuffle (of the already-aggregated partials, not the turns).

    ``text_cap`` truncates the carried ``first/second_text_norm`` record
    fields to that many characters INSIDE the partials pass (initials stay
    exact — computed pre-cap). Callers that only consume bounded prefixes
    (the flagship: 32-char feature kernels, ``prefix_len``-char block key)
    pass a cap so full turn texts never ride the combine shuffle; callers
    needing full normalized texts (the ``conv_records`` oracle) leave it
    None.
    """
    if text_cap is not None and text_cap < max(32, prefix_len):
        raise ValueError("text_cap must be >= max(32, prefix_len)")
    if tool_vocab is None:
        tool_vocab = collect_tool_vocab(ds_turns)
    partials = ds_turns.map_batches(_partials_fn(tool_vocab, text_cap),
                                    batch_format="pandas")
    if pin_partials:
        # pin the SLIM partials (conversation-level rows, capped texts —
        # orders of magnitude smaller than the turn input) before the
        # combine shuffle: one streaming plan chaining the input
        # repartition, the heavy partials map and the combine's
        # repartition+sort ran the all-to-alls poorly overlapped —
        # measured 800k entities: 8 cpus 29.0 -> 14.9 s, 2 cpus
        # 63.2 -> 41.2 s (the flagship's worst-scaling stage before this)
        partials = partials.materialize()
    combined = _combine_partials(partials)
    return combined.map_batches(_finalize_fn(tool_vocab, prefix_len),
                                batch_format="pandas")
