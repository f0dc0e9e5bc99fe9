"""Record-level corpus statistics feeding features (SURVEY §2.5).

The reference derives per-record features from corpus-wide aggregates:
``namefreq`` (grouped count joined back,
/root/reference/data_raw/traindata_graafreinet.R:121-122), per-group
uniqueness scores (:112-119), min-max normalisation (util.R:169-175) and the
greedy ``uniformise_string`` canonicalization dictionary (util.R:145-166).

Distributed shapes:
  add_group_count      partial counts per batch -> ONE small groupby of
                       partials -> broadcast join back (never shuffles the
                       full table twice)
  normalise_column     two passes: global min/max aggregate, then a
                       stateless map — the reference's normalise() but
                       streaming
  uniformise_column    distinct values + counts collected driver-side
                       (distinct ≪ rows), greedy JW absorption there, the
                       resulting dictionary broadcast back via ray.put —
                       the documented plan for this order-dependent global
                       op (SURVEY §7 hard part a)
  add_group_uniqueness per-group mean pairwise JW distance of a string
                       column (mfirst_uniqueness analog) via map_groups on
                       bounded groups
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
from ray.data.aggregate import Max, Min

from ..kernels.strdist import jaro_winkler_sim

__all__ = ["add_group_count", "normalise_column", "uniformise_column",
           "add_group_uniqueness", "vocab_counts", "encode_tokens",
           "pair_counts", "pmi_scores", "cooccurrence_counts"]


def add_group_count(ds, key_col: str, out_col: str = "group_count"):
    """namefreq semantics: count per key, joined back broadcast-style."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(key_col, sort=False, dropna=False).size()
        return out.rename("n").reset_index()

    from .grouped import grouped_map

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(key_col, sort=False, dropna=False)["n"].sum()
                .rename(out_col).reset_index())

    partials = ds.map_batches(partial, batch_format="pandas")
    totals = grouped_map(partials, key_col, combine).to_pandas()

    # shuffle-free join-back with the per-worker indexed broadcast path
    # (counts keys are unique by construction -> one get_indexer probe per
    # batch instead of a per-batch merge hash build)
    from .join import broadcast_join
    return broadcast_join(ds, totals, on=key_col, how="left")


def vocab_counts(ds, text_col: str = "text", min_count: int = 5):
    """Corpus-level vocabulary: Dataset[(token, n)] of every token whose
    global count reaches ``min_count`` (the BPE-corpus / filter-list
    building block). Empty tokens (from repeated spaces) are dropped.

    Scale shape: each batch pre-aggregates its own token counts (one
    flattened ``value_counts`` — batch rows collapse to its distinct
    tokens), so the only shuffle moves (token, partial_n) rows — Zipf makes
    the partials tiny relative to the corpus. Split convention matches the
    other text oracles: single-space split."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        words = df[text_col].where(df[text_col].notna(), "").str.split(" ")
        lens = words.str.len().to_numpy(np.int64)
        if not lens.sum():
            return pd.DataFrame({"token": pd.Series(dtype=object),
                                 "n": pd.Series(dtype=np.int64)})
        flat = np.concatenate([np.asarray(w, dtype=object) for w in words])
        codes, uniq = pd.factorize(flat, sort=False)
        cnt = np.bincount(codes, minlength=len(uniq))
        keep = np.asarray(uniq, dtype=object) != ""
        return pd.DataFrame({"token": np.asarray(uniq, dtype=object)[keep],
                             "n": cnt[keep].astype(np.int64)})

    from .grouped import grouped_map

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        tot = (df.groupby("token", sort=False)["n"].sum().reset_index())
        return tot[tot["n"] >= min_count]

    partials = ds.map_batches(partial, batch_format="pandas")
    return grouped_map(partials, "token", combine)


def normalise_column(ds, col: str, out_col: str | None = None):
    """(x - min) / (max - min) over the whole dataset (util.R:169-175):
    one global aggregate, then a stateless vectorized map."""
    out_col = out_col or f"{col}_norm"
    stats = ds.aggregate(Min(col, alias_name="lo"), Max(col, alias_name="hi"))
    lo, hi = float(stats["lo"]), float(stats["hi"])
    rng = (hi - lo) if hi > lo else 1.0

    def scale(df: pd.DataFrame) -> pd.DataFrame:
        # shallow: untouched columns share buffers
        return df.assign(**{out_col: (df[col].astype(float) - lo) / rng})
    return ds.map_batches(scale, batch_format="pandas")


def uniformise_column(ds, col: str, out_col: str | None = None,
                      maxdist: float = 0.2):
    """Greedy canonicalization dictionary computed driver-side over the
    DISTINCT (value, count) table (small relative to rows), broadcast back
    as a map — exact frequency order, no value-repetition expansion."""
    from ..kernels.textutil import uniformise_mapping
    out_col = out_col or f"{col}_uniform"
    # partial counts per batch -> ONE small combine (add_group_count shape)
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(col, sort=False).size().rename("n")
                .reset_index())

    from .grouped import grouped_map

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(col, sort=False)["n"].sum().reset_index())

    counts = grouped_map(ds.map_batches(partial, batch_format="pandas"),
                         col, combine).to_pandas()
    counts = counts[[isinstance(v, str) for v in counts[col]]]
    mapping = uniformise_mapping(counts[col].to_numpy(object),
                                 counts["n"].to_numpy(np.int64),
                                 maxdist=maxdist)
    ref = ray.put(mapping)

    def apply_map(df: pd.DataFrame) -> pd.DataFrame:
        from .bcast import cached_get
        return df.assign(**{out_col: _map_strings(df[col], cached_get(ref))})
    return ds.map_batches(apply_map, batch_format="pandas")


def _map_strings(values: pd.Series, mapping: dict) -> np.ndarray:
    """Object array: each string through ``mapping`` (a string the mapping
    lacks maps to itself), every non-string (None, NaN, numbers) to None.
    The lookup runs once per DISTINCT value (``pd.factorize``), and a
    take spreads the results back over the rows."""
    codes, uniq = pd.factorize(values)
    mapped = np.array([mapping.get(v, v) if isinstance(v, str) else None
                       for v in uniq] + [None], dtype=object)
    return mapped[codes]          # code -1 (missing) takes the last slot


def add_group_uniqueness(ds, group_col: str, str_col: str,
                         out_col: str | None = None, p: float = 0.0,
                         max_group: int = 2000):
    """Per-group mean JW distance to the other group members
    (mfirst_uniqueness, traindata_graafreinet.R:112-116). O(g²) per group —
    groups beyond ``max_group`` are subsampled deterministically (the
    reference would just OOM)."""
    out_col = out_col or f"{str_col}_uniqueness"

    # bound the elementwise volume of one vectorized JW call: a chunk of
    # rows is paired against the whole reference sample in ONE kernel
    # invocation (np.repeat × np.tile), cutting the Python-level loop from
    # O(rows) calls to O(rows·m / CHUNK_ELEMS)
    CHUNK_ELEMS = 1 << 18

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        vals = g[str_col].to_numpy(dtype=object)
        n = len(vals)
        ref_vals = vals
        if n > max_group:
            idx = np.linspace(0, n - 1, max_group).astype(int)
            ref_vals = vals[idx]
        m = len(ref_vals)
        full = m == n
        s_self = (1.0 if (full and n > 1) else 0.0)
        denom = max((m - (1 if n > 1 else 0)), 1)
        sims = np.empty(n, dtype=np.float64)
        rows_per_chunk = max(1, CHUNK_ELEMS // max(m, 1))
        for s0 in range(0, n, rows_per_chunk):
            chunk = vals[s0:s0 + rows_per_chunk]
            c = len(chunk)
            S = jaro_winkler_sim(np.repeat(chunk, m),
                                 np.tile(ref_vals, c), p=p).reshape(c, m)
            tot = np.nansum(S, axis=1) - s_self
            sims[s0:s0 + c] = 1.0 - tot / denom
        g = g.copy()
        g[out_col] = sims
        return g

    from .grouped import grouped_map

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        # coarse hash partition of many COMPLETE groups (stages/grouped.py):
        # one Ray task per partition instead of one per distinct key
        frames = [per_group(g) for _, g in part.groupby(group_col, sort=False)]
        if not frames:
            part = part.copy()
            part[out_col] = np.array([], dtype=np.float64)
            return part
        return pd.concat(frames, ignore_index=True)

    return grouped_map(ds, group_col, per_partition)


def pair_counts(ds, text_col: str = "text", min_count: int = 5):
    """Corpus-wide ADJACENT token-pair counts — the counting pass of BPE /
    WordPiece tokenizer training and collocation mining: Dataset[
    (left_tok, right_tok, n)] for every pair (token[i], token[i+1]) whose
    global count reaches ``min_count``. Single-space split, empty tokens
    (from repeated spaces) excluded, pairs never cross a document
    boundary.

    Scale shape mirrors ``vocab_counts``: each batch collapses to its own
    distinct pairs via one vectorized two-key groupby (C hash), so the
    only shuffle moves (pair, partial_n) rows — Zipf keeps partials tiny.
    One merge pass per hash partition, ``min_count`` filter applied after
    the global sum."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        words = df[text_col].where(df[text_col].notna(), "").str.split(" ")
        lens = words.str.len().to_numpy(np.int64)
        empty = pd.DataFrame({"left_tok": pd.Series(dtype=object),
                              "right_tok": pd.Series(dtype=object),
                              "n": pd.Series(dtype=np.int64)})
        if not len(df) or int(lens.sum()) == 0:
            return empty
        flat = np.concatenate([np.asarray(w, dtype=object) for w in words])
        doc_of = np.repeat(np.arange(len(df), dtype=np.int64), lens)
        same = doc_of[:-1] == doc_of[1:]
        left, right = flat[:-1][same], flat[1:][same]
        ok = (left != "") & (right != "")
        if not ok.any():
            return empty
        out = (pd.DataFrame({"left_tok": left[ok], "right_tok": right[ok]})
               .groupby(["left_tok", "right_tok"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    from .grouped import grouped_map

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        tot = (df.groupby(["left_tok", "right_tok"], sort=False)["n"]
               .sum().reset_index())
        return tot[tot["n"] >= min_count]

    partials = ds.map_batches(partial, batch_format="pandas")
    return grouped_map(partials, ["left_tok", "right_tok"], combine)


def pmi_scores(ds, text_col: str = "text", min_count: int = 5):
    """Pointwise mutual information of adjacent token pairs — the
    collocation-mining pass (Church & Hanks 1990, public):
    ``pmi = log2(p(a,b) / (p(a) p(b)))`` with p from exact corpus counts.
    Emits Dataset[(left_tok, right_tok, n, pmi)] for pairs at
    ``min_count``.

    Composition of existing slim-shuffle passes: :func:`pair_counts`
    (filtered pair table), :func:`vocab_counts` at min_count=1 — but the
    unigram table is NEVER collected whole: p(a)/p(b) are only needed for
    tokens that appear in a SURVIVING pair, so the vocab Dataset is
    filtered distributed against the pruned pair table's distinct tokens
    (a bounded set: ≤ 2 × |pair table|, itself min_count-pruned) before
    the one bounded driver collect. On a web corpus the min_count=1
    distinct-token table (typos, URLs, hex ids) is unbounded; the
    surviving-pair token set is not. The two scalars (total tokens, total
    pairs) come from one fixed-width partial pass over the corpus — the
    unigram sum equals the non-empty token count, so no second vocab
    execution is needed. The float expression order is shared
    term-for-term with the SQL twin so the oracle is value-exact at 9 dp."""
    import ray

    # bounded output table (min_count-pruned); pin it so the distinct-token
    # pass and the final join don't re-run the pair-count shuffle
    pairs = pair_counts(ds, text_col, min_count).materialize()

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        words = df[text_col].where(df[text_col].notna(), "").str.split(" ")
        lens = words.str.len().to_numpy(np.int64)
        if not len(df) or int(lens.sum()) == 0:
            return pd.DataFrame({"n_pair": pd.Series([0], dtype=np.int64),
                                 "n_tok": pd.Series([0], dtype=np.int64)})
        flat = np.concatenate([np.asarray(w, dtype=object) for w in words])
        doc_of = np.repeat(np.arange(len(df), dtype=np.int64), lens)
        same = doc_of[:-1] == doc_of[1:]
        ok = same & (flat[:-1] != "") & (flat[1:] != "")
        return pd.DataFrame(
            {"n_pair": pd.Series([int(ok.sum())], dtype=np.int64),
             "n_tok": pd.Series([int((flat != "").sum())], dtype=np.int64)})

    tot = ds.map_batches(totals, batch_format="pandas").to_pandas()
    total_pairs = float(tot["n_pair"].sum())
    total_tokens = float(tot["n_tok"].sum())

    # slim (token-only) collect bounded by the pruned pair table
    tok_parts = pairs.map_batches(
        lambda df: pd.DataFrame({"token": pd.unique(np.concatenate(
            [df["left_tok"].to_numpy(dtype=object),
             df["right_tok"].to_numpy(dtype=object)])
            if len(df) else np.array([], dtype=object))}),
        batch_format="pandas").to_pandas()
    pair_tok_set = set(tok_parts["token"])
    toks_ref = ray.put(pair_tok_set)

    def keep_pair_toks(df: pd.DataFrame) -> pd.DataFrame:
        s = ray.get(toks_ref)
        return df[df["token"].isin(s)]

    uni = vocab_counts(ds, text_col, min_count=1)
    vocab_df = (uni.map_batches(keep_pair_toks, batch_format="pandas")
                .to_pandas())
    # observable for tests: the driver-collected vocab is bounded by the
    # surviving-pair token set, NOT the corpus vocabulary
    pmi_scores.last_vocab_rows = len(vocab_df)
    pmi_scores.last_pair_tokens = len(pair_tok_set)

    from .join import broadcast_join
    out = broadcast_join(
        pairs, vocab_df.rename(columns={"token": "left_tok", "n": "_nl"}),
        on="left_tok")
    out = broadcast_join(
        out, vocab_df.rename(columns={"token": "right_tok", "n": "_nr"}),
        on="right_tok")

    def score(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy(np.float64)
        nl = df["_nl"].to_numpy(np.float64)
        nr = df["_nr"].to_numpy(np.float64)
        # shared-with-SQL order: (n*N*N) / ((P*n_a)*n_b)
        pmi = np.log2((n * total_tokens * total_tokens)
                      / ((total_pairs * nl) * nr))
        return df.drop(columns=["_nl", "_nr"]).assign(pmi=np.round(pmi, 9))

    return out.map_batches(score, batch_format="pandas")


def encode_tokens(ds, vocab, *, text_col: str = "text",
                  id_col: str = "doc_id", unk_id: int = 0):
    """Corpus -> flat (id, pos, token_id) token-id stream — the tokenizer
    ENCODE pass that turns curated text into the integer stream training
    shards are packed from (compose with ``pack_by_budget``).

    ``vocab``: the ``vocab_counts`` output (Dataset or DataFrame of
    (token, n)). Ids are assigned by (n DESC, token ASC) rank starting at
    1; out-of-vocabulary tokens (incl. the empty token from repeated
    spaces / empty docs) get ``unk_id``. Positions are 1-based within each
    doc (single-space split, the corpus-wide convention here).

    Scale shape: the vocabulary is bounded by the ``min_count`` contract
    (Zipf: ≤ ~10^6 entries at any corpus size), so it broadcasts ONCE via
    the shared-plasma ``broadcast_join`` index — the token stream itself
    never shuffles: explode and id-lookup are stateless per-batch maps."""
    if hasattr(vocab, "to_pandas"):
        vocab = vocab.to_pandas()
    v = vocab.sort_values(["n", "token"], ascending=[False, True],
                          kind="stable").reset_index(drop=True)
    v = pd.DataFrame({"token": v["token"],
                      "token_id": np.arange(1, len(v) + 1, dtype=np.int64)})

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        words = df[text_col].where(df[text_col].notna(), "").str.split(" ")
        lens = words.str.len().to_numpy(np.int64)
        total = int(lens.sum())
        if not total:
            return pd.DataFrame({id_col: pd.Series(dtype=df[id_col].dtype),
                                 "pos": pd.Series(dtype=np.int64),
                                 "token": pd.Series(dtype=object)})
        flat = np.concatenate([np.asarray(w, dtype=object) for w in words])
        starts = np.cumsum(lens) - lens
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, lens) + 1
        return pd.DataFrame({
            id_col: np.repeat(df[id_col].to_numpy(), lens),
            "pos": pos, "token": flat})

    from .join import broadcast_join
    toks = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pandas")
    joined = broadcast_join(toks, v, on="token", how="left")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col],
            "pos": df["pos"].astype(np.int64),
            "token_id": df["token_id"].fillna(unk_id).astype(np.int64)})
    return joined.map_batches(finish, batch_format="pandas")


def cooccurrence_counts(ds, text_col: str = "text", *, window: int = 4,
                        min_count: int = 5):
    """Ordered window co-occurrence counts — the skip-gram counting pass
    of word-embedding / window-PMI pipelines (Church & Hanks 1990 window
    association; word2vec-style contexts, both public): Dataset[
    (left_tok, right_tok, n)] counting every pair (token[i], token[j])
    with 1 <= j - i <= ``window``, never crossing a document boundary,
    left = the earlier token. ``window=1`` reduces to :func:`pair_counts`.

    Scale shape mirrors ``pair_counts``: each batch collapses to its own
    distinct pairs via ONE two-key groupby over the concatenation of the
    ``window`` offset zips (vectorized — no per-doc loop), so the
    shuffle moves (pair, partial_n) rows; Zipf keeps partials small and
    the ``min_count`` filter applies after the global sum."""
    if window < 1:
        raise ValueError("window must be >= 1")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        words = df[text_col].where(df[text_col].notna(), "").str.split(" ")
        lens = words.str.len().to_numpy(np.int64)
        empty = pd.DataFrame({"left_tok": pd.Series(dtype=object),
                              "right_tok": pd.Series(dtype=object),
                              "n": pd.Series(dtype=np.int64)})
        if not len(df) or int(lens.sum()) == 0:
            return empty
        flat = np.concatenate([np.asarray(w, dtype=object) for w in words])
        doc_of = np.repeat(np.arange(len(df), dtype=np.int64), lens)
        lefts, rights = [], []
        for k in range(1, window + 1):
            if len(flat) <= k:
                break
            same = doc_of[:-k] == doc_of[k:]
            l, r = flat[:-k][same], flat[k:][same]
            ok = (l != "") & (r != "")
            if ok.any():
                lefts.append(l[ok])
                rights.append(r[ok])
        if not lefts:
            return empty
        out = (pd.DataFrame({"left_tok": np.concatenate(lefts),
                             "right_tok": np.concatenate(rights)})
               .groupby(["left_tok", "right_tok"], sort=False)
               .size().rename("n").reset_index())
        out["n"] = out["n"].astype(np.int64)
        return out

    from .grouped import grouped_map

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        tot = (df.groupby(["left_tok", "right_tok"], sort=False)["n"]
               .sum().reset_index())
        return tot[tot["n"] >= min_count]

    partials = ds.map_batches(partial, batch_format="pandas")
    return grouped_map(partials, ["left_tok", "right_tok"], combine)
