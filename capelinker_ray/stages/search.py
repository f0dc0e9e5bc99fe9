"""Keyword search: BM25 scoring + global top-k over a document corpus.

The similarity-search suite (stages/simsearch.py) answers "nearest by
embedding"; this module answers the lexical half — "best documents for
these query terms" — with the classical BM25 ranking function (Robertson &
Walker, SIGIR 1994; the Okapi formulation). No reference analog (the
reference links records, it doesn't search them), but any training-data
pipeline needs a corpus keyword probe for audits and targeted sampling.

Distributed shape (both passes stream; nothing materializes the corpus):

  pass 1  per-batch partial (n_docs, total_len, df per term) — a handful
          of int64s per batch regardless of corpus size; one tiny reduce.
  pass 2  broadcast (idf, avglen); per-batch vectorized tf + score, keep
          only each batch's top-k (with boundary ties); ONE single-group
          merge of <= k+ties rows per batch picks the global top-k.

Tokenization matches the rest of the text suite (single-space split, ""
dropped) so the DuckDB oracle can mirror it with string_split/unnest.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import ray

__all__ = ["bm25_topk", "tfidf_cosine_pairs", "top_terms_per_doc"]


def _flat_tokens(df: pd.DataFrame, text_col: str):
    """-> (flat token array, row index per token, rows) for one batch."""
    words = df[text_col].where(df[text_col].notna(), "").str.split(" ")
    n = len(df)
    if not n:
        return (np.empty(0, dtype=object), np.empty(0, dtype=np.int64), 0)
    lens = words.str.len().to_numpy(np.int64)
    flat = np.concatenate([np.asarray(w, dtype=object) for w in words])
    rows = np.repeat(np.arange(n, dtype=np.int64), lens)
    keep = flat != ""
    return flat[keep], rows[keep], n


def _term_tf(flat: np.ndarray, rows: np.ndarray, n: int,
             terms: list[str]) -> np.ndarray:
    """(len(terms), n) per-document term-frequency matrix (float64)."""
    tf = np.zeros((len(terms), n), dtype=np.float64)
    for i, t in enumerate(terms):
        hit = rows[flat == t]
        if len(hit):
            tf[i] = np.bincount(hit, minlength=n)
    return tf


def bm25_topk(ds, terms: list[str], *, k: int = 10, text_col: str = "text",
              id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75,
              round_to: int = 6):
    """Dataset[(id, text)] -> Dataset[(id, score, rank)] — the global
    top-``k`` documents by BM25 over ``terms``, ties broken by id asc.

    score(d) = sum_t  ln((N - df_t + 0.5) / (df_t + 0.5) + 1.0)
                      * (tf_td * (k1 + 1.0))
                      / (tf_td + k1 * (1.0 - b + b * len_d / avglen))

    computed in exactly this operation order (and rounded to ``round_to``)
    so the DuckDB oracle reproduces it bit-for-bit.
    """
    terms = list(terms)

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, rows, n = _flat_tokens(df, text_col)
        dlen = (np.bincount(rows, minlength=n) if n
                else np.empty(0, dtype=np.int64))
        tf = _term_tf(flat, rows, n, terms)
        out = {"n_docs": [np.int64(n)],
               "total_len": [np.int64(dlen.sum()) if n else np.int64(0)]}
        for i in range(len(terms)):
            out[f"df_{i}"] = [np.int64((tf[i] > 0).sum())]
        return pd.DataFrame(out)

    parts = ds.map_batches(stats_partial, batch_format="pandas").take_all()
    n_docs = float(sum(int(r["n_docs"]) for r in parts))
    total_len = float(sum(int(r["total_len"]) for r in parts))
    if n_docs == 0:
        raise ValueError("bm25_topk: empty corpus")
    avglen = total_len / n_docs
    dfs = [float(sum(int(r[f"df_{i}"]) for r in parts))
           for i in range(len(terms))]
    idf = [math.log((n_docs - dft + 0.5) / (dft + 0.5) + 1.0)
           for dft in dfs]
    bc = ray.put((terms, np.asarray(idf, np.float64), avglen))

    def score_partial(df: pd.DataFrame) -> pd.DataFrame:
        tms, idfv, avg = ray.get(bc)
        flat, rows, n = _flat_tokens(df, text_col)
        if not n:
            return pd.DataFrame({id_col: pd.Series(dtype=np.int64),
                                 "score": pd.Series(dtype=np.float64)})
        dlen = np.bincount(rows, minlength=n).astype(np.float64)
        tf = _term_tf(flat, rows, n, tms)
        denom_norm = k1 * (1.0 - b + b * dlen / avg)      # (n,)
        score = np.zeros(n, dtype=np.float64)
        for i in range(len(tms)):                          # fixed term order
            score = score + idfv[i] * (tf[i] * (k1 + 1.0)) / (
                tf[i] + denom_norm)
        score = np.round(score, round_to)
        ids = df[id_col].to_numpy()
        kk = min(k, n)
        top = np.argpartition(-score, kk - 1)[:kk]
        thr = score[top].min()
        keep = score >= thr        # keep boundary ties for the exact merge
        return pd.DataFrame({id_col: ids[keep], "score": score[keep]})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["score", id_col], ascending=[False, True],
                            kind="stable").head(k).copy()
        df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return df

    cand = ds.map_batches(score_partial, batch_format="pandas")
    # <= k+ties rows per batch -> single tiny merge task
    return cand.repartition(1).map_batches(merge, batch_format="pandas")


def tfidf_cosine_pairs(ds, *, text_col: str = "text",
                       id_col: str = "doc_id", threshold: float = 0.3,
                       max_df: int = 100):
    """ALL-PAIRS tf-idf cosine similarity join: every document pair with
    cosine(tf·idf vectors) ≥ ``threshold`` (Bayardo et al., WWW'07 problem
    statement). The lexical near-dup complement to the minhash/simhash
    family — exact scores instead of sketch estimates.

    Weighting: w = tf · ln(N / df); tokens with df > ``max_df`` are
    STOPWORD-PRUNED from both the dot products and the norms (the
    documented semantic — the oracle applies the identical prune).
    ``max_df`` is also the scale bound: a token's posting list is ≤
    max_df docs, so per-token pair fan-out is ≤ max_df²/2 — the
    inverted-index shuffle stays linear in corpus size with a hard
    per-token cap, no salting needed.

    Distributed shape (5 slim shuffles, nothing quadratic in the corpus):
    per-batch (doc, token, cnt) partials → df per token [shuffle 1] →
    weights via token hash-join [2] → per-doc norms [3] → per-token
    partial dot products over normalized weights (vectorized triangle
    enumeration, singleton tokens dropped) [4] → per-pair sum + threshold
    filter [5].
    """
    import pyarrow as pa

    from .grouped import group_pairs, grouped_map
    from .join import hash_join

    n_docs = ds.count()
    if n_docs == 0:
        return ds  # empty in, empty out (schema-less passthrough)

    tok_schema = pa.schema([(id_col, pa.int64()), ("token", pa.string()),
                            ("cnt", pa.int64())])

    def tok_counts(df: pd.DataFrame) -> pa.Table:
        flat, rows, n = _flat_tokens(df, text_col)
        if not len(flat):
            return tok_schema.empty_table()
        ids = df[id_col].to_numpy(np.int64)[rows]
        key = pd.MultiIndex.from_arrays([ids, flat])
        codes, uniq = pd.factorize(key, sort=False)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table({id_col: uniq.get_level_values(0).to_numpy(np.int64),
                         "token": np.asarray(uniq.get_level_values(1),
                                             dtype=object),
                         "cnt": cnt}, schema=tok_schema)

    tok = ds.map_batches(tok_counts, batch_format="pandas")

    # df per token: tok is already distinct per (doc, token), so the
    # document frequency is the plain group size of the slim (token) rows
    def df_count(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("token", sort=False).size().reset_index(name="df")
        return out

    dfreq = grouped_map(tok.select_columns(["token"]), "token", df_count)

    w = hash_join(tok, dfreq, on="token")

    logn = float(np.log(float(n_docs)))

    def weigh(df: pd.DataFrame) -> pd.DataFrame:
        from .grouped import typed_or_empty
        df = df[df["df"] <= max_df].copy()
        df["w"] = (df["cnt"].to_numpy(np.float64)
                   * (logn - np.log(df["df"].to_numpy(np.float64))))
        return typed_or_empty(df[[id_col, "token", "w", "df"]])

    w = w.map_batches(weigh, batch_format="pandas")

    def norm_part(df: pd.DataFrame) -> pd.DataFrame:
        v = df["w"].to_numpy(np.float64)
        out = (pd.DataFrame({id_col: df[id_col], "_w2": v * v})
               .groupby(id_col, sort=False)["_w2"].sum().reset_index())
        out["nrm"] = np.sqrt(out.pop("_w2").to_numpy(np.float64))
        return out

    norms = grouped_map(w, id_col, norm_part)

    # only shared tokens (df >= 2) can produce pairs; normalize weights so
    # the per-pair sum IS the cosine
    def shared_only(df: pd.DataFrame) -> pd.DataFrame:
        from .grouped import typed_or_empty
        return typed_or_empty(df[df["df"] >= 2][[id_col, "token", "w"]])

    wn = hash_join(w.map_batches(shared_only, batch_format="pandas"),
                   norms, on=id_col)

    part_schema = pa.schema([("id_from", pa.int64()), ("id_to", pa.int64()),
                             ("part", pa.float64())])

    def token_dots(df: pd.DataFrame) -> pa.Table:
        """All complete posting lists of one partition: every token's
        pairs from ``group_pairs`` — zero per-token Python."""
        df, chunks = group_pairs(df, "token")
        if not len(df):
            return part_schema.empty_table()
        ids = df[id_col].to_numpy(np.int64)
        vals = (df["w"].to_numpy(np.float64)
                / df["nrm"].to_numpy(np.float64))
        out = []
        for fi, ti in chunks:
            a, b = ids[fi], ids[ti]
            out.append(pa.table({"id_from": np.minimum(a, b),
                                 "id_to": np.maximum(a, b),
                                 "part": vals[fi] * vals[ti]},
                                schema=part_schema))
        return pa.concat_tables(out)

    partials = grouped_map(wn, "token", token_dots)

    out_schema = pa.schema([("id_from", pa.int64()), ("id_to", pa.int64()),
                            ("cosine", pa.float64())])

    def pair_sum(df: pd.DataFrame) -> pa.Table:
        s = (df.groupby(["id_from", "id_to"], sort=False)["part"]
             .sum().reset_index(name="cosine"))
        s = s[s["cosine"] >= threshold]
        return pa.Table.from_pandas(s, schema=out_schema,
                                    preserve_index=False)

    return grouped_map(partials, ["id_from", "id_to"], pair_sum)


def top_terms_per_doc(ds, *, id_col: str = "doc_id",
                      text_col: str = "text", k: int = 3,
                      min_df: int = 1):
    """Per-document tf-idf keyword extraction: the ``k`` highest-scoring
    tokens of each document, ``score = tf * ln(n_docs / df)`` — the
    doc-tagging / topic-probe pass of a curation pipeline.

    Distributed shape: pass 1 computes the bounded (token, df) table +
    n_docs from per-batch DISTINCT (doc, token) partials (one slim
    shuffle, Zipf-small); pass 2 broadcasts it once and every batch
    scores + top-k's its own documents — the corpus itself never
    shuffles (a document's tokens live inside its batch row). Ties break
    (score desc, token asc); tokens below ``min_df`` are excluded.
    Tokenization matches the text suite (single-space split, '' dropped)
    so the DuckDB oracle mirrors it with string_split/unnest."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, rows, _n = _flat_tokens(df, text_col)
        out = (pd.DataFrame({"token": flat, "_r": rows})
               .drop_duplicates()
               .groupby("token", sort=False).size()
               .rename("df").reset_index())
        out["df"] = out["df"].astype(np.int64)
        return out

    from .grouped import grouped_map

    def df_combine(frame: pd.DataFrame) -> pd.DataFrame:
        tot = frame.groupby("token", sort=False)["df"].sum().reset_index()
        return tot[tot["df"] >= min_df]

    parts = ds.map_batches(df_partial, batch_format="pandas")
    n_docs = int(ds.count())
    df_table = grouped_map(parts, "token", df_combine).to_pandas()
    idf = dict(zip(df_table["token"],
                   np.log(float(n_docs) / df_table["df"].to_numpy(
                       np.float64))))

    import ray as _ray
    idf_ref = _ray.put(idf)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        from .bcast import cached_get
        idf_map = cached_get(idf_ref)
        flat, rows, n = _flat_tokens(df, text_col)
        if not len(flat):
            return pd.DataFrame({id_col: df[id_col].iloc[:0],
                                 "token": pd.Series(dtype=object),
                                 "score": pd.Series(dtype=np.float64),
                                 "rank": pd.Series(dtype=np.int64)})
        sub = (pd.DataFrame({"_r": rows, "token": flat})
               .groupby(["_r", "token"], sort=False).size()
               .rename("tf").reset_index())
        w = sub["token"].map(idf_map)
        ok = w.notna().to_numpy()
        sub = sub[ok]
        sub["score"] = (sub["tf"].to_numpy(np.float64)
                        * w[ok].to_numpy(np.float64))
        order = np.lexsort((sub["token"].to_numpy(),
                            -sub["score"].to_numpy()))
        sub = sub.iloc[order]
        rank = sub.groupby("_r", sort=False).cumcount() + 1
        keep = (rank <= k).to_numpy()
        sub, rank = sub[keep], rank[keep]
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[sub["_r"].to_numpy()],
            "token": sub["token"].to_numpy(object),
            "score": np.round(sub["score"].to_numpy(np.float64), 9),
            "rank": rank.to_numpy(np.int64)})

    return ds.map_batches(score, batch_format="pandas")
