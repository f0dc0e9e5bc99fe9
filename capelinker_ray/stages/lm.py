"""Corpus character-trigram LM perplexity — the CCNet-style quality gate.

CCNet (Wenzek et al. 2020, public) filters web text by language-model
perplexity; without KenLM in the sandbox the same signal comes from a
character-trigram model TRAINED ON THE CORPUS ITSELF in one distributed
counting pass:

  P(c3 | c1 c2) = (count(c1c2c3) + 1) / (count(c1c2·) + V)      (add-one)

with V = distinct third-character vocabulary and count(c1c2·) the sum of
trigram counts sharing the context — derived FROM the trigram table, so
one count pass feeds both numerator and denominator (and the SQL oracle
mirrors it with a GROUP BY over the same table).

Scale shape: batch-vectorized positional trigram extraction (one utf-32
encode per batch — stages/bigram.py kernel style), a CONTEXT-keyed
grouped_map merge of (code, n) partials (the trigram key is
high-cardinality — Ray's native aggregate pays per-key Python) whose
combine computes final context sums AND applies the ``min_count`` prune
distributed, so only the surviving Zipf head reaches the driver; the
pruned model broadcasts via ``ray.put`` and the scoring pass is one
shuffle-free ``map_batches`` of searchsorted lookups + one bincount
log-sum per batch.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

__all__ = ["trigram_nll"]

_B = 0x110000            # codepoint base; B^3 < 2^63 so int64 holds a code
_SEP = " "


def _batch_tri_codes(texts) -> tuple:
    """(doc_idx, tri_codes) — one entry per trigram POSITION (not
    distinct), positional validity so texts containing the separator keep
    their trigrams."""
    n = len(texts)
    is_str = np.fromiter((isinstance(s, str) and len(s) >= 3 for s in texts),
                         dtype=bool, count=n)
    idxs = np.nonzero(is_str)[0]
    if len(idxs) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    parts = [texts[i] for i in idxs]
    full = _SEP.join(parts)
    cps = np.frombuffer(full.encode("utf-32-le"), dtype=np.uint32)
    if len(cps) < 3:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    c = cps.astype(np.int64)
    codes = (c[:-2] * _B + c[1:-1]) * _B + c[2:]
    lens = np.array([len(p) for p in parts], dtype=np.int64)
    starts = np.cumsum(lens + 1) - (lens + 1)
    pos = np.arange(len(codes), dtype=np.int64)
    owner = np.searchsorted(starts, pos, side="right") - 1
    valid = pos + 2 < starts[owner] + lens[owner]
    return idxs[owner[valid]], codes[valid]


def trigram_nll(ds, *, text_col: str = "text", id_col: str = "doc_id",
                out_col: str = "nll", min_count: int = 1):
    """Dataset[(id_col, n_tri, out_col)] — per-document mean negative log
    probability under the corpus's own add-one-smoothed trigram LM.
    Documents with fewer than 3 characters (or null text) are omitted.
    High ``nll`` = improbable character sequences = gibberish/boilerplate
    candidates.

    Driver-memory bound: the broadcast model holds the SURVIVING trigrams
    plus the distinct contexts and third-char vocabulary — never the full
    distinct-trigram table. The count shuffle is keyed by CONTEXT
    (``code // B``), so each reduce partition owns every trigram of its
    contexts: the ``min_count`` prune AND the context sums both happen in
    the distributed combine (sums computed before pruning, so surviving
    P(c3|c1c2) are unchanged), and only (survivors, complete context
    rows, per-partition distinct third chars) reach ``to_pandas()``. A
    CJK/multilingual corpus whose distinct-trigram table would not fit
    the driver is therefore fine as long as the pruned head of the Zipf
    curve does. Pruned trigrams score through the unseen-code path —
    add-one smoothing already defines their mass."""
    from .dedup import _widen
    from .grouped import grouped_map
    ds = _widen(ds)
    slim = ds.select_columns([id_col, text_col])

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        _, codes = _batch_tri_codes(df[text_col].to_numpy(dtype=object))
        uniq, cnt = np.unique(codes, return_counts=True)
        return pd.DataFrame({"code": uniq, "n": cnt.astype(np.int64),
                             "ctx": uniq // _B})

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        # partition holds COMPLETE context groups -> context sums are
        # final here, and the min_count prune drops the Zipf tail before
        # anything is shipped to the driver. Tagged union: kind 0 =
        # surviving (trigram, n), kind 1 = (context, context_sum),
        # kind 2 = locally-distinct third chars (union'd on the driver).
        tot = g.groupby("code", sort=False)["n"].sum().reset_index()
        c = tot["code"].to_numpy(np.int64)
        n = tot["n"].to_numpy(np.int64)
        cu, ci = np.unique(c // _B, return_inverse=True)
        cn = np.bincount(ci, weights=n).astype(np.int64)
        c3 = np.unique(c % _B)
        keep = slice(None) if min_count <= 1 else n >= min_count
        return pd.concat([
            pd.DataFrame({"kind": np.int64(0), "code": c[keep],
                          "n": n[keep]}),
            pd.DataFrame({"kind": np.int64(1), "code": cu, "n": cn}),
            pd.DataFrame({"kind": np.int64(2), "code": c3,
                          "n": np.ones(len(c3), np.int64)}),
        ], ignore_index=True)

    tri = grouped_map(slim.map_batches(partial_counts,
                                       batch_format="pandas"),
                      "ctx", merge_counts).to_pandas()
    if not len(tri) or "code" not in tri.columns:
        # empty / all-too-short corpus: typed empty result
        import pyarrow as pa
        import ray.data as rd
        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.string()),
            "n_tri": pa.array([], pa.int64()),
            out_col: pa.array([], pa.float64())}))

    kind = tri["kind"].to_numpy(np.int64)
    tcode = tri["code"].to_numpy(np.int64)
    tcnt = tri["n"].to_numpy(np.int64)
    m0 = kind == 0
    o0 = np.argsort(tcode[m0])
    codes, counts = tcode[m0][o0], tcnt[m0][o0]
    m1 = kind == 1                      # each context in exactly ONE
    o1 = np.argsort(tcode[m1])          # partition -> rows already final
    ctx_uniq, ctx_counts = tcode[m1][o1], tcnt[m1][o1]
    v = int(len(np.unique(tcode[kind == 2])))    # distinct third chars
    model_ref = ray.put((codes, counts, ctx_uniq, ctx_counts, v))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        cds, cnts, cu, cc, vv = ray.get(model_ref)
        doc_idx, tcodes = _batch_tri_codes(
            df[text_col].to_numpy(dtype=object))
        if not len(tcodes):
            return pd.DataFrame({id_col: pd.Series(dtype=object),
                                 "n_tri": pd.Series(dtype=np.int64),
                                 out_col: pd.Series(dtype=np.float64)})
        # guarded lookups: codes unseen at train time (pruned via
        # min_count, or text the model never saw) get count 0 — add-one
        # smoothing already defines their probability; unseen contexts
        # get mass 0 the same way.  An unguarded searchsorted would index
        # out of bounds or read a neighbor's count.
        ti = np.searchsorted(cds, tcodes)
        t_ok = (ti < len(cds))
        t_ok[t_ok] &= cds[ti[t_ok]] == tcodes[t_ok]
        tn = np.zeros(len(tcodes), np.int64)
        tn[t_ok] = cnts[ti[t_ok]]
        ctx = tcodes // _B
        ci = np.searchsorted(cu, ctx)
        c_ok = (ci < len(cu))
        c_ok[c_ok] &= cu[ci[c_ok]] == ctx[c_ok]
        cm = np.zeros(len(tcodes), np.int64)
        cm[c_ok] = cc[ci[c_ok]]
        logp = np.log((tn + 1.0) / (cm + float(vv)))
        n_docs = len(df)
        n_tri = np.bincount(doc_idx, minlength=n_docs)
        tot = np.bincount(doc_idx, weights=logp, minlength=n_docs)
        keep = n_tri > 0
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[keep],
            "n_tri": n_tri[keep].astype(np.int64),
            out_col: np.round(-tot[keep] / n_tri[keep], 6),
        })

    return slim.map_batches(score, batch_format="pandas")
