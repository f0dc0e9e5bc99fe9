"""Benchmark decontamination: flag training documents that share any
word-level n-gram with a (small) benchmark/eval set.

The standard pre-training hygiene step (the GPT-3 appendix popularized
13-gram overlap; n is a knob here, default 8). Scale shape:

  benchmark side   SMALL by construction (eval sets are thousands of docs)
                   -> its distinct n-gram hash set is collected once,
                   sorted, and broadcast via ``ray.put`` — read by every
                   corpus task, never re-shipped per batch;
  corpus side      one streaming ``map_batches`` pass — per batch, all
                   words of all docs hash in one vectorized kernel, n-gram
                   hashes come from a chained FNV fold over ``n`` shifted
                   slices of the flat word-hash array (no per-doc loop),
                   membership is a ``searchsorted`` against the broadcast
                   set. No shuffle at all.

Word n-grams are hashed (64-bit), not materialized as strings; the DuckDB
oracle compares the n-gram *strings* — results agree unless two distinct
n-grams collide in 64 bits (documented; at web scale a collision adds one
spurious flagged doc, never drops one... collisions only ever ADD hits).

Split convention matches segment_dedup / repetition_stats: single-space
``str.split(" ")`` == DuckDB ``string_split(text, ' ')``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .textstats import fnv1a_64, _FNV_OFFSET, _FNV_PRIME

__all__ = ["decontaminate", "word_ngram_hashes"]


def word_ngram_hashes(texts: pd.Series, n: int):
    """(hashes uint64, doc_idx int64) for every word n-gram in the batch.

    One factorize over the batch's flattened words (each distinct word is
    FNV-hashed once), then an ordered chained-FNV fold across ``n`` shifted
    views — windows crossing document boundaries are masked out."""
    words = texts.where(texts.notna(), "").str.split(" ")
    lens = words.str.len().to_numpy(np.int64)
    total = int(lens.sum())
    m = total - n + 1
    if m <= 0:
        return (np.empty(0, np.uint64), np.empty(0, np.int64))
    flat = np.concatenate([np.asarray(w, dtype=object) for w in words])
    doc = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    codes, uniq = pd.factorize(flat, sort=False)
    wh = fnv1a_64(list(uniq))[codes]
    acc = np.full(m, _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(n):
            acc = (acc ^ wh[j:j + m]) * _FNV_PRIME
    valid = doc[:m] == doc[n - 1:]
    return acc[valid], doc[:m][valid]


def decontaminate(corpus, bench, *, text_col: str = "text",
                  id_col: str = "doc_id", n: int = 8,
                  bench_text_col: str | None = None):
    """Dataset[(id_col, n_hit_ngrams, contaminated)] over ``corpus``.

    ``n_hit_ngrams`` counts the DISTINCT n-grams of the doc that appear
    anywhere in ``bench``; docs shorter than ``n`` words are never flagged.
    The benchmark n-gram set is collected to the driver and broadcast —
    correct for real eval suites (small by nature); pass a pre-deduped
    benchmark for best memory use."""
    bench_text_col = bench_text_col or text_col

    def bench_grams(df: pd.DataFrame) -> pa.Table:
        h, _ = word_ngram_hashes(df[bench_text_col], n)
        return pa.table({"h": pa.array(np.unique(h).astype(np.int64),
                                       pa.int64())})

    bh = bench.map_batches(bench_grams, batch_format="pandas").to_pandas()
    bench_set = np.unique(bh["h"].to_numpy(np.int64).view(np.uint64))
    ref = ray.put(bench_set)

    out_schema = pa.schema([(id_col, pa.int64()),
                            ("n_hit_ngrams", pa.int64()),
                            ("contaminated", pa.bool_())])

    def flag(df: pd.DataFrame) -> pa.Table:
        B = ray.get(ref)
        ids = df[id_col].to_numpy(np.int64)
        hits = np.zeros(len(df), dtype=np.int64)
        h, d = word_ngram_hashes(df[text_col], n)
        if len(h) and len(B):
            pos = np.searchsorted(B, h)
            ok = (pos < len(B)) & (B[np.minimum(pos, len(B) - 1)] == h)
            if ok.any():
                dd, hh = d[ok], h[ok]
                order = np.lexsort((hh, dd))
                dd, hh = dd[order], hh[order]
                new = np.ones(len(dd), dtype=bool)
                new[1:] = (dd[1:] != dd[:-1]) | (hh[1:] != hh[:-1])
                hits = np.bincount(dd[new], minlength=len(df))
        return pa.table({id_col: pa.array(ids),
                         "n_hit_ngrams": pa.array(hits.astype(np.int64)),
                         "contaminated": pa.array(hits > 0)},
                        schema=out_schema)

    return corpus.map_batches(flag, batch_format="pandas")
