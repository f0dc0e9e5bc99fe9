"""Text-analysis operators for large-scale training-data pipelines.

Beyond the reference's linkage surface (per the build brief): language ID,
quality scoring, token counting and document fingerprinting over a text
column — each a stateless vectorized ``map_batches`` stage. The heuristics
are deliberately dependency-free (no fasttext/tiktoken in the environment):

  token_count       whitespace tokens + a BPE-ish regex token estimate
  quality_score     length / punctuation / stopword / uppercase ratios
  lang_id           character-trigram cosine against tiny per-language
                    profiles (en/nl/af — the reference corpus languages)
  fingerprint       64-bit rolling-hash document fingerprint (deterministic)

All run over ``documents``-shaped tables; compare stages/dedup.py for the
near-duplicate operators built on the same primitives.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["add_token_counts", "add_quality_score", "add_lang_id",
           "add_compression_ratio", "add_script_stats",
           "add_fingerprint", "add_repetition_stats", "hash_embed",
           "add_char_entropy", "chunk_documents", "add_blocklist_stats"]

# a GPT-2-style pre-tokenizer regex (public BPE convention): word pieces,
# numbers, punctuation runs, whitespace collapsed
_BPE_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+")

_STOPWORDS = {
    "the", "a", "an", "and", "or", "of", "to", "in", "is", "it", "that",
    "for", "on", "with", "as", "was", "at", "by", "be", "this", "are",
    "de", "het", "een", "en", "van", "die", "dat", "is", "te", "niet",
}


def add_token_counts(ds, text_col: str = "text"):
    """+ ``n_ws_tokens`` (whitespace) and ``n_bpe_tokens`` (regex pieces)."""
    def fn(t: pa.Table) -> pa.Table:
        ws = pc.list_value_length(pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.coalesce(t[text_col], "")), r"\s+"))
        # empty string -> split gives [''] (length 1); fix to 0
        empty = pc.equal(pc.utf8_length(pc.utf8_trim_whitespace(
            pc.coalesce(t[text_col], ""))), 0)
        ws = pc.if_else(empty, pa.scalar(0, pa.int32()), ws)
        texts = t[text_col].to_pylist()
        bpe = np.fromiter(
            (len(_BPE_RE.findall(s)) if isinstance(s, str) else 0
             for s in texts), dtype=np.int64, count=len(texts))
        t = t.append_column("n_ws_tokens", ws.cast(pa.int64()))
        t = t.append_column("n_bpe_tokens", pa.array(bpe, pa.int64()))
        return t
    return ds.map_batches(fn, batch_format="pyarrow")


def add_quality_score(ds, text_col: str = "text"):
    """+ quality components and a composite ``quality`` in [0,1].

    Components: mean word length sanity, stopword ratio, alpha ratio,
    uppercase ratio, repetition (distinct-token ratio) — the standard
    C4/Gopher-style cheap filters, vectorized: the batch's words flatten
    into ONE factorize, distinct-per-doc comes from unique (doc, word-code)
    keys and stopword hits from a per-distinct-word membership lookup
    fanned back out — no per-document Python."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].fillna("")
        toks = s.str.split()
        n_tok = toks.str.len().fillna(0).astype(np.int64)
        n_chars = s.str.len().astype(np.int64)
        alpha = s.str.count(r"[A-Za-z]")
        upper = s.str.count(r"[A-Z]")
        n = len(df)
        lens = n_tok.to_numpy()
        uniq = np.zeros(n, dtype=np.int64)
        stop = np.zeros(n, dtype=np.int64)
        if lens.sum():
            flat = np.concatenate(
                [np.asarray(t, dtype=object) for t in toks if t])
            doc = np.repeat(np.arange(n, dtype=np.int64), lens)
            codes, uniq_words = pd.factorize(flat, sort=False)
            V = np.int64(max(len(uniq_words), 1))
            uk = np.unique(doc * V + codes)
            uniq = np.bincount((uk // V).astype(np.int64), minlength=n)
            is_stop = (pd.Series(np.asarray(uniq_words, dtype=object))
                       .str.lower().isin(_STOPWORDS).to_numpy())
            stop = np.bincount(doc, weights=is_stop[codes],
                               minlength=n).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_wl = np.where(n_tok > 0, (alpha / np.maximum(n_tok, 1)), 0.0)
            stop_ratio = np.where(n_tok > 0, stop / np.maximum(n_tok, 1), 0.0)
            alpha_ratio = np.where(n_chars > 0, alpha / np.maximum(n_chars, 1), 0.0)
            upper_ratio = np.where(n_chars > 0, upper / np.maximum(n_chars, 1), 0.0)
            uniq_ratio = np.where(n_tok > 0, uniq / np.maximum(n_tok, 1), 0.0)
        wl_ok = np.clip(1.0 - np.abs(mean_wl - 5.0) / 5.0, 0.0, 1.0)
        score = (0.25 * wl_ok + 0.2 * np.clip(stop_ratio * 4, 0, 1)
                 + 0.25 * alpha_ratio + 0.15 * (1.0 - upper_ratio)
                 + 0.15 * uniq_ratio)
        out = df.copy()
        out["stop_ratio"] = stop_ratio
        out["alpha_ratio"] = alpha_ratio
        out["upper_ratio"] = upper_ratio
        out["uniq_ratio"] = uniq_ratio
        out["quality"] = score
        return out
    return ds.map_batches(fn, batch_format="pandas")


# tiny trigram profiles (hand-picked frequent trigrams; heuristic lang-id)
_LANG_PROFILES = {
    "en": ["the", "and", "ing", "ion", "ent", "her", "for", "tha", "nth", "int"],
    "nl": ["een", "het", "van", "der", "den", "ver", "aar", "gen", "oor", "ijk"],
    "af": ["die", "van", "nie", "het", "ing", "ord", "aan", "wat", "ers", "ome"],
}


def add_lang_id(ds, text_col: str = "text"):
    """+ ``lang_pred``: argmax trigram-profile hit rate ('und' if no signal)."""
    profiles = {k: set(v) for k, v in _LANG_PROFILES.items()}

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        langs = list(profiles)
        texts = df[text_col].fillna("").str.lower()
        scores = np.zeros((len(df), len(langs)))
        for j, lang in enumerate(langs):
            for tri in profiles[lang]:
                scores[:, j] += texts.str.count(re.escape(tri)).to_numpy()
        lens = texts.str.len().to_numpy().clip(min=1)
        scores = scores / lens[:, None]
        best = scores.argmax(axis=1)
        has = scores.max(axis=1) > 0
        out = df.copy()
        out["lang_pred"] = np.where(has, np.array(langs, dtype=object)[best], "und")
        return out
    return ds.map_batches(fn, batch_format="pandas")


_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def fnv1a_64(strings) -> np.ndarray:
    """FNV-1a-style 64-bit hash over unicode CODEPOINTS, fully vectorized:
    strings decode once into a fixed-width codepoint matrix and the mix loop
    runs over character positions only. Deterministic across runs/workers
    (unlike process-salted Python hash())."""
    from ..kernels.strdist import encode

    codes, lengths, _valid = encode(strings)
    n, L = codes.shape
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(L):
            live = j < lengths
            mixed = (h ^ codes[:, j].astype(np.uint64)) * _FNV_PRIME
            h = np.where(live, mixed, h)
    return h


def add_fingerprint(ds, text_col: str = "text"):
    """+ ``fingerprint``: int64 FNV-1a hash of whitespace-normalized text —
    the exact-dedup / shard-lineage key (deterministic, content-addressed)."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        norm = (df[text_col].fillna("").str.strip().str.split().str.join(" "))
        out = df.copy()
        out["fingerprint"] = fnv1a_64(norm.tolist()).astype(np.int64)
        return out
    return ds.map_batches(fn, batch_format="pandas")


def add_repetition_stats(ds, text_col: str = "text"):
    """+ Gopher-style repetition signals per document (Rae et al. 2021
    §A1.1-style duplicate-fraction filters, word-level):

      dup_word_frac    (n_words - n_distinct_words) / n_words
      top_word_frac    occurrences of the most frequent word / n_words
      top_bigram_frac  occurrences of the most frequent adjacent word
                       pair / (n_words - 1), 0.0 for single-word docs

    Words split on single spaces (``string_split(text, ' ')`` oracle
    parity; '' counts as one empty word). Fully vectorized: one factorize
    over the batch's flattened words, integer-coded bigram keys (no
    string concatenation), C-level groupby counts — no per-doc loop."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        n = len(df)
        if not n:
            for c in ("dup_word_frac", "top_word_frac", "top_bigram_frac"):
                out[c] = pd.Series(dtype=np.float64)
            return out
        s = df[text_col]
        words = s.where(s.notna(), "").str.split(" ")
        lens = words.str.len().to_numpy(np.int64)          # >= 1 each
        flat = np.concatenate([np.asarray(w, dtype=object) for w in words])
        doc = np.repeat(np.arange(n, dtype=np.int64), lens)
        codes, uniques = pd.factorize(flat, sort=False)
        V = np.int64(max(len(uniques), 1))
        wc = (pd.DataFrame({"d": doc, "c": codes})
              .groupby(["d", "c"], sort=False).size())
        per_doc = wc.groupby(level=0, sort=False).agg(["max", "size"])
        top_cnt = np.zeros(n, np.int64)
        n_uniq = np.ones(n, np.int64)
        idx = per_doc.index.to_numpy()
        top_cnt[idx] = per_doc["max"].to_numpy()
        n_uniq[idx] = per_doc["size"].to_numpy()
        adj = doc[:-1] == doc[1:]
        top_big = np.zeros(n, np.int64)
        if adj.any():
            bd = doc[:-1][adj]
            bkey = codes[:-1][adj].astype(np.int64) * V + codes[1:][adj]
            bc = (pd.DataFrame({"d": bd, "k": bkey})
                  .groupby(["d", "k"], sort=False).size()
                  .groupby(level=0, sort=False).max())
            top_big[bc.index.to_numpy()] = bc.to_numpy()
        n_big = np.maximum(lens - 1, 0)
        out["dup_word_frac"] = (lens - n_uniq) / lens
        out["top_word_frac"] = top_cnt / lens
        with np.errstate(divide="ignore", invalid="ignore"):
            out["top_bigram_frac"] = np.where(n_big > 0, top_big
                                              / np.maximum(n_big, 1), 0.0)
        return out
    return ds.map_batches(fn, batch_format="pandas")


def hash_embed(ds, *, text_col: str = "text", out_col: str = "embedding",
               dim: int = 64, normalize: bool = True):
    """Feature-hashing document embedding (the hashing trick, Weinberger
    et al. ICML'09): token -> bucket ``fnv1a(token) % dim`` with sign from
    hash bit 32, summed per doc — a deterministic, training-free dense
    vector that feeds the kNN / LSH / semantic-dedup stages when no model
    embedding exists. Zero shuffle, one vectorized pass: tokens factorize
    to the batch's DISTINCT set, FNV runs once per distinct token, and a
    single ``np.add.at`` scatter fills the (rows x dim) matrix.
    Tokenization convention matches the simhash oracle: lowercase,
    ``\\S+``. Zero-token docs embed as the zero vector (skipped by
    ``normalize``)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def embed(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df[text_col].where(df[text_col].notna(), "")
                .str.lower().str.findall(r"\S+"))
        lens = toks.str.len().to_numpy(np.int64)
        M = np.zeros((len(df), dim), np.float64)
        if lens.sum():
            flat = np.concatenate(
                [np.asarray(t, dtype=object) for t in toks])
            owner = np.repeat(np.arange(len(df)), lens)
            codes, uniq = pd.factorize(flat, sort=False)
            h = fnv1a_64(list(uniq))
            bucket = (h % np.uint64(dim)).astype(np.int64)
            sign = np.where((h >> np.uint64(32)) & np.uint64(1), 1.0, -1.0)
            np.add.at(M, (owner, bucket[codes]), sign[codes])
        if normalize:
            nrm = np.linalg.norm(M, axis=1, keepdims=True)
            M = np.divide(M, nrm, out=np.zeros_like(M), where=nrm > 0)
        df = df.copy()
        df[out_col] = list(M.astype(np.float32))
        return df

    return ds.map_batches(embed, batch_format="pandas")


def add_char_entropy(ds, text_col: str = "text",
                     out_col: str = "char_entropy"):
    """+ ``out_col``: Shannon entropy (bits) of the character distribution
    of each document — the distribution-free gibberish/boilerplate signal
    (near-zero entropy = repeated filler; very high = random bytes).

    Vectorized batch-wide: the whole batch decodes ONCE into a flat
    codepoint array (utf-32 view of the joined text), per-(doc, char)
    counts come from one ``np.unique`` over packed 64-bit keys, and the
    -p·log2(p) terms scatter-add back per doc. Empty/null text scores 0.
    Zero shuffle."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].fillna("").astype(str).tolist()
        lens = np.fromiter((len(t) for t in texts), np.int64,
                           count=len(texts))
        ent = np.zeros(len(texts))
        if lens.sum():
            codes = np.frombuffer(
                "".join(texts).encode("utf-32-le"), dtype=np.uint32)
            doc = np.repeat(np.arange(len(texts), dtype=np.uint64), lens)
            key = (doc << np.uint64(32)) | codes.astype(np.uint64)
            uk, cnt = np.unique(key, return_counts=True)
            udoc = (uk >> np.uint64(32)).astype(np.int64)
            p = cnt / lens[udoc]
            np.add.at(ent, udoc, -p * np.log2(p))
        out = df.copy()
        out[out_col] = ent
        return out

    return ds.map_batches(fn, batch_format="pandas")


def add_blocklist_stats(ds, terms, *, text_col: str = "text",
                        count_col: str = "blocklist_hits",
                        flag_col: str = "blocklist_flag",
                        threshold: int = 1):
    """+ ``count_col`` (total case-insensitive occurrences of any
    blocklist term) and ``flag_col`` (hits >= ``threshold``) — the
    dictionary safety/spam filter of a curation pipeline (the C4 'bad
    words' pass). Counting is NON-OVERLAPPING left-to-right per term
    (``str.count`` of the escaped literal == SQL
    ``(len(t) - len(replace(t, term, ''))) / len(term)``, so the oracle
    is value-exact). One compiled regex per term, each applied
    vectorized over the whole batch column; terms are lowercased and the
    text is lowercased once per batch. Zero shuffle."""
    terms = [t.lower() for t in terms]
    if not terms or any(not t for t in terms):
        raise ValueError("terms must be non-empty strings")
    pats = [re.compile(re.escape(t)) for t in terms]

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        low = df[text_col].fillna("").astype(str).str.lower()
        hits = np.zeros(len(df), np.int64)
        for p in pats:
            hits += low.str.count(p).to_numpy(np.int64)
        out = df.copy()
        out[count_col] = hits
        out[flag_col] = hits >= threshold
        return out

    return ds.map_batches(fn, batch_format="pandas")


def chunk_documents(ds, *, id_col: str = "doc_id", text_col: str = "text",
                    chunk_chars: int = 512, overlap: int = 64,
                    chunk_col: str = "chunk_text",
                    idx_col: str = "chunk_idx"):
    """Split documents into fixed-width character chunks with overlap —
    the context-window packing / RAG-chunking pass. Emits one row per
    chunk: (id, ``idx_col``, ``chunk_col``).

    Semantics (shared exactly with the SQL oracle): chunk ``i`` is
    ``text[i*stride : i*stride + chunk_chars]`` with
    ``stride = chunk_chars - overlap``; starts run while ``start <
    max(len, 1)`` so an empty/null document still emits one empty chunk
    (ids are never dropped). Pure per-batch flat-map, zero shuffle; the
    per-chunk substring copy is the only non-vector step (C-level slice
    per OUTPUT row, bounded by chunk_chars)."""
    if overlap >= chunk_chars:
        raise ValueError("overlap must be < chunk_chars")
    stride = chunk_chars - overlap

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].fillna("").astype(str).to_numpy(object)
        lens = np.fromiter((len(t) for t in texts), np.int64,
                           count=len(texts))
        m = np.maximum(lens, 1)
        n_chunks = -(-m // stride)              # ceil(m / stride)
        owner = np.repeat(np.arange(len(texts), dtype=np.int64), n_chunks)
        total = int(n_chunks.sum())
        offsets = np.zeros(len(texts), np.int64)
        np.cumsum(n_chunks[:-1], out=offsets[1:])
        cidx = np.arange(total, dtype=np.int64) - offsets[owner]
        starts = cidx * stride
        chunks = [texts[o][s:s + chunk_chars]
                  for o, s in zip(owner, starts)]
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[owner],
            idx_col: cidx,
            chunk_col: pd.Series(chunks, dtype=object)})

    return ds.map_batches(fn, batch_format="pandas")


def add_compression_ratio(ds, text_col: str = "text",
                          out_col: str = "compression_ratio",
                          level: int = 6):
    """Per-document DEFLATE compression ratio ``compressed_bytes /
    raw_utf8_bytes`` — the repetition/boilerplate quality signal used by
    public web-curation recipes (highly repetitive or templated text
    compresses far below ~0.4; high-entropy gibberish sits near 1.0).
    Empty/null docs get ratio 1.0. Compose with ``add_quality_score`` /
    ``add_repetition_stats`` gates in ``pipelines/curate.py``.

    Scale shape: stateless per-batch map, zero shuffle. The per-row
    zlib.compress call is one C invocation per document (the work is
    inherently per-doc byte compression — there is no batch kernel to
    vectorize into), so the Python loop overhead is noise next to the
    DEFLATE cost it wraps."""
    import zlib

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].to_numpy(dtype=object)
        out = np.ones(len(texts), np.float64)
        for i, t in enumerate(texts):
            if isinstance(t, str) and t:
                raw = t.encode("utf-8")
                out[i] = len(zlib.compress(raw, level)) / len(raw)
        df = df.copy()
        df[out_col] = np.round(out, 6)
        return df

    return ds.map_batches(fn, batch_format="pandas")


def add_script_stats(ds, text_col: str = "text",
                     scripts: tuple = ("Latin", "Han", "Cyrillic", "Arabic")):
    """Per-document Unicode-SCRIPT composition: for each named script a
    ``<script,lower>_frac`` column (fraction of the doc's codepoints in
    that script) plus ``n_cp`` — the script-routing signal that decides
    which language-specific pipeline (tokenizer, LM gate, dedup shingle
    size) a web document enters before any model runs. Fractions of
    empty/null docs are 0.

    Vectorized: one ``count_substring_regex`` RE2 ``\\p{Script}`` kernel
    per script per batch over zero-copy Arrow (the class names are shared
    verbatim with the DuckDB oracle's RE2), zero shuffle."""
    import pyarrow as pa

    def fn(batch: pa.Table) -> pa.Table:
        x = pc.fill_null(batch[text_col].cast(pa.string()), "")
        n = pc.utf8_length(x)
        nf = pc.cast(n, pa.float64())
        denom = pc.if_else(pc.greater(n, 0), nf, pa.scalar(1.0))
        out = batch.append_column("n_cp", pc.cast(n, pa.int64()))
        for sc in scripts:
            c = pc.count_substring_regex(x, rf"\p{{{sc}}}")
            frac = pc.divide(pc.cast(c, pa.float64()), denom)
            # HALF-UP at 6 dp (DuckDB round parity; Arrow's round is
            # half-to-even and diverges on exact ties like 105/128)
            frac = pc.divide(pc.floor(
                pc.add(pc.multiply(frac, 1e6), 0.5)), 1e6)
            out = out.append_column(f"{sc.lower()}_frac", frac)
        return out

    return ds.map_batches(fn, batch_format="pyarrow")
