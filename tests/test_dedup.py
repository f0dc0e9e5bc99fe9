"""Dedup-suite oracles: exact, minhash+LSH, simhash, n-gram Jaccard,
embedding cosine."""

import numpy as np
import pandas as pd
import ray.data as rd

from capelinker_ray.stages.dedup import (
    embedding_dup_pairs, exact_dedup, minhash_lsh_dedup, ngram_jaccard_pairs,
    simhash_signatures,
)


def _docs():
    base = ("the quick brown fox jumps over the lazy dog and keeps running "
            "through the quiet green field toward the river")
    near = base.replace("quick", "qiuck").replace("river", "rivers")
    other = ("completely different text about distributed query engines "
             "processing large parquet datasets with streaming shuffles")
    return pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": [base, near, other, base, "short"],
    })


def test_exact_dedup(ray_session):
    out = exact_dedup(rd.from_pandas(_docs()), key_col="text",
                      id_col="doc_id").to_pandas()
    # 4 distinct texts; duplicate of doc 1/4 keeps min id 1
    assert len(out) == 4
    assert 1 in set(out["keep_doc_id"]) and 4 not in set(out["keep_doc_id"])


def test_minhash_lsh_finds_near_dups(ray_session):
    out = minhash_lsh_dedup(rd.from_pandas(_docs()),
                            jaccard_threshold=0.5).to_pandas()
    got = set(zip(out["id_from"], out["id_to"]))
    assert (1, 2) in got and (1, 4) in got and (2, 4) in got
    assert not any(3 in p or 5 in p for p in got)


def test_simhash_near_for_dups(ray_session):
    out = simhash_signatures(rd.from_pandas(_docs())).to_pandas()
    s = out.set_index("doc_id")["simhash"]
    ham = lambda a, b: bin(np.uint64(a) ^ np.uint64(b)).count("1")
    assert ham(s[1], s[4]) == 0          # identical text
    assert ham(s[1], s[2]) <= 12         # near-dup
    assert ham(s[1], s[3]) > 12          # unrelated


def test_ngram_jaccard_pairs(ray_session):
    out = ngram_jaccard_pairs(rd.from_pandas(_docs()), threshold=0.5).to_pandas()
    got = dict(((a, b), j) for a, b, j in
               zip(out["id_from"], out["id_to"], out["jaccard"]))
    assert got[(1, 4)] == 1.0
    assert 0.5 < got[(1, 2)] < 1.0
    assert (1, 3) not in got


def test_embedding_dup_pairs(ray_session):
    rng = np.random.default_rng(0)
    base = rng.normal(size=8)
    rows = [
        {"vec_id": 1, "embedding": base.tolist()},
        {"vec_id": 2, "embedding": (base + rng.normal(scale=0.01, size=8)).tolist()},
        {"vec_id": 3, "embedding": rng.normal(size=8).tolist()},
    ]
    out = embedding_dup_pairs(rd.from_items(rows), threshold=0.99,
                              exact_block=True).to_pandas()
    assert set(zip(out["id_from"], out["id_to"])) == {(1, 2)}


def _corpus(n=120, seed=9):
    """Synthetic doc corpus with planted near-dup families."""
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "engine", "query", "stream",
             "shuffle", "batch", "vector", "tokens", "filter"]
    docs, ids = [], []
    for i in range(n):
        base = " ".join(rng.choice(words, size=12))
        docs.append(base)
        ids.append(2 * i)
        if i % 4 == 0:  # planted near-dup: one word tweaked
            docs.append(base.replace(base.split()[0], "omega", 1))
            ids.append(2 * i + 1)
    return pd.DataFrame({"doc_id": ids, "text": docs})


def test_simhash_pairs_exact_recall(ray_session):
    """simhash_dup_pairs must return EXACTLY the pairs with Hamming <= k
    (pigeonhole banding: bands > max_hamming -> no recall loss)."""
    from capelinker_ray.stages.dedup import simhash_dup_pairs
    df = _corpus()
    out = simhash_dup_pairs(rd.from_pandas(df), max_hamming=6,
                            bands=8).to_pandas()
    sigs = simhash_signatures(rd.from_pandas(df)).to_pandas()
    s = sigs.set_index("doc_id")["simhash"].to_dict()
    # Python ints: mask the int64 XOR to its 64-bit two's-complement form
    ham = lambda a, b: bin((int(a) ^ int(b)) & (2**64 - 1)).count("1")
    ids = sorted(s)
    exp = sorted((a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                 if ham(s[a], s[b]) <= 6)
    got = sorted(zip(out["id_from"], out["id_to"]))
    assert got == exp
    assert len(got) > 0  # planted near-dups must collide


def test_ngram_blocked_matches_exact(ray_session):
    """Vectorized in-block kernel == unblocked exact output on a corpus
    where blocks partition the docs."""
    df = _corpus(60)
    df["blk"] = df["doc_id"] // 40  # a few multi-doc blocks
    blocked = ngram_jaccard_pairs(rd.from_pandas(df), block_col="blk",
                                  threshold=0.4).to_pandas()
    exact = ngram_jaccard_pairs(rd.from_pandas(df),
                                threshold=0.4).to_pandas()
    # blocked finds the subset of exact pairs that share a block
    blk_of = df.set_index("doc_id")["blk"].to_dict()
    exp = exact[[blk_of[a] == blk_of[b]
                 for a, b in zip(exact["id_from"], exact["id_to"])]]
    key = lambda d: sorted(zip(d["id_from"], d["id_to"],
                               d["jaccard"].round(9)))
    assert key(blocked) == key(exp)
    assert len(blocked) > 0


def test_ngram_minhash_prefilter(ray_session):
    """Prefilter path: exact precision, near-total recall on the planted
    corpus, identical jaccard values for pairs it returns."""
    df = _corpus(80)
    exact = ngram_jaccard_pairs(rd.from_pandas(df),
                                threshold=0.5).to_pandas()
    pre = ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.5,
                              prefilter="minhash").to_pandas()
    ex = dict(((a, b), round(j, 9)) for a, b, j in
              zip(exact["id_from"], exact["id_to"], exact["jaccard"]))
    got = dict(((a, b), round(j, 9)) for a, b, j in
               zip(pre["id_from"], pre["id_to"], pre["jaccard"]))
    assert set(got) <= set(ex)            # exact precision
    assert all(ex[k] == v for k, v in got.items())
    assert len(got) >= 0.9 * len(ex) > 0  # high recall


def test_ngram_unblocked_cap_raises(ray_session):
    df = _corpus(30)
    try:
        ngram_jaccard_pairs(rd.from_pandas(df), threshold=0.5,
                            unblocked_cap=10)
        assert False, "expected ValueError"
    except ValueError as e:
        assert "O(n²)" in str(e) or "block_col" in str(e)


def test_embedding_lsh_path(ray_session):
    """Banded multi-table LSH finds the planted near-identical vectors the
    exact path finds (recall check on an easy 0.98-cosine corpus)."""
    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 16))
    vecs, ids = [], []
    for i in range(40):
        vecs.append(base[i]); ids.append(2 * i)
        if i % 3 == 0:  # planted near-dup
            vecs.append(base[i] + rng.normal(scale=0.01, size=16))
            ids.append(2 * i + 1)
    df = pd.DataFrame({"vec_id": ids, "embedding": [list(v) for v in vecs]})
    exact = embedding_dup_pairs(rd.from_pandas(df), threshold=0.98,
                                exact_block=True).to_pandas()
    lsh = embedding_dup_pairs(rd.from_pandas(df), threshold=0.98,
                              n_tables=8, n_planes=6).to_pandas()
    ex = set(zip(exact["id_from"], exact["id_to"]))
    got = set(zip(lsh["id_from"], lsh["id_to"]))
    assert got <= ex                      # exact verification: no FPs
    assert len(got) >= 0.9 * len(ex) > 0  # multi-table recall


def test_minhash_payload_modes_identical(ray_session, monkeypatch):
    """inline vs rejoin LSH shuffle layouts must return identical pairs +
    estimates (r2 verdict: adaptive minhash shuffle for the 100-TB path).
    The default gate takes the inline layout here; a zero gate forces the
    rejoin one."""
    from capelinker_ray.stages import dedup
    df = _corpus()
    outs = {}
    for mode, gate in (("inline", dedup.REJOIN_MIN_DOCS), ("rejoin", 0)):
        monkeypatch.setattr(dedup, "REJOIN_MIN_DOCS", gate)
        out = minhash_lsh_dedup(rd.from_pandas(df),
                                jaccard_threshold=0.5).to_pandas()
        outs[mode] = (out.sort_values(["id_from", "id_to"])
                      .reset_index(drop=True)
                      [["id_from", "id_to", "est_jaccard"]])
    assert len(outs["inline"]) > 0
    pd.testing.assert_frame_equal(outs["inline"], outs["rejoin"])


def test_batch_shingles_nul_in_text_matches_per_doc_kernel():
    import numpy as np
    from capelinker_ray.stages.dedup import (_batch_shingle_hashes,
                                             _shingle_hashes)
    texts = ["hello\x00world", "abc", "", "x\x00\x00y zzz"]
    starts, h = _batch_shingle_hashes(texts, 3)
    bounds = list(starts) + [len(h)]
    for i, t in enumerate(texts):
        got = np.unique(h[bounds[i]:bounds[i + 1]])
        exp = _shingle_hashes(t, 3)
        assert np.array_equal(got, exp), (i, t)


def test_segment_dedup_removes_hot_windows(ray_session):
    from capelinker_ray.stages.dedup import segment_dedup
    boiler = " ".join(f"b{i}" for i in range(4))      # one 4-word window
    uniq = [" ".join(f"u{d}_{i}" for i in range(6)) for d in range(4)]
    df = pd.DataFrame({
        "doc_id": [0, 1, 2, 3, 4],
        # docs 0-2 start with the same 4-word window (count 3 > 2)
        "text": [f"{boiler} {uniq[0]}", f"{boiler} {uniq[1]}",
                 f"{boiler} {uniq[2]}", uniq[3], ""],
    })
    out = (segment_dedup(rd.from_pandas(df), words_per_seg=4, max_count=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # window layout at 4 words: [boiler][u_{0..3}][u_{4..5}] for docs 0-2
    assert out.loc[0, "n_removed"] == 1
    assert out.loc[0, "text_clean"] == uniq[0]
    assert out.loc[1, "text_clean"] == uniq[1]
    assert out.loc[3, "n_removed"] == 0
    assert out.loc[3, "text_clean"] == uniq[3]
    # empty doc: one empty segment, never hot here, survives as ''
    assert out.loc[4, "n_seg"] == 1 and out.loc[4, "text_clean"] == ""
    # no doc rows lost
    assert list(out["doc_id"]) == [0, 1, 2, 3, 4]


def test_segment_dedup_fallback_path_identical(ray_session, monkeypatch):
    """The distributed explode+join+reassemble fallback (forced by a zero
    HOT_SET_BROADCAST_MAX) must reproduce the broadcast path exactly."""
    from capelinker_ray.stages import dedup
    from capelinker_ray.stages.dedup import segment_dedup
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, rng.integers(5, 40)))
             for _ in range(60)]
    texts += [texts[0], texts[1], texts[0]]           # force hot windows
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    kw = dict(words_per_seg=8, max_count=2)
    a = (segment_dedup(rd.from_pandas(df), **kw)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    monkeypatch.setattr(dedup, "HOT_SET_BROADCAST_MAX", 0)
    b = (segment_dedup(rd.from_pandas(df), **kw)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (a["n_removed"] > 0).any()
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_segment_dedup_fully_hot_doc_becomes_empty(ray_session):
    from capelinker_ray.stages.dedup import segment_dedup
    df = pd.DataFrame({"doc_id": [0, 1, 2],
                       "text": ["spam spam", "spam spam", "spam spam"]})
    out = (segment_dedup(rd.from_pandas(df), words_per_seg=2, max_count=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (out["text_clean"] == "").all()
    assert (out["n_removed"] == 1).all()


def test_semantic_dedup_removes_planted_duplicates(ray_session):
    from capelinker_ray.stages.dedup import semantic_dedup
    rng = np.random.default_rng(12)
    base = rng.normal(size=(40, 16))
    rows = []
    for i, v in enumerate(base):
        rows.append((i * 10, v))                    # original
        if i % 4 == 0:
            rows.append((i * 10 + 1, v.copy()))     # exact duplicate
    df = pd.DataFrame({"doc_id": [r[0] for r in rows],
                       "embedding": [r[1] for r in rows]})
    out = (semantic_dedup(rd.from_pandas(df), threshold=0.999)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    dup_ids = sorted(r[0] for r in rows if r[0] % 10 == 1)
    assert sorted(out["doc_id"]) == dup_ids          # only clones removed
    assert (out["kept_id"] == out["doc_id"] - 1).all()   # min-id kept
    assert (out["cosine"] >= 0.999).all()


def test_semantic_greedy_scan_matches_bruteforce():
    # the vectorized triangular-round scan must equal the sequential
    # reference greedy exactly (ids, reps, cosines) — including across
    # chunk boundaries (chunk=16 forces many)
    from capelinker_ray.kernels import strdist  # noqa: F401 (import check)
    from capelinker_ray.stages.dedup import _greedy_semantic_scan
    from capelinker_ray.stages.simsearch import _norm_rows
    rng = np.random.default_rng(44)
    base = rng.normal(size=(30, 8))
    vecs = [base[i % 30] + rng.normal(scale=0.002, size=8)
            for i in range(120)]
    ids = np.arange(120, dtype=np.int64)
    V = _norm_rows(np.stack(vecs).astype(np.float64))
    thr = 0.99

    # sequential reference greedy
    kept, ref = [], []
    for j in range(len(ids)):
        hit = next((k for k in kept if V[j] @ V[k] >= thr), -1)
        if hit >= 0:
            ref.append((ids[j], ids[hit], round(float(V[j] @ V[hit]), 6)))
        else:
            kept.append(j)

    got_i, got_k, got_c = _greedy_semantic_scan(ids, V, thr, chunk=16)
    assert list(zip(got_i, got_k, got_c)) == ref
    assert len(ref) > 50          # the scan actually removed dups


def test_semantic_dedup_cluster_split_parity(ray_session):
    # forced-tiny max_cluster_rows exercises the salted sub-block +
    # cross-pass path: planted star-shaped duplicate families must
    # collapse identically to the unsplit path, and every kept_id must
    # be a surviving doc (reps remapped through pass 2)
    from capelinker_ray.stages.dedup import semantic_dedup
    rng = np.random.default_rng(21)
    base = rng.normal(size=(25, 12))
    rows = []
    for i, v in enumerate(base):
        rows.append((i * 10, v))
        if i % 3 == 0:
            rows.append((i * 10 + 1, v + rng.normal(scale=1e-5, size=12)))
            rows.append((i * 10 + 2, v + rng.normal(scale=1e-5, size=12)))
    df = pd.DataFrame({"doc_id": [r[0] for r in rows],
                       "embedding": [r[1] for r in rows]})
    whole = (semantic_dedup(rd.from_pandas(df), threshold=0.999,
                            n_clusters=4, max_cluster_rows=None)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    split = (semantic_dedup(rd.from_pandas(df), threshold=0.999,
                            n_clusters=4, max_cluster_rows=5)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # same docs removed, same survivors (star families: parity exact)
    assert whole["doc_id"].tolist() == split["doc_id"].tolist()
    # representatives always survive in BOTH modes
    for out in (whole, split):
        assert not set(out["kept_id"]) & set(out["doc_id"])
    # deterministic across repartitioning in split mode
    split2 = (semantic_dedup(rd.from_pandas(df).repartition(7),
                             threshold=0.999, n_clusters=4,
                             max_cluster_rows=5)
              .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(split.reset_index(drop=True), split2)


def test_semantic_dedup_deterministic(ray_session):
    from capelinker_ray.stages.dedup import semantic_dedup
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "doc_id": np.arange(200, dtype=np.int64),
        "embedding": [rng.normal(size=8) for _ in range(200)]})
    # near-dups: every 10th vector is a tiny perturbation of its neighbor
    for i in range(0, 200, 10):
        if i + 1 < 200:
            df.at[i + 1, "embedding"] = (df.at[i, "embedding"]
                                         + rng.normal(scale=1e-4, size=8))
    a = (semantic_dedup(rd.from_pandas(df), threshold=0.98)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (semantic_dedup(rd.from_pandas(df).repartition(5), threshold=0.98)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) >= 15    # the planted perturbation pairs collapse


# ---------------------------------------------------------------------------
# dup_spans (repeated-span detection) / dedup_lines (within-doc)
# ---------------------------------------------------------------------------

def _span_docs():
    boiler = " ".join(f"b{i}" for i in range(10))      # 10 shared words
    return pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [
            f"a0 a1 {boiler} a2 a3",                   # span at words 3-12
            f"c0 c1 c2 c3 {boiler}",                   # span at words 5-14
            "d0 d1 d2 d3 d4 d5 d6 d7 d8 d9 d10",       # no dup
            "",                                        # empty doc
        ],
    })


def test_dup_spans_merges_windows(ray_session):
    from capelinker_ray.stages.dedup import dup_spans
    out = (dup_spans(rd.from_pandas(_span_docs()), win=8, min_docs=2)
           .to_pandas().sort_values(["doc_id", "span_start"])
           .reset_index(drop=True))
    # 10 shared words, win=8 -> 3 sliding windows per doc, one island
    assert list(out["doc_id"]) == [0, 1]
    assert out.loc[0, ["span_start", "span_end", "n_windows"]].tolist() \
        == [3, 12, 3]
    assert out.loc[1, ["span_start", "span_end", "n_windows"]].tolist() \
        == [5, 14, 3]


def test_dup_spans_within_doc_repeat_not_flagged(ray_session):
    """min_docs counts DISTINCT docs: a window repeated only inside one
    doc never flags."""
    from capelinker_ray.stages.dedup import dup_spans
    rep = " ".join(f"r{i}" for i in range(8))
    df = pd.DataFrame({"doc_id": [0, 1],
                       "text": [f"{rep} x0 x1 {rep}",
                                "y0 y1 y2 y3 y4 y5 y6 y7 y8"]})
    out = dup_spans(rd.from_pandas(df), win=8, min_docs=2).to_pandas()
    assert len(out) == 0


def test_dup_spans_fallback_path_identical(ray_session, monkeypatch):
    # a zero HOT_SET_BROADCAST_MAX forces the distributed island merge
    from capelinker_ray.stages import dedup
    from capelinker_ray.stages.dedup import dup_spans
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(25)]
    texts = [" ".join(rng.choice(vocab, rng.integers(8, 50)))
             for _ in range(50)]
    texts += [texts[0], texts[3]]                     # cross-doc dups
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    kw = dict(win=6, min_docs=2)
    cols = ["doc_id", "span_start", "span_end", "n_windows"]
    a = (dup_spans(rd.from_pandas(df), **kw).to_pandas()[cols]
         .sort_values(cols).reset_index(drop=True))
    monkeypatch.setattr(dedup, "HOT_SET_BROADCAST_MAX", 0)
    b = (dup_spans(rd.from_pandas(df), **kw)
         .to_pandas()[cols].sort_values(cols).reset_index(drop=True))
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_dup_spans_stride_subsamples(ray_session):
    """stride=2 halves the window positions; a long duplicated run is
    still detected when it sits at stride-aligned positions in both docs
    (recall dial — positions are doc-local, so misaligned copies can be
    missed; stride=1 is the exact setting)."""
    from capelinker_ray.stages.dedup import dup_spans
    boiler = " ".join(f"b{i}" for i in range(16))
    df = pd.DataFrame({"doc_id": [0, 1],
                       "text": [f"{boiler} u0 u1", f"{boiler} v0"]})
    out = (dup_spans(rd.from_pandas(df), win=8, stride=2, min_docs=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert list(out["doc_id"]) == [0, 1]
    # strided boiler starts 0,2,4,6,8 in both docs -> one island, words
    # 1..16 (1-based inclusive)
    assert out.loc[0, ["span_start", "span_end", "n_windows"]].tolist() \
        == [1, 16, 5]
    assert out.loc[1, ["span_start", "span_end"]].tolist() == [1, 16]

    # misaligned copy (offset 1 vs stride 2): documented recall miss
    df2 = pd.DataFrame({"doc_id": [0, 1],
                        "text": [f"{boiler} u0 u1", f"v0 {boiler}"]})
    miss = dup_spans(rd.from_pandas(df2), win=8, stride=2,
                     min_docs=2).to_pandas()
    assert len(miss) == 0


def test_dedup_lines_keep_first_ordered(ray_session):
    from capelinker_ray.stages.dedup import dedup_lines
    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["a\nb\na\nc\nb", "x\nx\nx", ""],
    })
    out = (dedup_lines(rd.from_pandas(df)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert out.loc[0, "text_clean"] == "a\nb\nc"
    assert out.loc[0, "n_lines"] == 5 and out.loc[0, "n_removed"] == 2
    assert out.loc[1, "text_clean"] == "x" and out.loc[1, "n_removed"] == 2
    # '' splits to one empty line, kept
    assert out.loc[2, "text_clean"] == "" and out.loc[2, "n_lines"] == 1


def test_dedup_lines_custom_sep_words(ray_session):
    from capelinker_ray.stages.dedup import dedup_lines
    df = pd.DataFrame({"doc_id": [0], "text": ["a b a c b a"]})
    out = dedup_lines(rd.from_pandas(df), sep=" ").to_pandas()
    assert out.loc[0, "text_clean"] == "a b c"
    assert out.loc[0, "n_removed"] == 3


def test_remove_spans_scrubs_and_passes_through(ray_session):
    from capelinker_ray.stages.dedup import remove_spans
    docs = pd.DataFrame({"doc_id": [0, 1, 2],
                         "text": ["w0 w1 w2 w3 w4 w5", "x0 x1 x2", ""]})
    spans = pd.DataFrame({
        "doc_id": [0, 0, 1],
        # overlapping spans on doc 0 (2-4 and 4-5 -> words 2..5 covered);
        # doc 1 span runs past the end -> clipped
        "span_start": [2, 4, 2],
        "span_end": [4, 5, 99]})
    out = (remove_spans(rd.from_pandas(docs), rd.from_pandas(spans))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out.loc[0, "text_clean"] == "w0 w5"
    assert out.loc[0, "n_removed"] == 4
    assert out.loc[1, "text_clean"] == "x0"
    assert out.loc[1, "n_removed"] == 2
    # doc 2 has no spans and empty text: passes through
    assert out.loc[2, "text_clean"] == "" and out.loc[2, "n_removed"] == 0
    assert list(out["doc_id"]) == [0, 1, 2]


def test_dup_spans_then_remove_roundtrip(ray_session):
    """Composition: remove_spans(dup_spans(...)) leaves no cross-doc
    duplicated window behind (scrubbed docs re-scanned -> zero spans)."""
    from capelinker_ray.stages.dedup import dup_spans, remove_spans
    boiler = " ".join(f"b{i}" for i in range(12))
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": [f"u0 u1 {boiler} u2", f"{boiler} v0 v1 v2 v3 v4 v5 v6 v7",
                 "solo w0 w1 w2 w3 w4 w5 w6"]})
    ds = rd.from_pandas(docs)
    spans = dup_spans(ds, win=8, min_docs=2)
    clean = remove_spans(ds, spans).to_pandas()
    again = rd.from_pandas(clean.rename(columns={"text_clean": "text"})
                           [["doc_id", "text"]])
    respans = dup_spans(again, win=8, min_docs=2).to_pandas()
    assert len(respans) == 0


def test_incremental_dedup_drops_frozen_and_within_batch(ray_session):
    from capelinker_ray.stages.dedup import incremental_dedup
    frozen = pd.DataFrame({"doc_id": [0, 1], "text": ["seen", "old"]})
    new = pd.DataFrame({
        "doc_id": [10, 11, 12, 13, 14],
        "text": ["seen",          # already in frozen -> dropped
                 "fresh",         # kept
                 "fresh",         # within-batch dup -> dropped (min id)
                 "old",           # already in frozen -> dropped
                 "brand"]})       # kept
    out = (incremental_dedup(rd.from_pandas(new).repartition(3),
                             rd.from_pandas(frozen))
           .to_pandas().sort_values("doc_id"))
    assert out["doc_id"].tolist() == [11, 14]
    assert out["text"].tolist() == ["fresh", "brand"]
