"""Corpus-wide bigram-cosine candidate generation (stages/bigram.py):
value parity with the dense reference kernel (itself pinned to the
candidates.R roxygen example), hot-dim salting, self-link, idf variant."""

import numpy as np
import pandas as pd
import ray.data as rd

from capelinker_ray.kernels.strdist import bigram_cosine_matrix
from capelinker_ray.stages.bigram import bigram_candidates


def _expected(fdf, tdf, maxdist, idf=False):
    sim = bigram_cosine_matrix(fdf["s"].to_numpy(object),
                               tdf["s"].to_numpy(object), idf=idf)
    maxsim = 1 - maxdist
    exp = []
    for i in range(len(fdf)):
        js = np.nonzero(sim[i] > maxsim)[0]
        for j in js:
            exp.append((str(fdf.id.iloc[i]), str(tdf.id.iloc[j]),
                        round(sim[i, j], 8), float(len(js))))
        if len(js) == 0:
            exp.append((str(fdf.id.iloc[i]), None, None, 0.0))
    return sorted(exp)


def _got(out):
    return sorted(
        (r.id_from, r.id_to if pd.notna(r.id_to) else None,
         round(r.score, 8) if pd.notna(r.score) else None, r.matches)
        for r in out.itertuples())


def _rand(n, seed, alphabet="abcdefgh"):
    rng = np.random.default_rng(seed)
    letters = np.array(list(alphabet))
    return ["".join(rng.choice(letters, size=rng.integers(3, 9)))
            for _ in range(n)]


def test_bigram_roxygen_fixture(ray_session):
    # the candidates.R example data (candidates.R:27-29)
    d1 = pd.DataFrame({"s": ["jong", "smid", "nauda"], "id": ["1", "2", "3"]})
    d2 = pd.DataFrame({"s": ["jongh", "jong", "smit", "veld"],
                       "id": ["a", "b", "c", "d"]})
    for idf in (False, True):
        for maxdist in (0.15, 0.5):
            out = bigram_candidates(
                rd.from_pandas(d1), rd.from_pandas(d2), blockvariable="s",
                id_col="id", maxdist=maxdist, idf=idf).to_pandas()
            assert _got(out) == _expected(d1, d2, maxdist, idf)


def test_bigram_corpus_wide_with_salting(ray_session):
    f = pd.DataFrame({"s": _rand(120, 1) + [None, ""],
                      "id": [f"f{i:03d}" for i in range(122)]})
    t = pd.DataFrame({"s": _rand(150, 2) + ["", "zz"],
                      "id": [f"t{i:03d}" for i in range(152)]})
    # max_block_pairs=40 forces the hot-dim salting path
    out = bigram_candidates(rd.from_pandas(f), rd.from_pandas(t),
                            blockvariable="s", id_col="id", maxdist=0.5,
                            max_block_pairs=40).to_pandas()
    assert _got(out) == _expected(f, t, 0.5)


def test_bigram_fallback_resolve_parity(ray_session, monkeypatch):
    """A zero broadcast gate forces hash_join's shuffle for the matches
    join; output must equal the dense kernel (incl. unmatched stubs)."""
    from capelinker_ray.stages import join
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    f = pd.DataFrame({"s": _rand(60, 7) + [None], "id": [f"f{i}" for i in range(61)]})
    t = pd.DataFrame({"s": _rand(70, 8), "id": [f"t{i}" for i in range(70)]})
    out = bigram_candidates(rd.from_pandas(f), rd.from_pandas(t),
                            blockvariable="s", id_col="id", maxdist=0.5)
    assert out.columns() == ["id_from", "id_to", "score", "matches"]
    assert _got(out.to_pandas()) == _expected(f, t, 0.5)


def test_bigram_idf_corpus_wide(ray_session):
    f = pd.DataFrame({"s": _rand(80, 3), "id": [f"f{i}" for i in range(80)]})
    t = pd.DataFrame({"s": _rand(90, 4), "id": [f"t{i}" for i in range(90)]})
    out = bigram_candidates(rd.from_pandas(f), rd.from_pandas(t),
                            blockvariable="s", id_col="id", maxdist=0.4,
                            idf=True).to_pandas()
    assert _got(out) == _expected(f, t, 0.4, idf=True)


def test_bigram_self_link(ray_session):
    g = pd.DataFrame({"s": _rand(100, 5), "id": [f"g{i:03d}" for i in range(100)]})
    out = bigram_candidates(rd.from_pandas(g), None, blockvariable="s",
                            id_col="id", maxdist=0.4,
                            keep_unmatched=False).to_pandas()
    sim = bigram_cosine_matrix(g["s"].to_numpy(object),
                               g["s"].to_numpy(object))
    fi, ti = np.nonzero(sim > 0.6)
    exp = sorted((g.id.iloc[i], g.id.iloc[j], round(sim[i, j], 8))
                 for i, j in zip(fi, ti) if g.id.iloc[i] < g.id.iloc[j])
    got = sorted((r.id_from, r.id_to, round(r.score, 8))
                 for r in out.itertuples())
    assert got == exp


def test_candidates_corpus_wide_delegation(ray_session):
    """candidates(block_col=None, blocktype='bigram') == bigram_candidates
    (the reference's no-pre-block default, same API entry point)."""
    from capelinker_ray.stages.blocking import candidates
    d1 = pd.DataFrame({"s": ["jong", "smid", "nauda"], "id": ["1", "2", "3"]})
    d2 = pd.DataFrame({"s": ["jongh", "jong", "smit", "veld"],
                       "id": ["a", "b", "c", "d"]})
    out = candidates(rd.from_pandas(d1), rd.from_pandas(d2), block_col=None,
                     blocktype="bigram", blockvariable="s", id_col="id",
                     maxdist=0.5).to_pandas()
    assert _got(out) == _expected(d1, d2, 0.5)
    try:
        candidates(rd.from_pandas(d1), rd.from_pandas(d2), block_col=None,
                   blocktype="stringdist", blockvariable="s", id_col="id")
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_batch_bigrams_nul_in_text_matches_dense_kernel():
    """Strings containing the batch separator codepoint (U+0000) must keep
    their bigrams: validity is positional, not value-based."""
    import numpy as np
    from capelinker_ray.stages.bigram import _batch_bigrams, _CODE_BASE

    s = "a\x00b"
    doc, codes, counts = _batch_bigrams(np.array([s, "ab"], dtype=object))
    # '#a\x00b#' windows: (#,a) (a,\x00) (\x00,b) (b,#) -> 4 distinct
    got0 = {int(c) for c, d in zip(codes, doc) if d == 0}
    h = ord("#")
    exp0 = {h * _CODE_BASE + ord("a"), ord("a") * _CODE_BASE,
            ord("b"), ord("b") * _CODE_BASE + h}
    assert got0 == exp0
    assert counts[np.asarray(doc) == 0].sum() == 4


def test_bigram_candidates_empty_corpus(ray_session):
    import pyarrow as pa
    recs = pa.table({"conv_id": pa.array([], pa.string()),
                     "first_text_prefix": pa.array([], pa.string())})
    out = bigram_candidates(rd.from_arrow(recs), None,
                            blockvariable="first_text_prefix",
                            id_col="conv_id", maxdist=0.35)
    assert out.count() == 0
