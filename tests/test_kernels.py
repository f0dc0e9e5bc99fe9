"""Kernel oracles: roxygen-example fixtures (FIXTURES.md F4) + properties.

Expected values independently derived from the published definitions of
Jaro-Winkler / OSA / Soundex (the same definitions stringdist implements).
"""

import math

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capelinker_ray.kernels import (
    bigram_cosine_matrix,
    bigram_cosine_pairs,
    gk,
    initials,
    jaro_sim,
    jaro_winkler_sim,
    jw_dist,
    len_longest_word,
    levenshtein_dist,
    mask_jaccard,
    minmax_normalise,
    osa_dist,
    osa_sim,
    paste_similar,
    rm_diacretics,
    soundex,
    soundex_dist,
    split_prefixes,
    stringdist_closest,
    token_jaccard,
    uniformise_string,
)
from capelinker_ray.kernels import strdist


# ---------------------------------------------------------------- Jaro-Winkler
def test_jw_known_values():
    # classic textbook values
    assert jaro_sim(["MARTHA"], ["MARHTA"])[0] == pytest.approx(0.944444, abs=1e-5)
    assert jaro_winkler_sim(["MARTHA"], ["MARHTA"], p=0.1)[0] == pytest.approx(0.961111, abs=1e-5)
    assert jaro_sim(["DIXON"], ["DICKSONX"])[0] == pytest.approx(0.766667, abs=1e-5)
    assert jaro_winkler_sim(["DIXON"], ["DICKSONX"], p=0.1)[0] == pytest.approx(0.813333, abs=1e-5)
    assert jaro_sim(["DWAYNE"], ["DUANE"])[0] == pytest.approx(0.822222, abs=1e-5)
    # no matching characters
    assert jaro_sim(["abc"], ["xyz"])[0] == 0.0
    # identity
    assert jw_dist(["jong"], ["jong"], p=0.1)[0] == 0.0


def test_jw_empty_and_null():
    s = jaro_winkler_sim(["", "a", None, "b"], ["", "", "x", None])
    assert s[0] == 1.0          # both empty -> equal
    assert s[1] == 0.0          # one empty
    assert math.isnan(s[2]) and math.isnan(s[3])


def test_jw_p_variants_differ():
    # FIXTURES F4: same pair with p=0.1 vs p=0 must differ when prefix shared
    p0 = jaro_winkler_sim(["jong"], ["jongh"], p=0.0)[0]
    p1 = jaro_winkler_sim(["jong"], ["jongh"], p=0.1)[0]
    assert p1 > p0


def test_jw_reference_fixture_pairs():
    # candidates.R example strings; JW(p=0.1) distances must order sensibly
    d = jw_dist(["jong", "smid", "nauda"], ["jongh", "smit", "veld"], p=0.1)
    assert d[0] < 0.1   # jong/jongh very close
    assert d[1] < 0.2   # smid/smit close
    assert d[2] > 0.4   # nauda/veld far


# ------------------------------------------------------------------ OSA / Lev
def test_osa_known():
    assert osa_dist(["ca"], ["abc"])[0] == 3.0  # OSA (not full DL, which gives 2)
    assert osa_dist(["ab"], ["ba"])[0] == 1.0   # one transposition
    assert levenshtein_dist(["ab"], ["ba"])[0] == 2.0
    assert osa_dist(["kitten"], ["sitting"])[0] == 3.0
    assert levenshtein_dist(["kitten"], ["sitting"])[0] == 3.0
    assert osa_dist(["", "abc"], ["abc", ""]).tolist() == [3.0, 3.0]
    assert math.isnan(osa_dist([None], ["x"])[0])


def test_osa_sim_normalization():
    # stringsim = 1 - d/max(len)
    assert osa_sim(["AB"], ["BA"])[0] == pytest.approx(0.5)
    assert osa_sim([""], [""])[0] == 1.0


# -------------------------------------------------------------------- Soundex
def test_soundex_classic():
    got = soundex(["Robert", "Rupert", "Ashcraft", "Ashcroft", "Tymczak", "Pfister", "Honeyman"])
    assert list(got) == ["R163", "R163", "A261", "A261", "T522", "P236", "H555"]


def test_soundex_dist():
    d = soundex_dist(["Robert", "smid", None], ["Rupert", "smit", "x"])
    assert d[0] == 0.0
    assert d[1] == 0.0  # smid/smit same code S530
    assert math.isnan(d[2])


# -------------------------------------------------------------- bigram cosine
def test_bigram_cosine_identity_and_range():
    m = bigram_cosine_matrix(["jong", "smid", "nauda"], ["jongh", "jong", "smit", "veld"])
    assert m.shape == (3, 4)
    assert m[0, 1] == pytest.approx(1.0)           # jong vs jong
    assert m[0, 0] > 0.6                            # jong vs jongh
    assert m[1, 2] > 0.4                            # smid vs smit
    assert m[2, 3] < 0.5                            # nauda vs veld: dissimilar
    assert ((m >= -1e-9) & (m <= 1 + 1e-9)).all()


def test_bigram_cosine_pairs_matches_matrix():
    a = ["jong", "smid"]
    b = ["jongh", "smit"]
    pv = bigram_cosine_pairs(a, b)
    mv = bigram_cosine_matrix(a, b)
    assert pv[0] == pytest.approx(mv[0, 0])
    assert pv[1] == pytest.approx(mv[1, 1])


def test_bigram_cosine_idf_variant_runs():
    m = bigram_cosine_matrix(["jong", "smid"], ["jongh", "smit"], idf=True)
    assert m.shape == (2, 2)
    assert np.isfinite(m).all()


# ---------------------------------------------------------------- token sets
def test_token_jaccard():
    j = token_jaccard(["a b c", "a", "", None], ["b c d", "a", "", "x"])
    assert j[0] == pytest.approx(2 / 4)
    assert j[1] == 1.0
    assert j[2] == 1.0
    assert math.isnan(j[3])


def test_mask_jaccard():
    j = mask_jaccard(np.array([0b011, 0b000, -1]), np.array([0b110, 0b000, 0b1]))
    assert j[0] == pytest.approx(1 / 3)
    assert j[1] == 1.0
    assert math.isnan(j[2])


# ------------------------------------------------------------------- textutil
def test_initials_roxygen():
    s = ["Auke B.", "Arnold Christoffer", "Arend X. Mark", "Albert X Johannes",
         "Albert X.Y. Johannes", "J. F."]
    assert list(initials(s)) == ["AB", "AC", "AXM", "AXJ", "AXYJ", "JF"]
    assert initials([""])[0] == ""
    assert initials([""], return_NA_on_empty=True)[0] is None
    assert initials([None])[0] is None


def test_rm_diacretics_roxygen():
    assert rm_diacretics(["éå"])[0] == "ea"
    assert rm_diacretics([None])[0] is None


def test_split_prefixes_roxygen():
    pref, rest = split_prefixes(["VAN DER MOLEN", "DUMOULIN", "DU MOULIN"])
    assert list(pref) == ["VAN DER ", None, "DU "]
    assert list(rest) == ["MOLEN", "DUMOULIN", "MOULIN"]
    pref2, _ = split_prefixes(["Van der Molen"])
    assert pref2[0].upper() == "VAN DER "


def test_len_longest_word():
    out = len_longest_word(["J.", "Albert X", None])
    assert out[0] == 1.0
    assert out[1] == 6.0
    assert math.isnan(out[2])


def test_gk():
    assert gk([5.0], [5.0])[0] == 1.0
    assert gk([0.0], [1.0], sigma=1.0)[0] == pytest.approx(math.exp(-1))
    assert gk([0.0], [2.0], sigma=2.0)[0] == pytest.approx(math.exp(-0.5))


def test_minmax_normalise():
    out = minmax_normalise([1.0, 3.0, 5.0])
    assert out.tolist() == [0.0, 0.5, 1.0]


def test_uniformise_string():
    s = ["jong", "jong", "jongh", "veld"]
    out = uniformise_string(s, maxdist=0.2)
    assert list(out) == ["jong", "jong", "jong", "veld"]


def test_stringdist_closest():
    assert stringdist_closest(["only"])[0] == 1.0
    out = stringdist_closest(["jan", "jans", "xyz"])
    assert out[0] < 0.2 and out[1] < 0.2
    assert out[2] > out[0]


def test_paste_similar_roxygen():
    s = ["jan van der merwe", "gerrit coetzee", "johan van der merwe", "jan van merwe"]
    out = paste_similar(s, threshold=0.85)
    assert "johan van der merwe" in out[0] and "jan van merwe" in out[0]
    assert out[1] == ""


# ----------------------------------------------------------------- properties
@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcdefg #", max_size=12), st.text(alphabet="abcdefg #", max_size=12))
def test_jw_properties(a, b):
    s_ab = jaro_winkler_sim([a], [b], p=0.1)[0]
    s_ba = jaro_winkler_sim([b], [a], p=0.1)[0]
    assert 0.0 <= s_ab <= 1.0
    assert s_ab == pytest.approx(s_ba, abs=1e-12)      # symmetry
    assert jaro_winkler_sim([a], [a], p=0.1)[0] == 1.0  # identity


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcdef", max_size=10), st.text(alphabet="abcdef", max_size=10))
def test_osa_properties(a, b):
    d = osa_dist([a], [b])[0]
    assert d == osa_dist([b], [a])[0]
    assert d <= max(len(a), len(b))
    assert osa_dist([a], [a])[0] == 0.0
    assert d >= abs(len(a) - len(b))
    # OSA >= full-DL >= 0 and <= Levenshtein
    assert d <= levenshtein_dist([a], [b])[0]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="abc", min_size=0, max_size=6), min_size=1, max_size=6))
def test_soundex_total(strings):
    codes = soundex(strings)
    for s, c in zip(strings, codes):
        if any(ch.isalpha() for ch in s):
            assert len(c) == 4 and c[0].isalpha()
        else:
            assert c == ""


# ------------------------------------------- bit-parallel cores vs the DP
# Rows whose strings fit in one 64-bit match word take the bit-parallel
# cores (strdist._jaro_bits / _edit_bits); the per-cell DP cores are the
# reference. Forcing every row through the DP must not change one bit.

# repeats, a NUL, the uint8 edge (þ = 0xFE, ÿ = 0xFF, Ā = 0x100) and a CJK
# codepoint
_PARITY_ALPHABET = "aab baé漢\x00þÿĀ"
_parity_text = st.one_of(
    st.none(), st.just(""),
    st.text(alphabet=_PARITY_ALPHABET, max_size=80),
    # near the 64-codepoint word: some rows fit, some take the DP
    st.text(alphabet=_PARITY_ALPHABET, min_size=56, max_size=72))


def _parity_calls(s1, s2, max_len, p, bt, int_t):
    return {
        "jaro_sim": jaro_sim(s1, s2, max_len=max_len, int_transpositions=int_t),
        "jaro_winkler_sim": jaro_winkler_sim(
            s1, s2, p=p, bt=bt, max_len=max_len, int_transpositions=int_t),
        "osa_dist": osa_dist(s1, s2, max_len=max_len),
        "osa_sim": osa_sim(s1, s2, max_len=max_len),
        "levenshtein_dist": levenshtein_dist(s1, s2, max_len=max_len),
    }


def _assert_parity(s1, s2, max_len=None, p=0.1, bt=0.0, int_t=False):
    inputs = [(list(s1), list(s2))]
    if all(s is None or s.isascii() for s in list(s1) + list(s2)):
        # the Arrow buffer decode (ASCII fast path) feeds the cores too
        inputs.append((pa.array(s1, pa.string()), pa.array(s2, pa.string())))
    got = [_parity_calls(a, b, max_len, p, bt, int_t) for a, b in inputs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strdist, "_run_core", lambda bits, dp, *a: dp(*a))
        ref = [_parity_calls(a, b, max_len, p, bt, int_t) for a, b in inputs]
    for g, r in zip(got, ref):
        for name in r:
            assert np.array_equal(g[name], r[name], equal_nan=True), \
                (name, s1, s2, g[name], r[name])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_parity_text, _parity_text), min_size=1,
                max_size=12),
       st.sampled_from([None, 70]), st.sampled_from([0.0, 0.1]),
       st.sampled_from([0.0, 0.7]), st.booleans())
def test_bit_parallel_cores_match_dp(pairs, max_len, p, bt, int_t):
    s1 = [a for a, _ in pairs]
    s2 = [b for _, b in pairs]
    _assert_parity(s1, s2, max_len, p, bt, int_t)


def test_bit_parallel_cores_match_dp_at_word_edge():
    """63/64/65-char strings: one call mixes rows on both sides of the
    64-codepoint word, including swaps, edits and repeats near its end."""
    rng = np.random.default_rng(17)
    s1, s2 = [], []
    for n1, n2 in [(63, 63), (63, 64), (64, 64), (64, 65), (65, 65),
                   (64, 63), (65, 64), (0, 64), (64, 0), (1, 64)]:
        for _ in range(3):
            a = "".join(rng.choice(list("abcé"), n1))
            b = list(((a or "cab") * 70)[:n2])
            for k in rng.integers(0, max(n2, 1), 3):
                if n2 > 1 and k + 1 < n2:
                    b[k], b[k + 1] = b[k + 1], b[k]
            s1.append(a)
            s2.append("".join(b))
    s1 += ["a" * 64, "ab" * 32, "x" * 65]
    s2 += ["a" * 64, "ba" * 32, "x" * 64]
    for int_t in (False, True):
        _assert_parity(s1, s2, int_t=int_t)
        _assert_parity(s2, s1, int_t=int_t)
