"""String-distance kernels, vectorized in numpy over the *pair* axis.

From-scratch reimplementations (no stringdist / rapidfuzz / jellyfish in the
environment) of every kernel the reference uses:

  - Jaro / Jaro-Winkler similarity & distance
    (stringdist ``method='jw'`` with prefix weight ``p``; reference uses
    p=0.1 in ``distcalc`` [/root/reference/R/distances.R:32] and p=0 (plain
    Jaro) in the vignette feature calls)
  - OSA (restricted Damerau-Levenshtein) and plain Levenshtein
    (``minitialsdist_osa`` feature, /root/reference/data_raw/pretrained.R:213)
  - American Soundex code + 0/1 soundex distance
    (stringdist ``method='soundex'``, /root/reference/R/distances.R:35-39 and
    the ``phonetic()`` equality blocking, /root/reference/R/candidates.R:113-116)
  - character-bigram cosine similarity with '#' boundary markers
    (qlcMatrix::sim.strings, /root/reference/R/candidates.R:82-96)
  - token Jaccard (graft feature over role/tool signatures)

Vectorization strategy: strings are decoded once per batch into a dense
``(n_pairs, max_len)`` uint32 codepoint matrix (a zero-cost numpy view of the
fixed-width unicode array), and the loops run over *character positions*
(bounded, ~tens) with every operation vectorized over the pair axis. No
Python loop over pairs in any hot kernel. Jaro and OSA / Levenshtein rows
whose two strings fit in 64 codepoints run bit-parallel over ``uint64``
match masks, one word step per character of the second string (Myers 1999,
Hyyrö 2003); longer rows run the per-cell DP, ``L1 * L2`` steps.

Null semantics match stringdist: a null on either side yields NaN (SURVEY
§1.2). Empty-vs-empty compares equal (distance 0 / similarity 1).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "jaro_sim",
    "jaro_winkler_sim",
    "jw_dist",
    "osa_dist",
    "osa_sim",
    "levenshtein_dist",
    "soundex",
    "soundex_dist",
    "bigram_cosine_pairs",
    "bigram_cosine_matrix",
    "token_jaccard",
    "mask_jaccard",
]


def _as_object_array(strings) -> np.ndarray:
    """Accept list / numpy array / pyarrow Array (with nulls) -> object ndarray."""
    if hasattr(strings, "to_pylist"):  # pyarrow Array / ChunkedArray
        strings = strings.to_pylist()
    arr = np.asarray(strings, dtype=object)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def _encode_arrow_ascii(arr, max_len: int | None):
    """Zero-object fast path: pyarrow string array -> (codes, lengths,
    valid) straight from the UTF-8 data buffer (bytes ARE codepoints when
    the referenced range is pure ASCII). Returns None when the input
    isn't an arrow string array or contains non-ASCII — caller falls back
    to the object-array path. Skips ~8 Python-string materializations per
    value per feature pass at 21M pairs."""
    try:
        import pyarrow as _pa
    except Exception:                                  # pragma: no cover
        return None
    if isinstance(arr, _pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not isinstance(arr, _pa.Array):
        return None
    if _pa.types.is_string(arr.type):
        off_dtype = np.int32
    elif _pa.types.is_large_string(arr.type):
        off_dtype = np.int64
    else:
        return None
    n = len(arr)
    bufs = arr.buffers()                               # [validity, offsets, data]
    if bufs[1] is None:
        return None
    off_all = np.frombuffer(bufs[1], dtype=off_dtype)
    off = off_all[arr.offset:arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None \
        else np.empty(0, np.uint8)
    valid = np.ones(n, dtype=bool)
    if arr.null_count:
        valid = arr.is_valid().to_numpy(zero_copy_only=False).astype(bool)
    lens = off[1:] - off[:-1]
    lens = np.where(valid, lens, 0)
    lo = int(off.min()) if n else 0
    hi = int(off.max()) if n else 0
    if hi > lo and int(data[lo:hi].max()) >= 128:
        return None                                     # non-ASCII: fall back
    L = int(lens.max()) if n else 0
    if max_len is not None:
        L = min(L, max_len)
    take = np.minimum(lens, L)
    if L:                                   # one gather of every (row, pos)
        live = np.arange(L) < take[:, None]
        src = np.where(live, off[:-1, None] + np.arange(L), 0)
        codes = np.where(live, data[src], 0).astype(np.uint32)
    else:
        codes = np.zeros((n, 0), dtype=np.uint32)
    return codes, take.astype(np.int64), valid


def encode(strings, max_len: int | None = None):
    """Decode strings to a codepoint matrix.

    Returns ``(codes, lengths, valid)``:
      codes:   (n, L) uint32, 0-padded codepoints
      lengths: (n,) int64 string lengths (after optional truncation)
      valid:   (n,) bool, False where the input was None/NaN

    pyarrow string arrays take a buffer-level fast path when pure ASCII
    (no per-value Python strings); anything else decodes via the object
    path below.
    """
    fast = _encode_arrow_ascii(strings, max_len)
    if fast is not None:
        return fast
    arr = _as_object_array(strings)
    n = len(arr)
    valid = np.empty(n, dtype=bool)
    filled = np.empty(n, dtype=object)
    for i in range(n):  # null scan + fill only; O(n), no per-char work
        s = arr[i]
        ok = isinstance(s, str)
        valid[i] = ok
        filled[i] = s if ok else ""
    u = np.array(filled.tolist(), dtype="U")  # fixed-width unicode, one copy
    L = u.dtype.itemsize // 4
    if L == 0:
        codes = np.zeros((n, 0), dtype=np.uint32)
    else:
        codes = u.view(np.uint32).reshape(n, L)
    if max_len is not None and codes.shape[1] > max_len:
        codes = np.ascontiguousarray(codes[:, :max_len])
    lengths = (codes != 0).sum(axis=1).astype(np.int64)
    return codes, lengths, valid


# ---------------------------------------------------------------------------
# Row routing and chunking
# ---------------------------------------------------------------------------

# rows per kernel call: inputs are sliced to this many pairs BEFORE decode,
# so the decoded codepoints, the (L2, rows, word) match compare and the
# per-position word vectors stay cache-resident (see _chunk_pairs). Swept
# over 1k-8k rows: 4k and 8k tie on 32-char pairs, 4k is faster on 64-char
# pairs and for soundex, 1k-2k pay per-call overhead
_CHUNK = 4_096
_WORD = 64          # bits per match mask: the longest string a word holds


def _needs_chunk(s1):
    return (not isinstance(s1, str) and hasattr(s1, "__len__")
            and len(s1) > _CHUNK)


def _chunk_pairs(fn, s1, s2):
    """Apply ``fn(s1_chunk, s2_chunk) -> float64[n]`` over ``_CHUNK``-row
    slices, slicing BEFORE decode. Two reasons: (a) the decoded (n, L)
    working set stays cache-resident through the kernel sweeps, and (b)
    each chunk's scratch arrays reuse the same malloc arenas — this
    kernel's page-fault cost on fresh multi-MB anonymous memory is ~100x a
    cached page, so one whole-batch decode of an 80k-row block costs more
    in faults than the entire distance computation (np.repeat of a fresh
    2.8M-int64 array was measured at ~1 s)."""
    n = len(s1)
    return np.concatenate([fn(s1[s:s + _CHUNK], s2[s:s + _CHUNK])
                           for s in range(0, n, _CHUNK)])


def _run_core(bits_core, dp_core, A, la, B, lb, *args) -> np.ndarray:
    """Rows whose two strings fit in one ``_WORD``-bit match mask take the
    bit-parallel ``bits_core``; longer rows (untruncated text) keep the
    per-cell DP ``dp_core``. Both return the same values on the rows they
    share (tests/test_kernels.py checks it)."""
    short = (la <= _WORD) & (lb <= _WORD)
    if short.all():
        return bits_core(A[:, :_WORD], la, B[:, :_WORD], lb, *args)
    out = np.empty(len(la), dtype=np.float64)
    s, g = np.flatnonzero(short), np.flatnonzero(~short)
    out[s] = bits_core(A[s, :_WORD], la[s], B[s, :_WORD], lb[s], *args)
    out[g] = dp_core(A[g], la[g], B[g], lb[g], *args)
    return out


def _match_masks(A, la, B, lb) -> np.ndarray:
    """``(L2, n)`` uint64 match masks: bit ``i`` of ``PM[j, r]`` is set
    where ``A[r, i] == B[r, j]``, for ``i < la[r]`` and ``j < lb[r]``
    (``la, lb <= 64``).

    One broadcast compare of every B position against a word-wide A row,
    packed 8 flags per byte into a ``w``-bit word (``w`` the power of two
    >= L1, at least 8). Codes are compared as uint8 when every codepoint
    fits; the padding on each side takes a value the other never holds."""
    n, L1 = A.shape
    L2 = B.shape[1]
    w = 8
    while w < L1:
        w *= 2
    top = max(int(A.max(initial=0)), int(B.max(initial=0)))
    dt = np.uint8 if top < 0xFE else np.uint32
    no_a = np.iinfo(dt).max
    Ap = np.full((n, w), no_a, dtype=dt)
    Ap[:, :L1] = np.where(np.arange(L1) < la[:, None], A, no_a)
    # C order, so the compare's output is C order and packs without a copy
    Bt = np.ascontiguousarray(
        np.where(np.arange(L2) < lb[:, None], B, no_a - 1).astype(dt).T)
    eq = Bt[:, :, None] == Ap[None, :, :]               # (L2, n, w)
    bits = np.packbits(eq.reshape(-1), bitorder="little")
    return bits.view(f"<u{w // 8}").reshape(L2, n).astype(np.uint64)


# ---------------------------------------------------------------------------
# Jaro / Jaro-Winkler
# ---------------------------------------------------------------------------

_LOW = np.array([(1 << k) - 1 for k in range(_WORD + 1)], dtype=np.uint64)
_ONE = np.uint64(1)


def _jaro_from_counts(m, t, la, lb, int_transpositions: bool):
    """Jaro similarity from match counts ``m`` and half-transposition
    counts ``t`` (both cores share this arithmetic, so they agree to the
    bit). ``int_transpositions=False`` counts half-transpositions as 0.5
    (stringdist parity); ``True`` floors them to integers (rapidfuzz /
    DuckDB ``jaro_winkler_similarity`` parity — they differ whenever the
    matched subsequences form an odd-length mismatch cycle)."""
    out = np.where((la == 0) & (lb == 0), 1.0, 0.0)
    m = m.astype(np.float64)
    has = m > 0
    if has.any():
        t = np.floor(t / 2.0) if int_transpositions else t / 2.0
        la_f = np.where(la == 0, 1, la).astype(np.float64)
        lb_f = np.where(lb == 0, 1, lb).astype(np.float64)
        jaro = (m / la_f + m / lb_f + (m - t) / np.where(has, m, 1.0)) / 3.0
        out = np.where(has, jaro, out)
    return out


def _jaro_bits(A, la, B, lb, int_transpositions: bool = False):
    """Jaro similarity, bit-parallel, for rows with ``la, lb <= 64``.

    Each B position in turn takes the lowest unflagged A bit inside its
    match window (``x & -x`` on the windowed match mask) — the greedy
    matching of ``_jaro_core``, one word op per position instead of a
    sweep over A. Transpositions pair the k-th matched B position with the
    k-th flagged A bit and read the match mask: a clear bit is a mismatch.
    """
    n, L2 = B.shape
    PM = _match_masks(A, la, B, lb)
    md = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    j = np.arange(L2)[:, None]
    lo = np.maximum(j - md, 0)                     # window [lo, hi) over A
    hi = np.minimum(j + md + 1, la)
    window = PM & _LOW[hi] & ~_LOW[lo]
    flagged = np.zeros(n, dtype=np.uint64)
    taken = np.empty((L2, n), dtype=np.uint64)
    for k in range(L2):
        x = window[k] & ~flagged
        x &= -x
        flagged |= x
        taken[k] = x
    matched = taken != 0
    t = np.zeros(n, dtype=np.int64)
    rest = flagged
    for k in range(L2):
        first = rest & -rest
        first *= matched[k]
        t += (PM[k] & first) != first
        rest = rest ^ first
    return _jaro_from_counts(matched.sum(axis=0), t, la, lb,
                             int_transpositions)


def _jaro_core(A, la, B, lb, int_transpositions: bool = False):
    """Jaro similarity by a sweep over every (A, B) position pair,
    vectorized over rows: the path for rows longer than a match word, and
    the reference ``_jaro_bits`` is tested against."""
    n, L1 = A.shape
    L2 = B.shape[1]
    if L1 == 0 or L2 == 0:
        return _jaro_from_counts(np.zeros(n), np.zeros(n), la, lb, False)

    md = np.maximum(np.maximum(la, lb) // 2 - 1, 0)  # match window half-width
    a_matched = np.zeros((n, L1), dtype=bool)
    b_matched = np.zeros((n, L2), dtype=bool)
    for i in range(L1):
        ai = A[:, i]
        active = i < la
        if not active.any():
            continue
        found = np.zeros(n, dtype=bool)
        lo = i - md
        hi = i + md
        for j in range(L2):
            cand = (
                active
                & ~found
                & (j < lb)
                & (j >= lo)
                & (j <= hi)
                & ~b_matched[:, j]
                & (B[:, j] == ai)
            )
            if cand.any():
                b_matched[:, j] |= cand
                found |= cand
        a_matched[:, i] = found

    m = a_matched.sum(axis=1)
    t = np.zeros(n, dtype=np.int64)
    if m.any():
        # gather matched chars in order (scatter by cumulative match rank)
        maxm = int(m.max())
        ka = np.cumsum(a_matched, axis=1) - 1
        kb = np.cumsum(b_matched, axis=1) - 1
        Sa = np.zeros((n, maxm), dtype=np.uint32)
        Sb = np.zeros((n, maxm), dtype=np.uint32)
        r, c = np.nonzero(a_matched)
        Sa[r, ka[r, c]] = A[r, c]
        r, c = np.nonzero(b_matched)
        Sb[r, kb[r, c]] = B[r, c]
        t = ((Sa != Sb) & (np.arange(maxm) < m[:, None])).sum(axis=1)
    return _jaro_from_counts(m, t, la, lb, int_transpositions)


def _common_prefix_len(A, la, B, lb, cap=4):
    n = A.shape[0]
    L = min(A.shape[1], B.shape[1], cap)
    if L == 0:
        return np.zeros(n, dtype=np.int64)
    eq = (A[:, :L] == B[:, :L]) & (A[:, :L] != 0)
    # prefix run: cumulative AND
    run = np.cumprod(eq, axis=1).astype(bool)
    return run.sum(axis=1).astype(np.int64)


def jaro_sim(s1, s2, max_len: int | None = None,
             int_transpositions: bool = False) -> np.ndarray:
    """Pairwise Jaro similarity. Null in -> NaN out."""
    if _needs_chunk(s1):
        return _chunk_pairs(
            lambda a, b: jaro_sim(a, b, max_len, int_transpositions), s1, s2)
    A, la, v1 = encode(s1, max_len)
    B, lb, v2 = encode(s2, max_len)
    sim = _run_core(_jaro_bits, _jaro_core, A, la, B, lb, int_transpositions)
    sim[~(v1 & v2)] = np.nan
    return sim


def jaro_winkler_sim(s1, s2, p: float = 0.1, bt: float = 0.0,
                     max_len: int | None = None,
                     int_transpositions: bool = False) -> np.ndarray:
    """Pairwise Jaro-Winkler similarity.

    ``p`` is the Winkler prefix weight (stringdist default 0.1 in the
    reference's distcalc); ``bt`` the boost threshold (stringdist default 0:
    boost always applied; set 0.7 for the classic Winkler / DuckDB variant).
    """
    if _needs_chunk(s1):
        return _chunk_pairs(
            lambda a, b: jaro_winkler_sim(a, b, p=p, bt=bt, max_len=max_len,
                                          int_transpositions=int_transpositions),
            s1, s2)
    A, la, v1 = encode(s1, max_len)
    B, lb, v2 = encode(s2, max_len)
    sim = _run_core(_jaro_bits, _jaro_core, A, la, B, lb, int_transpositions)
    if p > 0:
        ell = _common_prefix_len(A, la, B, lb).astype(np.float64)
        boosted = sim + ell * p * (1.0 - sim)
        sim = np.where(sim > bt, boosted, sim)
    sim[~(v1 & v2)] = np.nan
    return sim


def jw_dist(s1, s2, p: float = 0.1, bt: float = 0.0,
            max_len: int | None = None) -> np.ndarray:
    """stringdist(method='jw', p=p) parity: distance = 1 - JW similarity."""
    return 1.0 - jaro_winkler_sim(s1, s2, p=p, bt=bt, max_len=max_len)


# ---------------------------------------------------------------------------
# OSA / Levenshtein
# ---------------------------------------------------------------------------

def _edit_bits(A, la, B, lb, transpositions: bool):
    """Levenshtein (``transpositions=False``) or OSA distance, bit-parallel,
    for rows with ``la, lb <= 64``: Myers' (1999) bit-vector recurrence
    over B's positions, plus Hyyrö's (2003) transposition term ``tr`` for
    OSA. Each step moves the distance by the horizontal delta at A's last
    bit; a row's distance is read at ``j == lb - 1``."""
    n, L2 = B.shape
    PM = _match_masks(A, la, B, lb)
    vp = np.full(n, ~np.uint64(0))
    vn = np.zeros(n, dtype=np.uint64)
    d0 = np.zeros(n, dtype=np.uint64)
    prev_eq = d0
    last = _LOW[la] ^ _LOW[np.maximum(la - 1, 0)]    # bit la - 1; 0 if la == 0
    dist = la.astype(np.int64)
    out = dist.copy()                                  # lb == 0: la
    for j in range(L2):
        eq = PM[j]
        if transpositions:
            tr = ((~d0 & eq) << _ONE) & prev_eq
            prev_eq = eq
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        if transpositions:
            d0 |= tr
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        dist += (hp & last) != 0
        dist -= (hn & last) != 0
        np.copyto(out, dist, where=lb == j + 1)
        hp = (hp << _ONE) | _ONE
        hn <<= _ONE
        vp = hn | ~(d0 | hp)
        vn = hp & d0
    return np.where(la == 0, lb, out).astype(np.float64)


def _edit_core(A, la, B, lb, transpositions: bool):
    """Levenshtein / OSA distance by the per-cell DP, vectorized over rows:
    the path for rows longer than a match word, and the reference
    ``_edit_bits`` is tested against."""
    n, L1 = A.shape
    L2 = B.shape[1]
    ans = np.where(la == 0, lb, -1).astype(np.int64)
    if L1 == 0:
        return np.where(la == 0, lb, la).astype(np.float64)
    # int32 DP rows: distances are bounded by the string lengths
    prev = np.broadcast_to(np.arange(L2 + 1, dtype=np.int32), (n, L2 + 1)).copy()
    prev2 = None
    for i in range(1, L1 + 1):
        cur = np.empty((n, L2 + 1), dtype=np.int32)
        cur[:, 0] = i
        ai = A[:, i - 1]
        for j in range(1, L2 + 1):
            cost = (ai != B[:, j - 1]).astype(np.int32)
            best = np.minimum(
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                prev[:, j - 1] + cost,
            )
            if transpositions and i > 1 and j > 1:
                tr = (ai == B[:, j - 2]) & (A[:, i - 2] == B[:, j - 1])
                best = np.where(tr, np.minimum(best, prev2[:, j - 2] + 1), best)
            cur[:, j] = best
        done = la == i
        if done.any():
            ans[done] = cur[done, lb[done]]
        prev2, prev = prev, cur
    return ans.astype(np.float64)


def _edit_dist(s1, s2, max_len, transpositions: bool):
    """(distance, la, lb, valid) of aligned string pairs."""
    A, la, v1 = encode(s1, max_len)
    B, lb, v2 = encode(s2, max_len)
    d = _run_core(_edit_bits, _edit_core, A, la, B, lb, transpositions)
    return d, la, lb, v1 & v2


def osa_dist(s1, s2, max_len: int | None = None) -> np.ndarray:
    """Optimal-string-alignment (restricted Damerau-Levenshtein) distance.

    Parity target: stringdist(method='osa'). Null -> NaN.
    """
    if _needs_chunk(s1):
        return _chunk_pairs(lambda a, b: osa_dist(a, b, max_len), s1, s2)
    d, _, _, valid = _edit_dist(s1, s2, max_len, True)
    d[~valid] = np.nan
    return d


def levenshtein_dist(s1, s2, max_len: int | None = None) -> np.ndarray:
    if _needs_chunk(s1):
        return _chunk_pairs(lambda a, b: levenshtein_dist(a, b, max_len),
                            s1, s2)
    d, _, _, valid = _edit_dist(s1, s2, max_len, False)
    d[~valid] = np.nan
    return d


def osa_sim(s1, s2, max_len: int | None = None) -> np.ndarray:
    """stringsim(method='osa') parity: 1 - d / max(len1, len2); 1.0 when both empty."""
    if _needs_chunk(s1):
        return _chunk_pairs(lambda a, b: osa_sim(a, b, max_len), s1, s2)
    d, la, lb, valid = _edit_dist(s1, s2, max_len, True)
    mx = np.maximum(la, lb).astype(np.float64)
    sim = np.where(mx > 0, 1.0 - d / np.where(mx > 0, mx, 1.0), 1.0)
    sim[~valid] = np.nan
    return sim


# ---------------------------------------------------------------------------
# American Soundex
# ---------------------------------------------------------------------------

_SDX = np.zeros(128, dtype=np.int8)  # 0 = vowel-ish (resets prev), -1 = ignore (h/w)
for _chars, _code in (
    ("BFPV", 1), ("CGJKQSXZ", 2), ("DT", 3), ("L", 4), ("MN", 5), ("R", 6),
):
    for _c in _chars:
        _SDX[ord(_c)] = _code
for _c in "HW":
    _SDX[ord(_c)] = -1
# AEIOUY stay 0


def _soundex_code_matrix(strings):
    """(n, 4) uint32 soundex code matrix + (valid, nlet) — the numeric form
    shared by ``soundex`` (string assembly) and ``soundex_dist`` (pure
    matrix equality, no per-row string building). Chunked like the DP
    kernels: the compaction scatter + position loop sweep (n, L) arrays
    that must stay cache-resident. Slicing happens BEFORE decode so
    pyarrow inputs keep the buffer-level encode fast path."""
    n = len(strings)
    if n > _CHUNK:
        outs = [_soundex_code_matrix(strings[s:s + _CHUNK])
                for s in range(0, n, _CHUNK)]
        return (np.concatenate([o[0] for o in outs]),
                np.concatenate([o[1] for o in outs]),
                np.concatenate([o[2] for o in outs]))
    codes, lengths, valid = encode(strings)
    n, L = codes.shape
    # uppercase ASCII letters only
    up = np.where((codes >= 97) & (codes <= 122), codes - 32, codes)
    is_letter = (up >= 65) & (up <= 90)
    # compact letters left (drop non-letters) via cumsum scatter
    if L:
        pos = np.cumsum(is_letter, axis=1) - 1
        letters = np.zeros_like(up)
        r, c = np.nonzero(is_letter)
        letters[r, pos[r, c]] = up[r, c]
    else:
        letters = up
    nlet = is_letter.sum(axis=1)

    out_chars = np.zeros((n, 4), dtype=np.uint32)
    out_chars[:, 1:] = ord("0")
    has = nlet > 0
    if L and has.any():
        first = letters[:, 0]
        out_chars[has, 0] = first[has]
        scode = _SDX[np.clip(first, 0, 127)]
        prev = np.where(has, scode, np.int8(0))  # code of last significant letter
        slot = np.ones(n, dtype=np.int64)
        for i in range(1, L):
            c = letters[:, i]
            live = has & (c != 0)
            if not live.any():
                break
            code = _SDX[np.clip(c, 0, 127)]
            emit = live & (code > 0) & (code != prev) & (slot < 4)
            if emit.any():
                r = np.nonzero(emit)[0]
                out_chars[r, slot[r]] = code[r] + ord("0")
                slot[r] += 1
            # update prev: digits set it, vowels (0) reset it, h/w (-1) keep it
            prev = np.where(live & (code >= 0), code, prev)
    return out_chars, valid, nlet


def soundex(strings) -> np.ndarray:
    """American Soundex codes (classic rules: h/w transparent, vowels reset).

    Non-letters are stripped; empty / null input -> None. Vectorized over
    rows: the loops run over character positions only."""
    out_chars, valid, nlet = _soundex_code_matrix(strings)
    n = len(valid)
    view = out_chars.view(dtype="U4").reshape(n)
    result = np.empty(n, dtype=object)
    for i in range(n):
        result[i] = view[i] if (valid[i] and nlet[i] > 0) else ("" if valid[i] else None)
    return result


def soundex_dist(s1, s2) -> np.ndarray:
    """stringdist(method='soundex') parity: 0.0 if codes equal else 1.0; null -> NaN."""
    m1, v1, n1 = _soundex_code_matrix(s1)
    m2, v2, n2 = _soundex_code_matrix(s2)
    # '' (no letters) encodes as the all-zero-slot row, distinct from any
    # lettered code — matrix equality reproduces string-code equality,
    # but nlet must agree so '' != a one-vowel letter code... both encode
    # first letter, so (matrix, nlet>0) together are injective
    eq = (m1 == m2).all(axis=1) & ((n1 > 0) == (n2 > 0))
    out = (~eq).astype(np.float64)
    out[~(v1 & v2)] = np.nan
    return out


# ---------------------------------------------------------------------------
# Character-bigram cosine (qlcMatrix::sim.strings parity, '#' boundaries)
# ---------------------------------------------------------------------------

def _bigram_counts(strings, boundary=True):
    """Per-string dict of bigram -> count. Driver-side / per-distinct-key use;
    the dataset-scale path is the inverted-index join in stages/blocking.py."""
    arr = _as_object_array(strings)
    out = []
    for s in arr:
        if not isinstance(s, str):
            out.append(None)
            continue
        t = f"#{s}#" if boundary else s
        d: dict[str, int] = {}
        for k in range(len(t) - 1):
            bg = t[k:k + 2]
            d[bg] = d.get(bg, 0) + 1
        out.append(d)
    return out


def _cos(d1, d2) -> float:
    if d1 is None or d2 is None:
        return np.nan
    if not d1 or not d2:
        return 1.0 if d1 == d2 else 0.0
    dot = sum(v * d2.get(k, 0) for k, v in d1.items())
    n1 = np.sqrt(sum(v * v for v in d1.values()))
    n2 = np.sqrt(sum(v * v for v in d2.values()))
    return dot / (n1 * n2)


def bigram_cosine_pairs(s1, s2, boundary=True) -> np.ndarray:
    """Aligned pairwise bigram cosine similarity."""
    c1 = _bigram_counts(s1, boundary)
    c2 = _bigram_counts(s2, boundary)
    return np.array([_cos(a, b) for a, b in zip(c1, c2)], dtype=np.float64)


def bigram_cosine_matrix(from_strings, to_strings, boundary=True,
                         idf: bool = False) -> np.ndarray:
    """Dense (n_from, n_to) bigram cosine matrix.

    Parity target: qlcMatrix::sim.strings(boundary='#')
    [/root/reference/R/candidates.R:82-96] and the idf-weighted variant
    [candidates.R:97-112] (idf weight = log(N/df) over the combined string
    set, matching qlcMatrix::idf). Small-side / fixture use only — the
    distributed blocker never materializes this matrix.
    """
    cf = _bigram_counts(from_strings, boundary)
    ct = _bigram_counts(to_strings, boundary)
    vocab: dict[str, int] = {}
    for d in cf + ct:
        if d:
            for k in d:
                vocab.setdefault(k, len(vocab))
    nf, nt, V = len(cf), len(ct), max(len(vocab), 1)

    def mat(cs, n):
        M = np.zeros((n, V), dtype=np.float64)
        for i, d in enumerate(cs):
            if d:
                for k, v in d.items():
                    M[i, vocab[k]] = v
        return M

    F = mat(cf, nf)
    T = mat(ct, nt)
    if idf:
        df = (np.vstack([F, T]) > 0).sum(axis=0).astype(np.float64)
        w = np.log((nf + nt) / np.where(df > 0, df, 1.0))
        F = F * w
        T = T * w
    fn = np.linalg.norm(F, axis=1, keepdims=True)
    tn = np.linalg.norm(T, axis=1, keepdims=True)
    sim = (F @ T.T) / (np.where(fn == 0, 1, fn) * np.where(tn == 0, 1, tn).T)
    for i, d in enumerate(cf):
        if d is None:
            sim[i, :] = np.nan
    for j, d in enumerate(ct):
        if d is None:
            sim[:, j] = np.nan
    return sim


# ---------------------------------------------------------------------------
# Token Jaccard
# ---------------------------------------------------------------------------

def token_jaccard(s1, s2, sep: str | None = None) -> np.ndarray:
    """Jaccard similarity of token sets. Short-signature columns only (role /
    tool signatures); the vectorized fast path for those is mask_jaccard."""
    a1 = _as_object_array(s1)
    a2 = _as_object_array(s2)
    out = np.empty(len(a1), dtype=np.float64)
    for i in range(len(a1)):
        x, y = a1[i], a2[i]
        if not isinstance(x, str) or not isinstance(y, str):
            out[i] = np.nan
            continue
        sx = set(x.split(sep)) - {""}
        sy = set(y.split(sep)) - {""}
        if not sx and not sy:
            out[i] = 1.0
        else:
            out[i] = len(sx & sy) / len(sx | sy)
    return out


_POPCNT = np.array([bin(i).count("1") for i in range(65536)], dtype=np.int64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (0, 16, 32, 48):
        out += _POPCNT[((x >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.int64)]
    return out


def mask_jaccard(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Jaccard over 64-bit set bitmasks (vocab-encoded tool/role sets).

    Fully vectorized; empty-vs-empty -> 1.0. Negative mask means null -> NaN.
    """
    m1 = np.asarray(m1, dtype=np.int64)
    m2 = np.asarray(m2, dtype=np.int64)
    null = (m1 < 0) | (m2 < 0)
    inter = _popcount64(np.where(null, 0, m1 & m2))
    union = _popcount64(np.where(null, 0, m1 | m2))
    out = np.where(union > 0, inter / np.where(union > 0, union, 1), 1.0)
    return np.where(null, np.nan, out)
