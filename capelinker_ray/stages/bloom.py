"""Bloom-filter membership pre-filtering for big-side anti joins.

At 100 TB the dominant cost of "which keys are NOT in the frozen
snapshot" (incremental-ingest dedup, retention deletes, decontamination
by id) is shuffling the BIG probe side through an exact anti join. A
Bloom filter built over the SMALL side's keys is a fixed-size bit array
with zero false negatives: broadcast once via ``ray.put``, every probe
batch drops its definite-misses locally, and only the maybe-present
sliver (true hits + the fpp·N false positives) pays the exact-join
shuffle. The final result stays EXACT — maybes are settled by the
engine's hash anti join — the bloom only shrinks the shuffle.

Bloom filter: Bloom, CACM 13(7) 1970. Double hashing h_i = h1 + i·h2
(mod m) per Kirsch & Mitzenmacher, ESA'06 — two 64-bit hashes serve any
``num_hashes``. Partials are per-batch bit arrays (fixed size regardless
of rows) merged by OR, so the build is one streaming pass; the reference
engine has no analog (its `%in%` membership is a driver-side vector —
capelinker R/helpers semantics generalised to the distributed case).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from .dedup import _splitmix64
from .textstats import fnv1a_64

__all__ = ["BloomFilter", "bloom_build", "bloom_anti_join",
           "bloom_semi_join"]

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _key_hash(vals: np.ndarray) -> np.ndarray:
    """Canonicalizing uint64 key hash: the SAME key value must hash
    identically whatever pandas dtype Ray's Arrow->pandas conversion
    picked for the batch (int64, float64-with-NaN for nullable ints, or
    object). Integral numerics hash through the int64 path; non-integral
    floats through their bit pattern; strings/other through FNV."""
    v = vals
    if v.dtype.kind == "M":
        v = v.view("int64")
    if v.dtype.kind == "O":
        try:
            v = v.astype(np.float64)
        except (ValueError, TypeError):
            return _splitmix64(fnv1a_64(
                [x if isinstance(x, str) else repr(x) for x in v]))
    if v.dtype.kind in "iub":
        return _splitmix64(v.astype(np.int64).astype(np.uint64))
    if v.dtype.kind == "f":
        out = _splitmix64(v.view(np.uint64))
        with np.errstate(invalid="ignore"):
            integral = (np.floor(v) == v) & (np.abs(v) < 2.0 ** 63)
        if integral.any():
            out[integral] = _splitmix64(
                v[integral].astype(np.int64).astype(np.uint64))
        return out
    return _splitmix64(fnv1a_64([repr(x) for x in v]))


class BloomFilter:
    """m-bit / k-hash Bloom filter over uint64 words. ``contains`` has no
    false negatives; false-positive rate ≈ (1 - e^(-k·n/m))^k. Merge of
    same-shape filters = bitwise OR (associative), so per-batch partials
    reduce in one pass."""

    def __init__(self, num_bits: int, num_hashes: int, seed: int = 0,
                 words: np.ndarray | None = None):
        num_bits = max(64, int(num_bits))
        self.num_words = (num_bits + 63) // 64
        self.num_bits = self.num_words * 64
        self.num_hashes = int(num_hashes)
        self.seed = seed
        self.words = (np.zeros(self.num_words, np.uint64)
                      if words is None else words)

    @staticmethod
    def size_for(expected: int, fpp: float) -> tuple[int, int]:
        """Optimal (num_bits, num_hashes) for ``expected`` keys at target
        false-positive probability ``fpp``."""
        expected = max(1, int(expected))
        if not 0 < fpp < 1:
            raise ValueError("fpp must be in (0, 1)")
        m = int(math.ceil(-expected * math.log(fpp) / (math.log(2) ** 2)))
        k = max(1, round(m / expected * math.log(2)))
        return m, int(k)

    def _positions(self, hashed: np.ndarray) -> np.ndarray:
        """(num_hashes, n) bit positions via double hashing; h2 forced odd
        so the stride never degenerates."""
        h1 = hashed
        # the seed's wrapped product in Python ints: a uint64 scalar
        # multiply would warn on the (intended) overflow
        salt = np.uint64(self.seed * 0x9E3779B97F4A7C15 % (1 << 64))
        h2 = _splitmix64(hashed ^ salt) | np.uint64(1)
        m = np.uint64(self.num_bits)
        return np.stack([((h1 + np.uint64(i) * h2) & _MASK64) % m
                         for i in range(self.num_hashes)])

    def add_hashed(self, hashed: np.ndarray) -> None:
        pos = self._positions(hashed).ravel()
        np.bitwise_or.at(self.words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))

    def contains_hashed(self, hashed: np.ndarray) -> np.ndarray:
        """Boolean maybe-present mask (False is definitive)."""
        pos = self._positions(hashed)
        hit = np.ones(pos.shape[1], dtype=bool)
        for i in range(self.num_hashes):     # k is ~7: bounded loop
            p = pos[i]
            bit = (self.words[(p >> np.uint64(6)).astype(np.int64)]
                   >> (p & np.uint64(63))) & np.uint64(1)
            hit &= bit.astype(bool)
        return hit

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (other.num_bits, other.num_hashes, other.seed) != (
                self.num_bits, self.num_hashes, self.seed):
            raise ValueError("merging differently-shaped bloom filters")
        return BloomFilter(self.num_bits, self.num_hashes, self.seed,
                           self.words | other.words)


def bloom_build(ds, col: str, *, expected: int | None = None,
                fpp: float = 0.01, num_bits: int | None = None,
                num_hashes: int | None = None,
                seed: int = 0) -> BloomFilter:
    """Build a Bloom filter over ``ds[col]`` in one streaming pass:
    per-batch bit-array partials (fixed ``num_bits/8`` bytes each,
    regardless of rows) OR-merged as they arrive. Size explicitly via
    ``num_bits``/``num_hashes`` or let ``expected``+``fpp`` pick the
    optimum; ``expected`` falls back to ``ds.count()`` (a metadata count
    for parquet reads). Nulls are skipped (SQL join semantics: null keys
    never match)."""
    if num_bits is None or num_hashes is None:
        if expected is None:
            expected = ds.count()
        ob, ok = BloomFilter.size_for(expected, fpp)
        num_bits = num_bits if num_bits is not None else ob
        num_hashes = num_hashes if num_hashes is not None else ok
    proto = BloomFilter(num_bits, num_hashes, seed)
    shape = (proto.num_bits, proto.num_hashes)

    word_bytes = proto.num_words * 8

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].dropna().to_numpy()
        h = np.unique(_key_hash(v)) if len(v) else np.empty(0, np.uint64)
        # adaptive partial: a sparse batch ships its distinct key hashes
        # (8 B/key); a dense one ships the bit array (m/8 B). At a 10^9-key
        # filter the bit array is ~GBs — per-BATCH bit-array partials
        # would push batches x m/8 through the object store, while hashed
        # keys total 8 x N_distinct bytes streamed.
        if h.nbytes < word_bytes:
            return pd.DataFrame({"_kind": ["h"], "_data": [h.tobytes()]})
        bf = BloomFilter(shape[0], shape[1], seed)
        bf.add_hashed(h)
        return pd.DataFrame({"_kind": ["w"], "_data": [bf.words.tobytes()]})

    parts = ds.map_batches(partial, batch_format="pandas")
    for row in parts.iter_rows():            # streamed, bounded per batch
        if row["_kind"] == "w":
            proto.words |= np.frombuffer(row["_data"], dtype=np.uint64)
        else:
            proto.add_hashed(np.frombuffer(row["_data"], dtype=np.uint64))
    return proto


def _bloom_route(left, bf: BloomFilter, on: str, want_maybe: bool):
    """One vectorized pass emitting either the definite-misses or the
    maybe-hits of ``left`` against the broadcast filter. Null keys count
    as misses (they can never match a key)."""
    import ray

    from .grouped import typed_or_empty

    bf_ref = ray.put((bf.num_bits, bf.num_hashes, bf.seed, bf.words))

    def route(df: pd.DataFrame) -> pd.DataFrame:
        nb, nh, sd, words = ray.get(bf_ref)
        bloom = BloomFilter(nb, nh, sd, words)
        v = df[on].to_numpy()
        notnull = df[on].notna().to_numpy()
        maybe = np.zeros(len(df), dtype=bool)
        if notnull.any():
            maybe[notnull] = bloom.contains_hashed(
                _key_hash(v[notnull]))
        return typed_or_empty(df[maybe if want_maybe else ~maybe])

    return left.map_batches(route, batch_format="pandas")


def bloom_anti_join(left, right, *, on: str, right_on: str | None = None,
                    fpp: float = 0.01, expected: int | None = None,
                    seed: int = 0):
    """EXACT anti join (left rows whose key appears nowhere in ``right``)
    with a Bloom pre-filter: only the maybe-present sliver of ``left``
    (true hits + ~fpp of the rest) enters the hash-anti-join shuffle;
    definite-misses — the bulk of an incremental-ingest probe — bypass it
    entirely. False positives cost shuffle bytes, never correctness.

    ``left`` is consumed twice (miss pass + maybe pass); with a
    parquet-backed left that is two column-pruned scans, which at 100 TB
    is far cheaper than shuffling the full probe side. Pin upstream work
    first if ``left`` is an expensive derived plan."""
    from .join import hash_join

    right_on = on if right_on is None else right_on
    keys = right.select_columns([right_on])
    bf = bloom_build(keys, right_on, expected=expected, fpp=fpp, seed=seed)
    misses = _bloom_route(left, bf, on, want_maybe=False)
    maybes = _bloom_route(left, bf, on, want_maybe=True)
    settled = hash_join(maybes, keys, on=on, right_on=right_on, how="anti")
    return misses.union(settled)


def bloom_semi_join(left, right, *, on: str, right_on: str | None = None,
                    fpp: float = 0.01, expected: int | None = None,
                    seed: int = 0):
    """EXACT semi join (left rows whose key IS in ``right``): bloom
    definite-misses are dropped batch-locally, maybes settled by the hash
    semi join — one pass over ``left``."""
    from .join import hash_join

    right_on = on if right_on is None else right_on
    keys = right.select_columns([right_on])
    bf = bloom_build(keys, right_on, expected=expected, fpp=fpp, seed=seed)
    maybes = _bloom_route(left, bf, on, want_maybe=True)
    return hash_join(maybes, keys, on=on, right_on=right_on, how="semi")
