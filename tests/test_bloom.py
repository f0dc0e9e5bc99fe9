"""Bloom filter + bloom-prefiltered exact joins (stages/bloom.py)."""

import warnings

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from capelinker_ray.stages import grouped, join
from capelinker_ray.stages.bloom import (BloomFilter, _key_hash, _MASK64,
                                         _splitmix64, bloom_anti_join,
                                         bloom_build, bloom_semi_join)


@pytest.fixture
def four_reducers(monkeypatch):
    """Force hash_join's shuffle path at a pinned width of 4 reducers."""
    monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    monkeypatch.setattr(grouped, "shuffle_width", lambda n, cap=None: 4)


def test_bloom_no_false_negatives_and_low_fpp():
    keys = np.arange(1000, dtype=np.int64) * 7 + 3
    m, k = BloomFilter.size_for(1000, 0.01)
    bf = BloomFilter(m, k, seed=1)
    from capelinker_ray.stages.bloom import _key_hash as _hash_column
    bf.add_hashed(_hash_column(keys))
    assert bf.contains_hashed(_hash_column(keys)).all()   # no false negs
    absent = np.arange(1000, dtype=np.int64) * 7 + 4      # disjoint
    fp = bf.contains_hashed(_hash_column(absent)).mean()
    assert fp < 0.05                                      # ~1% target


@pytest.mark.parametrize("seed", [0, 1, 3, 2**63 + 12345, 2**64 - 1])
def test_bloom_positions_silent_and_wrapped(seed):
    """The seed salt is the uint64 product wrapped mod 2^64, computed
    without NumPy's scalar-overflow warning; positions stay bit-identical
    to the wrapped uint64 formula."""
    bf = BloomFilter(1 << 20, 7, seed=seed)
    hashed = _key_hash(np.arange(50, dtype=np.int64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos = bf._positions(hashed)
    with np.errstate(over="ignore"):
        salt = np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15) & _MASK64
        h2 = _splitmix64(hashed ^ salt) | np.uint64(1)
        expect = np.stack([((hashed + np.uint64(i) * h2) & _MASK64)
                           % np.uint64(1 << 20) for i in range(7)])
    assert pos.dtype == np.uint64
    assert (pos == expect).all()


def test_bloom_build_partials_or_merge(ray_session):
    df = pd.DataFrame({"k": np.arange(500, dtype=np.int64)})
    whole = bloom_build(rd.from_pandas(df), "k", expected=500, seed=3)
    parts = bloom_build(rd.from_pandas(df).repartition(7), "k",
                        expected=500, seed=3)
    assert (whole.words == parts.words).all()             # OR is exact


def test_bloom_anti_join_exact_even_with_forced_fpp(ray_session,
                                                    four_reducers):
    rng = np.random.default_rng(4)
    left = pd.DataFrame({"k": rng.integers(0, 1000, 5000).astype(np.int64),
                         "v": np.arange(5000, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(0, 1000, 3, dtype=np.int64)})
    # num_bits=64 forces massive false positives; result must stay exact
    out = bloom_anti_join(rd.from_pandas(left).repartition(4),
                          rd.from_pandas(right), on="k",
                          expected=len(right)).to_pandas()
    expect = left[~left["k"].isin(set(right["k"]))]
    assert len(out) == len(expect)
    assert set(out["v"]) == set(expect["v"])

    tiny = bloom_anti_join(rd.from_pandas(left), rd.from_pandas(right),
                           on="k", expected=1,
                           fpp=0.5).to_pandas()
    assert set(tiny["v"]) == set(expect["v"])


def test_bloom_anti_join_null_keys_kept(ray_session):
    left = pd.DataFrame({"k": pd.array([1, None, 2, None], dtype="Int64"),
                         "v": [0, 1, 2, 3]})
    right = pd.DataFrame({"k": pd.array([1, None], dtype="Int64")})
    out = bloom_anti_join(rd.from_pandas(left), rd.from_pandas(right),
                          on="k", expected=2).to_pandas()
    # SQL NOT EXISTS: null left keys never match -> retained
    assert set(out["v"]) == {1, 2, 3}


def test_bloom_semi_join_matches_exact(ray_session, four_reducers):
    rng = np.random.default_rng(9)
    left = pd.DataFrame({"k": rng.integers(0, 200, 2000).astype(np.int64),
                         "v": np.arange(2000, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(0, 200, 5, dtype=np.int64)})
    out = bloom_semi_join(rd.from_pandas(left).repartition(3),
                          rd.from_pandas(right), on="k").to_pandas()
    expect = left[left["k"].isin(set(right["k"]))]
    assert set(out["v"]) == set(expect["v"])


def test_bloom_size_for_sanity():
    m, k = BloomFilter.size_for(10_000, 0.01)
    assert 9 * 10_000 < m < 11 * 10_000      # ~9.6 bits/key at 1%
    assert 6 <= k <= 8
    with pytest.raises(ValueError):
        BloomFilter.size_for(10, 1.5)


def test_key_hash_dtype_canonicalization():
    # Ray's Arrow->pandas conversion may hand the same key column back as
    # int64, float64-with-NaN, or object — all must hash identically
    from capelinker_ray.stages.bloom import _key_hash
    ints = np.array([1, 2, 300], dtype=np.int64)
    floats = ints.astype(np.float64)
    objs = np.array([1, 2, 300], dtype=object)
    assert (_key_hash(ints) == _key_hash(floats)).all()
    assert (_key_hash(ints) == _key_hash(objs)).all()
    # non-integral floats keep their own identity
    a, b = _key_hash(np.array([1.5])), _key_hash(np.array([1.5]))
    assert a == b and a != _key_hash(np.array([1.0]))


@pytest.mark.parametrize("shuffle", [False, True])
def test_bloom_anti_join_one_column_order(ray_session, monkeypatch, shuffle):
    """Both branches of the union (definite misses and the settled maybes)
    are non-empty; every output block keeps the input's columns in the
    input's order, the key not first."""
    if shuffle:
        monkeypatch.setattr(join, "BROADCAST_MAX_BYTES", 0)
    left = pd.DataFrame({"v": np.arange(400, dtype=np.int64),
                         "k": np.arange(400, dtype=np.int64) % 50,
                         "w": np.arange(400, dtype=np.float64)})
    right = pd.DataFrame({"k": np.arange(0, 50, 2, dtype=np.int64)})
    out = bloom_anti_join(rd.from_pandas(left).repartition(4),
                          rd.from_pandas(right), on="k", expected=25,
                          fpp=0.3)
    import ray
    blocks = [b for b in ray.get(out.to_arrow_refs()) if len(b)]
    assert len(blocks) >= 2
    assert all(b.column_names == ["v", "k", "w"] for b in blocks), \
        [b.column_names for b in blocks]
    got = pd.concat([b.to_pandas() for b in blocks])
    assert set(got["v"]) == set(left.loc[left["k"] % 2 == 1, "v"])
