"""Round-5 operators: rank windows, robust scaling, table fingerprint,
n-gram containment, epoch shuffle, compression ratio, Arrow IPC I/O."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd


def test_grouped_rank_ties_and_nulls(ray_session):
    from capelinker_ray.stages.scan import grouped_rank
    df = pd.DataFrame({
        "k": ["a", "a", "a", "a", "b", "b"],
        "v": [3.0, 3.0, 1.0, np.nan, 2.0, 5.0],
        "id": [1, 2, 3, 4, 5, 6]})
    out = (grouped_rank(rd.from_pandas(df).repartition(3), "k", "v",
                        ascending=False)
           .to_pandas().set_index("id").sort_index())
    # group a DESC: 3.0,3.0 -> rank 1,1; 1.0 -> rank 3 dense 2; NaN last
    assert list(out.loc[[1, 2], "rank"]) == [1, 1]
    assert list(out.loc[[1, 2], "dense_rank"]) == [1, 1]
    assert out.loc[3, "rank"] == 3 and out.loc[3, "dense_rank"] == 2
    assert out.loc[4, "rank"] == 4 and out.loc[4, "dense_rank"] == 3
    assert out.loc[5, "rank"] == 2 and out.loc[6, "rank"] == 1


def test_grouped_robust_scale_matches_numpy(ray_session):
    from capelinker_ray.stages.scan import grouped_robust_scale
    rng = np.random.default_rng(7)
    df = pd.DataFrame({"g": rng.choice(["x", "y", "z"], 200),
                       "v": rng.normal(50, 10, 200).round(2),
                       "id": np.arange(200)})
    df.loc[5, "v"] = np.nan
    out = (grouped_robust_scale(rd.from_pandas(df).repartition(7),
                                "g", "v")
           .to_pandas().set_index("id").sort_index())
    for g, grp in df.groupby("g"):
        vals = grp["v"].dropna().to_numpy()
        q1, med, q3 = np.percentile(vals, [25, 50, 75])  # linear interp
        iqr = q3 - q1
        for i, v in zip(grp["id"], grp["v"]):
            got = out.loc[i, "robust_z"]
            if np.isnan(v):
                assert np.isnan(got)
            else:
                want = (v - med) / iqr if iqr > 0 else 0.0
                assert abs(got - want) < 1e-9, (g, i)


def test_table_fingerprint_order_independent_and_sensitive(ray_session):
    from capelinker_ray.stages.agg import table_fingerprint
    rng = np.random.default_rng(11)
    df = pd.DataFrame({"k": np.arange(5000, dtype=np.int64),
                       "m": rng.integers(0, 1000, 5000)})
    a = (table_fingerprint(rd.from_pandas(df).repartition(4), "k", "m")
         .to_pandas().sort_values("bucket").reset_index(drop=True))
    shuffled = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
    b = (table_fingerprint(rd.from_pandas(shuffled).repartition(9),
                           "k", "m")
         .to_pandas().sort_values("bucket").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)          # order/partition invariant
    assert len(a) == 64 and a["n"].sum() == 5000
    # single-row change flips exactly that key's bucket
    df2 = df.copy()
    df2.loc[123, "m"] += 1
    c = (table_fingerprint(rd.from_pandas(df2), "k", "m")
         .to_pandas().sort_values("bucket").reset_index(drop=True))
    diff = a["fp"].to_numpy() != c["fp"].to_numpy()
    assert diff.sum() == 1
    assert a.loc[diff, "bucket"].iloc[0] == 123 % 64


def test_ngram_containment_subset_doc(ray_session):
    from capelinker_ray.stages.dedup import ngram_containment_pairs
    short = "the quick brown fox jumps over the lazy dog"
    long = "PREFIX " + short + " SUFFIX tail of unrelated material here"
    other = "completely different content with nothing shared at all ok"
    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": [short, long, other]})
    out = (ngram_containment_pairs(rd.from_pandas(df), n=5, threshold=0.8)
           .to_pandas())
    pairs = set(map(tuple, out[["id_from", "id_to"]].to_numpy()))
    assert (1, 2) in pairs                 # short contained in long
    assert (2, 1) not in pairs             # long NOT contained in short
    assert not any(3 in p for p in pairs)
    c = out.set_index(["id_from", "id_to"]).loc[(1, 2), "containment"]
    assert c > 0.9


def test_epoch_shuffle_permutation_and_determinism(ray_session):
    from capelinker_ray.stages.sampling import epoch_shuffle
    df = pd.DataFrame({"doc_id": np.arange(1000, dtype=np.int64)})
    a = (epoch_shuffle(rd.from_pandas(df).repartition(5), "doc_id", 1)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (epoch_shuffle(rd.from_pandas(df).repartition(2), "doc_id", 1)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)          # deterministic
    assert sorted(a["shuffle_pos"]) == list(range(1, 1001))  # permutation
    c = (epoch_shuffle(rd.from_pandas(df), "doc_id", 2)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (a["shuffle_pos"].to_numpy() != c["shuffle_pos"].to_numpy()).mean() > 0.9


def test_compression_ratio_zlib_parity(ray_session):
    import zlib
    from capelinker_ray.stages.textstats import add_compression_ratio
    texts = ["aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
             "The quick brown fox jumps over the lazy dog.",
             "", None, "xyz"]
    df = pd.DataFrame({"doc_id": range(5), "text": texts})
    out = (add_compression_ratio(rd.from_pandas(df))
           .to_pandas().set_index("doc_id").sort_index())
    for i, t in enumerate(texts):
        if isinstance(t, str) and t:
            raw = t.encode()
            want = round(len(zlib.compress(raw, 6)) / len(raw), 6)
        else:
            want = 1.0
        assert abs(out.loc[i, "compression_ratio"] - want) < 1e-9, i
    # repetitive text compresses far better than prose
    assert (out.loc[0, "compression_ratio"]
            < out.loc[1, "compression_ratio"] - 0.2)


def test_ipc_roundtrip_and_column_prune(ray_session, tmp_path):
    from capelinker_ray.sources.io import read_ipc, write_ipc
    df = pd.DataFrame({"a": np.arange(100, dtype=np.int64),
                       "b": [f"s{i}" for i in range(100)],
                       "c": np.linspace(0, 1, 100)})
    files = write_ipc(rd.from_pandas(df).repartition(4), str(tmp_path))
    assert len(files) >= 1 and all(f.endswith(".arrow") for f in files)
    back = read_ipc(str(tmp_path)).to_pandas().sort_values("a")\
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(back, df)
    pruned = read_ipc(str(tmp_path), columns=["a"])
    assert pruned.schema().names == ["a"]
    assert pruned.count() == 100


def test_fingerprint_diff_matches_snapshot_diff_and_prunes(ray_session):
    from capelinker_ray.stages.cdc import fingerprint_diff, snapshot_diff
    rng = np.random.default_rng(17)
    base = pd.DataFrame({"k": np.arange(20000, dtype=np.int64),
                         "a": rng.integers(0, 100, 20000),
                         "b": rng.normal(size=20000).round(3)})
    v2 = base.copy()
    v2.loc[v2["k"] % 997 == 0, "a"] += 1            # ~20 changed keys
    v2 = v2[v2["k"] != 5]                           # 1 removed
    v2 = pd.concat([v2, pd.DataFrame({"k": [99999], "a": [1],
                                      "b": [0.0]})], ignore_index=True)
    ol, nw = rd.from_pandas(base).repartition(5), \
        rd.from_pandas(v2).repartition(3)
    want = (snapshot_diff(ol, nw, "k").to_pandas()
            .sort_values("k").reset_index(drop=True))
    got = (fingerprint_diff(ol, nw, "k", buckets=256).to_pandas()
           .sort_values("k").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)
    # ~22 dirty keys over 256 buckets: most buckets must be pruned clean
    assert fingerprint_diff.last_clean_buckets > 200
    # identical snapshots -> zero dirty buckets, empty diff
    same = fingerprint_diff(ol, rd.from_pandas(base), "k", buckets=64)
    assert same.count() == 0
    assert fingerprint_diff.last_clean_buckets == 64


def test_grouped_heavy_hitters_exact_vs_bruteforce(ray_session):
    from capelinker_ray.stages.sketch import grouped_heavy_hitters
    rng = np.random.default_rng(23)
    # skewed per-group token stream: zipf head + long random tail that
    # overflows the sketch (B=64 at phi=0.05 -> forced evictions)
    rows = []
    for g in ("en", "fr"):
        toks = (["the"] * 300 + ["of"] * 120 + ["and"] * 80
                + [f"{g}_rare{i}" for i in rng.integers(0, 5000, 2000)])
        rng.shuffle(toks)
        for i in range(0, len(toks), 25):
            rows.append({"lang": g, "text": " ".join(toks[i:i + 25])})
    df = pd.DataFrame(rows)
    phi = 0.05
    got = (grouped_heavy_hitters(rd.from_pandas(df).repartition(7),
                                 "lang", "text", phi=phi)
           .to_pandas().sort_values(["lang", "token"])
           .reset_index(drop=True))
    # brute force
    want_rows = []
    for g, sub in df.groupby("lang"):
        toks = " ".join(sub["text"]).split(" ")
        toks = [t for t in toks if t]
        import collections, math
        c = collections.Counter(toks)
        thr = math.ceil(phi * len(toks))
        for t, n in sorted(c.items()):
            if n >= thr:
                want_rows.append({"lang": g, "token": t, "n": n})
    want = (pd.DataFrame(want_rows).sort_values(["lang", "token"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got.astype({"n": np.int64}), want.astype({"n": np.int64}))


def test_cube_sum_all_grouping_sets(ray_session):
    from capelinker_ray.stages.agg import cube_sum
    df = pd.DataFrame({"a": ["x", "x", "y", None],
                       "b": ["p", "q", "p", "p"],
                       "v": [1.0, 2.0, 4.0, 8.0]})
    out = (cube_sum(rd.from_pandas(df).repartition(2), ["a", "b"], ["v"],
                    size_col="n")
           .to_pandas())
    assert len(out) == 4 + 3 + 2 + 1   # finest(incl None key) + a + b + total
    total = out[out["grouping_id"] == 3]
    assert float(total["v"].iloc[0]) == 15.0 and int(total["n"].iloc[0]) == 4
    by_b = out[out["grouping_id"] == 2].set_index("b")  # a rolled up
    assert float(by_b.loc["p", "v"]) == 13.0
    assert float(by_b.loc["q", "v"]) == 2.0
    by_a = out[out["grouping_id"] == 1].set_index("a")  # b rolled up
    assert float(by_a.loc["x", "v"]) == 3.0
    # NULL key at the finest level is a real group, distinct from rollup
    finest = out[out["grouping_id"] == 0]
    nk = finest[finest["a"].isna()]
    assert len(nk) == 1 and float(nk["v"].iloc[0]) == 8.0


def test_cooccurrence_counts_window_semantics(ray_session):
    from capelinker_ray.stages.corpus_stats import (cooccurrence_counts,
                                                    pair_counts)
    df = pd.DataFrame({"text": ["a b c d", "a  c", None, "x"]})
    out = (cooccurrence_counts(rd.from_pandas(df).repartition(3),
                               window=2, min_count=1)
           .to_pandas().set_index(["left_tok", "right_tok"])["n"])
    # doc1 offsets 1: (a,b)(b,c)(c,d); offset 2: (a,c)(b,d)
    # doc2 "a  c" -> ["a","","c"]: offset1 pairs have ""; offset2 (a,c)
    assert out.loc[("a", "b")] == 1
    assert out.loc[("a", "c")] == 2        # doc1 offset2 + doc2 offset2
    assert out.loc[("b", "d")] == 1
    assert ("c", "a") not in out.index     # ordered (left = earlier)
    assert not any("" in k for k in out.index)  # empties never counted
    # window=1 == pair_counts
    a = (cooccurrence_counts(rd.from_pandas(df), window=1, min_count=1)
         .to_pandas().sort_values(["left_tok", "right_tok"])
         .reset_index(drop=True))
    b = (pair_counts(rd.from_pandas(df), min_count=1)
         .to_pandas().sort_values(["left_tok", "right_tok"])
         .reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_hive_partitioned_roundtrip_and_prune(ray_session, tmp_path):
    from capelinker_ray.sources.io import read_hive, write_hive_partitioned
    df = pd.DataFrame({"lang": ["en", "fr", "de"] * 40,
                       "doc_id": np.arange(120, dtype=np.int64)})
    write_hive_partitioned(rd.from_pandas(df).repartition(3),
                           str(tmp_path), ["lang"])
    import os
    assert sorted(d for d in os.listdir(tmp_path)
                  if d.startswith("lang=")) == \
        ["lang=de", "lang=en", "lang=fr"]
    full = read_hive(str(tmp_path)).to_pandas()
    assert len(full) == 120
    pruned = read_hive(str(tmp_path),
                       partition_filter={"lang": ["en", "fr"]}).to_pandas()
    assert len(pruned) == 80
    assert sorted(pruned["lang"].astype(str).unique()) == ["en", "fr"]
    only_en = read_hive(str(tmp_path), partition_filter={"lang": "en"})
    assert only_en.count() == 40
    import pytest
    with pytest.raises(FileNotFoundError):
        read_hive(str(tmp_path), partition_filter={"lang": ["zz"]})
    # a typo'd key must not silently read every partition
    with pytest.raises(ValueError, match="lnag"):
        read_hive(str(tmp_path), partition_filter={"lnag": ["en"]})


def test_read_hive_never_walks_pruned_partitions(ray_session, tmp_path,
                                                 monkeypatch):
    from capelinker_ray.sources import io
    df = pd.DataFrame({"lang": ["en", "fr"] * 10,
                       "src": ["web", "web", "news", "news"] * 5,
                       "doc_id": np.arange(20, dtype=np.int64)})
    io.write_hive_partitioned(rd.from_pandas(df), str(tmp_path),
                              ["lang", "src"])
    import os
    walked = []
    real_walk = os.walk

    def spy_walk(top, *a, **kw):
        for root, dirs, files in real_walk(top, *a, **kw):
            walked.append(os.path.relpath(root, top))
            yield root, dirs, files
    monkeypatch.setattr(os, "walk", spy_walk)
    out = io.read_hive(str(tmp_path),
                       partition_filter={"lang": "en", "src": ["web"]})
    assert sorted(out.to_pandas()["doc_id"]) == list(range(0, 20, 4))
    assert not any("lang=fr" in w or "src=news" in w for w in walked), walked


def test_canonicalize_for_dedup_folds_trivial_variants(ray_session):
    from capelinker_ray.stages.normalize import canonicalize_for_dedup
    df = pd.DataFrame({"doc_id": [1, 2, 3, 4],
                       "text": ["Breaking News: 1,234 views!!",
                                "breaking   news 99 VIEWS",
                                "entirely different document",
                                None]})
    out = (canonicalize_for_dedup(rd.from_pandas(df))
           .to_pandas().set_index("doc_id"))
    assert out.loc[1, "text_canon"] == out.loc[2, "text_canon"] \
        == "breaking news 0 views"
    assert out.loc[3, "text_canon"] == "entirely different document"
    assert out.loc[4, "text_canon"] == ""
    assert out.loc[1, "text"] == "Breaking News: 1,234 views!!"  # preserved


def test_dedup_canonical_oracle_matches_engine(ray_session):
    """The dedup_canonical DuckDB twin and the engine agree on a frame
    that has ASCII punctuation (brackets and backslash included), digit
    runs with separators and upper case — sf0.01 documents have none, so
    the registry oracle alone cannot catch a divergent class."""
    import duckdb
    from capelinker_ray.pipelines.queries import sql_dedup_canonical
    from capelinker_ray.stages.dedup import exact_dedup
    from capelinker_ray.stages.normalize import canonicalize_for_dedup
    documents = pd.DataFrame({
        "doc_id": np.arange(1, 9, dtype=np.int64),
        "text": ["hello, world! [a] b\\c", "HELLO world a b c",
                 "Views: 1,234.5 (today)", "views 99 today",
                 "x]y[z", "X Y Z", "a{b}|c~d", None]})
    engine = exact_dedup(
        canonicalize_for_dedup(rd.from_pandas(documents))
        .select_columns(["doc_id", "text_canon"]),
        key_col="text_canon", id_col="doc_id").to_pandas()
    oracle = duckdb.connect().execute(sql_dedup_canonical("")).fetchdf()

    def rows(df):
        return sorted(zip(df["text_canon"], df["keep_doc_id"].astype(int)))
    assert rows(engine) == rows(oracle)
    assert rows(engine) == [("", 8), ("a b c d", 7),
                            ("hello world a b c", 1), ("views 0 today", 3),
                            ("x y z", 5)]


def test_add_script_stats_composition(ray_session):
    from capelinker_ray.stages.textstats import add_script_stats
    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": ["hello 你好 мир", "", None]})
    out = (add_script_stats(rd.from_pandas(df),
                            scripts=("Latin", "Han", "Cyrillic"))
           .to_pandas().set_index("doc_id"))
    # "hello 你好 мир": 12 codepoints, 5 latin, 2 han, 3 cyrillic
    assert out.loc[1, "n_cp"] == 12
    assert abs(out.loc[1, "latin_frac"] - round(5 / 12, 6)) < 1e-9
    assert abs(out.loc[1, "han_frac"] - round(2 / 12, 6)) < 1e-9
    assert abs(out.loc[1, "cyrillic_frac"] - round(3 / 12, 6)) < 1e-9
    for d in (2, 3):
        assert out.loc[d, "n_cp"] == 0
        assert out.loc[d, "latin_frac"] == 0.0


def test_keep_best_per_family(ray_session):
    from capelinker_ray.stages.dedup import keep_best_per_family
    docs = pd.DataFrame({
        "doc_id": np.array([1, 2, 3, 4, 5], dtype=np.int64),
        "n_chars": np.array([10, 50, 30, 7, 7], dtype=np.int64)})
    # family {1,2,3} (chained pairs), family {4,5} (quality tie), no
    # singleton pair for doc 6 -> absent; add doc 6 as singleton
    docs = pd.concat([docs, pd.DataFrame({"doc_id": [6],
                                          "n_chars": [99]})],
                     ignore_index=True)
    pairs = pd.DataFrame({"id_from": np.array([1, 2, 4], dtype=np.int64),
                          "id_to": np.array([2, 3, 5], dtype=np.int64)})
    out = (keep_best_per_family(rd.from_pandas(docs).repartition(3),
                                rd.from_pandas(pairs))
           .to_pandas().set_index("doc_id").sort_index())
    assert len(out) == 6
    assert list(out.loc[[1, 2, 3], "keep_doc_id"]) == [2, 2, 2]  # longest
    assert list(out.loc[[4, 5], "keep_doc_id"]) == [4, 4]        # tie->min
    assert out.loc[6, "keep_doc_id"] == 6                        # singleton


def test_incremental_minhash_dedup_policies(ray_session):
    from capelinker_ray.stages.dedup import incremental_minhash_dedup
    base = ("the quick brown fox jumps over the lazy dog and then "
            "runs far away into the deep dark forest tonight")
    frz = pd.DataFrame({"doc_id": np.array([0, 2], dtype=np.int64),
                        "text": [base, "completely unrelated frozen text "
                                       "about cooking pasta al dente"]})
    new = pd.DataFrame({
        "doc_id": np.array([1, 3, 5, 7], dtype=np.int64),
        "text": [base + "!",                    # near-dups frozen 0 -> drop
                 "fresh unique content about astronomy and telescopes "
                 "pointed at the andromeda galaxy",
                 "fresh unique content about astronomy and telescopes "
                 "pointed at the andromeda galaxy?",  # near-dups 3 -> drop
                 "another standalone document mentioning nothing else"]})
    out = (incremental_minhash_dedup(rd.from_pandas(new),
                                     rd.from_pandas(frz),
                                     jaccard_threshold=0.5)
           .to_pandas().sort_values("doc_id"))
    assert list(out["doc_id"]) == [3, 7]
    assert set(out.columns) == {"doc_id", "text"}
    # frozen side is untouched by contract: only new rows are returned


# --- hypothesis properties over the r5 operators -------------------------

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 50)),
                min_size=1, max_size=300))
def test_table_fingerprint_permutation_invariant_prop(ray_session, rows):
    from capelinker_ray.stages.agg import table_fingerprint
    df = pd.DataFrame(rows, columns=["k", "m"]).astype(np.int64)
    a = (table_fingerprint(rd.from_pandas(df), "k", "m", buckets=16)
         .to_pandas().sort_values("bucket").reset_index(drop=True))
    perm = df.sample(frac=1.0, random_state=0).reset_index(drop=True)
    b = (table_fingerprint(rd.from_pandas(perm).repartition(3),
                           "k", "m", buckets=16)
         .to_pandas().sort_values("bucket").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert int(a["n"].sum()) == len(df)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.text(alphabet="ab ", min_size=0, max_size=30),
                min_size=1, max_size=40),
       st.integers(1, 3))
def test_cooccurrence_matches_bruteforce_prop(ray_session, docs, window):
    from capelinker_ray.stages.corpus_stats import cooccurrence_counts
    import collections
    df = pd.DataFrame({"text": docs})
    got = (cooccurrence_counts(rd.from_pandas(df).repartition(2),
                               window=window, min_count=1)
           .to_pandas())
    got_map = {(r.left_tok, r.right_tok): r.n for r in got.itertuples()}
    want = collections.Counter()
    for d in docs:
        toks = d.split(" ")
        for i, a in enumerate(toks):
            for j in range(i + 1, min(i + window + 1, len(toks))):
                b = toks[j]
                if a and b:
                    want[(a, b)] += 1
    assert got_map == dict(want)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(["x", "y"]),
                          st.floats(-100, 100)),
                min_size=2, max_size=200))
def test_grouped_robust_scale_partition_invariant_prop(ray_session, rows):
    from capelinker_ray.stages.scan import grouped_robust_scale
    df = pd.DataFrame(rows, columns=["g", "v"])
    df["id"] = np.arange(len(df))
    a = (grouped_robust_scale(rd.from_pandas(df), "g", "v")
         .to_pandas().sort_values("id").reset_index(drop=True))
    b = (grouped_robust_scale(rd.from_pandas(df).repartition(5), "g", "v")
         .to_pandas().sort_values("id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
