"""Driver-contract queries + DuckDB oracle SQL (CORRECTNESS gate).

Each entry pairs a Ray-Data pipeline (over /root/testdata/sf*/ tables, plus
a deterministically derived transcript table for the linkage chain) with an
ANSI-SQL equivalent DuckDB runs on the SAME inputs. Column names match
exactly; floats that cross the comparison are rounded identically on both
sides (value-hash parity).

The transcript corpus is derived from ``documents.parquet`` by
``synth.transcripts_from_documents`` (seeded) and written once per sf dir to
``/tmp/capelinker_oracle/`` so the oracle SQL can ``read_parquet`` the
identical input.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Sum

from .. import synth
from ..kernels.strdist import jaro_winkler_sim
from ..stages.blocking import candidates
from ..stages.cluster import attach_entity_ids, connected_components
from ..stages.conv_records import build_conv_records
from ..stages.dedup import minhash_lsh_dedup, simhash_signatures
from ..stages.events import sessionize
from ..stages.multimodal import fake_media_table, featurize_media
from ..stages.normalize import normalize_turns
from ..stages.selection import select_links
from ..stages.simsearch import brute_force_topk
from ..stages.textstats import add_lang_id, add_quality_score, add_token_counts
from ..pipelines.linkage import PAIR_ATTR_COLS, link_transcripts
from ..sources.io import read_parquet_clean as _rpc

ORACLE_DIR = "/tmp/capelinker_oracle"

# must mirror stages/normalize.py _DIACRITIC_PAIRS, as translate() args
_DIA_FROM = "éëêèâáàåüûîïçÉËÊÈÂÁÀÅÜÛÎÏÇöôóòñý"
_DIA_TO = "eeeeaaaauuiicEEEEAAAAUUIICooooony"


def transcripts_path(sf_dir: str) -> str:
    name = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    return os.path.join(ORACLE_DIR, f"transcripts_{name}.parquet")


def ensure_transcripts(sf_dir: str) -> str:
    """Write the derived transcript corpus for ``sf_dir`` (idempotent)."""
    import pyarrow.parquet as pq
    path = transcripts_path(sf_dir)
    if not os.path.exists(path):
        os.makedirs(ORACLE_DIR, exist_ok=True)
        turns, _truth = synth.transcripts_from_documents(sf_dir)
        pq.write_table(turns, path + ".tmp")
        os.replace(path + ".tmp", path)
    return path


def _read_turns(sf_dir: str):
    return _rpc(ensure_transcripts(sf_dir))


# SQL fragment: normalize text exactly like stages/normalize.py
def _sql_norm(col: str) -> str:
    return ("trim(regexp_replace(regexp_replace("
            f"upper(translate({col}, '{_DIA_FROM}', '{_DIA_TO}')), "
            "'[^A-Z0-9 ]', ' ', 'g'), ' +', ' ', 'g'))")


# SQL CTE: conv records parity with stages/conv_records.py
def _sql_recs(path: str) -> str:
    return f"""
recs AS (
  SELECT conv_id,
         CAST(count(*) AS BIGINT) AS n_turns,
         CAST(coalesce(sum(length(text)), 0) AS BIGINT) AS text_chars,
         min(ts) AS ts_min,
         max(ts) AS ts_max,
         CAST(floor(epoch_us(min(ts)) / 86400000000.0) AS BIGINT) AS epoch,
         max(CASE WHEN turn_idx = 0 THEN {_sql_norm('text')} END) AS first_text_norm,
         coalesce(max(CASE WHEN turn_idx = 0 THEN role END), '') || '>' ||
           coalesce(max(CASE WHEN turn_idx = 1 THEN role END), '') AS role_sig,
         coalesce(string_agg(DISTINCT tool, '|' ORDER BY tool), '') AS tool_sig,
         substr(coalesce(max(CASE WHEN turn_idx = 0 THEN {_sql_norm('text')} END), ''), 1, 16)
           || '|' ||
           coalesce(max(CASE WHEN turn_idx = 0 THEN role END), '') || '>' ||
           coalesce(max(CASE WHEN turn_idx = 1 THEN role END), '') AS block_key
  FROM read_parquet('{path}')
  GROUP BY conv_id
)"""


_REC_COLS = ["conv_id", "n_turns", "text_chars", "ts_min", "ts_max",
             "epoch", "first_text_norm", "role_sig", "tool_sig", "block_key"]


def _records_ds(sf_dir: str):
    recs = build_conv_records(normalize_turns(_read_turns(sf_dir)))

    def cast(df: pd.DataFrame) -> pd.DataFrame:
        df = df[_REC_COLS].copy()
        df["n_turns"] = df["n_turns"].astype(np.int64)
        df["text_chars"] = df["text_chars"].astype(np.int64)
        df["epoch"] = df["epoch"].astype(np.int64)
        return df
    return recs.map_batches(cast, batch_format="pandas")


# SQL CTE: equality self-join candidates (blocking parity)
def _sql_pairs(path: str) -> str:
    return f"""{_sql_recs(path)},
pairs AS (
  SELECT a.conv_id AS conv_id_from, b.conv_id AS conv_id_to,
         a.block_key AS block_key,
         a.first_text_norm AS f_from, b.first_text_norm AS f_to
  FROM recs a JOIN recs b
    ON a.block_key = b.block_key AND a.conv_id < b.conv_id
)"""


def _pairs_ds(sf_dir: str, with_pred: bool = False):
    recs = build_conv_records(normalize_turns(_read_turns(sf_dir)))
    pairs = candidates(recs, None, block_col="block_key", id_col="conv_id",
                       blocktype="equality", attr_cols=["first_text_norm"],
                       keep_unmatched=False)
    if not with_pred:
        return pairs

    def pred(t: pa.Table) -> pa.Table:
        f = np.asarray(t["first_text_norm_from"].to_pylist(), dtype=object)
        g = np.asarray(t["first_text_norm_to"].to_pylist(), dtype=object)
        # DuckDB-parity JW: p=0.1, boost threshold 0.7, integer transpositions
        sim = np.round(jaro_winkler_sim(f, g, p=0.1, bt=0.7,
                                        int_transpositions=True), 6)
        return t.append_column("pred", pa.array(sim, pa.float64()))

    pairs = pairs.map_batches(pred, batch_format="pyarrow")

    def nonnull(df: pd.DataFrame) -> pd.DataFrame:
        ok = (df["first_text_norm_from"].fillna("").str.len() > 0) & \
             (df["first_text_norm_to"].fillna("").str.len() > 0)
        return df[ok]
    return pairs.map_batches(nonnull, batch_format="pandas")


_SQL_PRED = ("round(jaro_winkler_similarity(f_from, f_to), 6)")
_SQL_PAIR_FILTER = ("f_from IS NOT NULL AND length(f_from) > 0 "
                    "AND f_to IS NOT NULL AND length(f_to) > 0")


# ---------------------------------------------------------------------------
# the queries
# ---------------------------------------------------------------------------

def q_normalize_turns(sf_dir: str):
    ds = normalize_turns(_read_turns(sf_dir))
    return ds.select_columns(["conv_id", "turn_idx", "text_norm"])


def sql_normalize_turns(path: str) -> str:
    return (f"SELECT conv_id, turn_idx, {_sql_norm('text')} AS text_norm "
            f"FROM read_parquet('{path}')")


def q_conv_records(sf_dir: str):
    return _records_ds(sf_dir)


def sql_conv_records(path: str) -> str:
    return f"WITH {_sql_recs(path)} SELECT {', '.join(_REC_COLS)} FROM recs"


def q_block_sizes(sf_dir: str):
    from ..stages.grouped import grouped_map

    def count_blocks(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("block_key", sort=False).size()
               .rename("n_records").reset_index())
        out["n_records"] = out["n_records"].astype(np.int64)
        return out
    return grouped_map(_records_ds(sf_dir), "block_key", count_blocks)


def sql_block_sizes(path: str) -> str:
    return (f"WITH {_sql_recs(path)} SELECT block_key, "
            "CAST(count(*) AS BIGINT) AS n_records FROM recs GROUP BY block_key")


def q_candidates_equality(sf_dir: str):
    pairs = _pairs_ds(sf_dir)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["conv_id_from", "conv_id_to", "block_key"]].copy()
        out["matches"] = df["matches"].astype(np.float64)
        return out
    return pairs.map_batches(proj, batch_format="pandas")


def sql_candidates_equality(path: str) -> str:
    return f"""WITH {_sql_pairs(path)}
SELECT conv_id_from, conv_id_to, block_key,
       CAST(count(*) OVER (PARTITION BY conv_id_from) AS DOUBLE) AS matches
FROM pairs"""


def q_pair_features(sf_dir: str):
    pairs = _pairs_ds(sf_dir, with_pred=True)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return df[["conv_id_from", "conv_id_to", "pred"]].rename(
            columns={"pred": "jw_sim"})
    return pairs.map_batches(proj, batch_format="pandas")


def sql_pair_features(path: str) -> str:
    return f"""WITH {_sql_pairs(path)}
SELECT conv_id_from, conv_id_to, {_SQL_PRED} AS jw_sim
FROM pairs WHERE {_SQL_PAIR_FILTER}"""


def q_selection_one_to_one(sf_dir: str):
    pairs = _pairs_ds(sf_dir, with_pred=True)
    links = select_links(pairs, id_from="conv_id_from", id_to="conv_id_to",
                         pred_col="pred", minimum_confidence=0.8,
                         linktype="one:one", tie_break="average")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return df[["conv_id_from", "conv_id_to", "pred"]]
    return links.map_batches(proj, batch_format="pandas")


def sql_selection_one_to_one(path: str) -> str:
    return f"""WITH {_sql_pairs(path)},
scored AS (
  SELECT conv_id_from, conv_id_to, {_SQL_PRED} AS pred
  FROM pairs WHERE {_SQL_PAIR_FILTER}
),
ranked AS (
  SELECT *,
    rank() OVER (PARTITION BY conv_id_from ORDER BY pred DESC) AS rk_f,
    count(*) OVER (PARTITION BY conv_id_from, pred) AS tie_f,
    rank() OVER (PARTITION BY conv_id_to ORDER BY pred DESC) AS rk_t,
    count(*) OVER (PARTITION BY conv_id_to, pred) AS tie_t
  FROM scored
)
SELECT conv_id_from, conv_id_to, pred FROM ranked
WHERE rk_f = 1 AND tie_f = 1 AND rk_t = 1 AND tie_t = 1 AND pred > 0.8"""


def q_entity_clusters_rule(sf_dir: str):
    pairs = _pairs_ds(sf_dir, with_pred=True)

    def thr(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["pred"] >= 0.92][["conv_id_from", "conv_id_to"]]
    links = pairs.map_batches(thr, batch_format="pandas")
    cc = connected_components(links, id_from="conv_id_from",
                              id_to="conv_id_to")
    return cc.rename_columns({"node": "conv_id"})


def sql_entity_clusters_rule(path: str) -> str:
    return f"""WITH RECURSIVE {_sql_pairs(path)},
links AS (
  SELECT conv_id_from, conv_id_to FROM pairs
  WHERE {_SQL_PAIR_FILTER} AND {_SQL_PRED} >= 0.92
),
edges AS (
  SELECT conv_id_from AS u, conv_id_to AS v FROM links
  UNION ALL
  SELECT conv_id_to AS u, conv_id_from AS v FROM links
),
walk(node, label) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, w.label FROM walk w JOIN edges e ON e.u = w.node
)
SELECT node AS conv_id, min(label) AS entity_id FROM walk GROUP BY node"""


def q_candidates_stringdist(sf_dir: str):
    """'string distance' blocking (SURVEY §2.3, candidates.R:65-73): within
    equality blocks keep pairs with JW distance < maxdist; score = the
    DISTANCE, matches = kept-pair count per from-record.
    ``jw_variant='duckdb'`` pins the classic-Winkler convention so the SQL
    twin is value-exact (the reference default stays R-stringdist parity)."""
    recs = build_conv_records(normalize_turns(_read_turns(sf_dir)))
    pairs = candidates(recs, None, block_col="block_key", id_col="conv_id",
                       blocktype="stringdist",
                       blockvariable="first_text_norm", maxdist=0.3,
                       keep_unmatched=False, jw_variant="duckdb",
                       attr_cols=[])

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["conv_id_from", "conv_id_to", "block_key"]].copy()
        out["score"] = df["score"].round(6)
        out["matches"] = df["matches"].astype(np.float64)
        return out
    return pairs.map_batches(proj, batch_format="pandas")


def sql_candidates_stringdist(path: str) -> str:
    jw = "jaro_winkler_similarity(a.first_text_norm, b.first_text_norm)"
    return f"""WITH {_sql_recs(path)},
pairs AS (
  SELECT a.conv_id AS conv_id_from, b.conv_id AS conv_id_to,
         a.block_key AS block_key,
         round(1 - {jw}, 6) AS score
  FROM recs a JOIN recs b
    ON a.block_key = b.block_key AND a.conv_id < b.conv_id
  WHERE a.first_text_norm IS NOT NULL AND b.first_text_norm IS NOT NULL
    AND 1 - {jw} < 0.3
)
SELECT conv_id_from, conv_id_to, block_key, score,
       CAST(count(*) OVER (PARTITION BY conv_id_from) AS DOUBLE) AS matches
FROM pairs"""


def q_snm_candidates(sf_dir: str):
    """Sorted-neighborhood blocking (Hernandez & Stolfo SIGMOD'95,
    stages/blocking.py snm_candidates): every record pair at most
    window-1 apart in the global (key, id) sort order — the classic
    third blocker next to key-equality and corpus-wide bigram."""
    from ..stages.blocking import snm_candidates
    cust = _rpc(f"{sf_dir}/customer.parquet",
                columns=["c_custkey", "c_name"])
    pairs = snm_candidates(cust, key_col="c_name", id_col="c_custkey",
                           window=7)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["id_from"] = out["id_from"].astype(np.int64)
        out["id_to"] = out["id_to"].astype(np.int64)
        return out
    return pairs.map_batches(proj, batch_format="pandas")


def sql_snm_candidates(sf_dir: str) -> str:
    return """WITH ranked AS (
  SELECT c_custkey AS id, c_name AS key,
         row_number() OVER (ORDER BY c_name, c_custkey) AS rn
  FROM customer WHERE c_name IS NOT NULL)
SELECT a.id AS id_from, b.id AS id_to,
       CAST(b.rn - a.rn AS BIGINT) AS rank_dist,
       a.key AS key_from, b.key AS key_to
FROM ranked a JOIN ranked b ON b.rn - a.rn BETWEEN 1 AND 6"""


_FS_WEIGHTS = {"m": {"a_name": 0.95, "a_seg": 0.70, "a_nation": 0.60},
               "u": {"a_name": 0.02, "a_seg": 0.20, "a_nation": 0.04}}


def q_fs_score(sf_dir: str):
    """Fellegi-Sunter log2 match weights (models/fellegi_sunter.py) over
    sorted-neighborhood candidate pairs: binary field agreements (JW-name,
    market segment, nation) scored with PINNED m/u so the SQL twin is
    value-exact; EM estimation of m/u is pytest-pinned (iterative — not
    SQL-expressible)."""
    from ..kernels.strdist import jaro_winkler_sim
    from ..models.fellegi_sunter import fs_score
    from ..stages.blocking import snm_candidates
    from ..stages.join import hash_join

    cust = _rpc(f"{sf_dir}/customer.parquet",
                columns=["c_custkey", "c_name", "c_mktsegment",
                         "c_nationkey"])
    pairs = snm_candidates(
        cust.select_columns(["c_custkey", "c_name"]),
        key_col="c_name", id_col="c_custkey", window=7)
    attrs = cust.select_columns(["c_custkey", "c_mktsegment",
                                 "c_nationkey"])
    pairs = hash_join(pairs, attrs, on="id_from", right_on="c_custkey",
                      suffixes=("", "_f"))
    pairs = hash_join(pairs, attrs, on="id_to", right_on="c_custkey",
                      suffixes=("", "_t"))

    def agreements(df: pd.DataFrame) -> pd.DataFrame:
        jw = jaro_winkler_sim(df["key_from"].to_numpy(object),
                              df["key_to"].to_numpy(object),
                              p=0.1, bt=0.7, int_transpositions=True)
        out = pd.DataFrame({
            "id_from": df["id_from"].astype(np.int64),
            "id_to": df["id_to"].astype(np.int64),
            "a_name": (np.round(jw, 6) >= 0.88).astype(np.int64),
            "a_seg": (df["c_mktsegment"] == df["c_mktsegment_t"]
                      ).astype(np.int64),
            "a_nation": (df["c_nationkey"] == df["c_nationkey_t"]
                         ).astype(np.int64),
        })
        return out

    feat = pairs.map_batches(agreements, batch_format="pandas")
    scored = fs_score(feat, _FS_WEIGHTS,
                      ["a_name", "a_seg", "a_nation"])

    def rounded(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["fs_weight"] = df["fs_weight"].round(6)
        return df
    return scored.map_batches(rounded, batch_format="pandas")


def sql_fs_score(sf_dir: str) -> str:
    w = _FS_WEIGHTS
    terms = []
    for c in ("a_name", "a_seg", "a_nation"):
        m, u = w["m"][c], w["u"][c]
        terms.append(f"{c}*log2({m}/{u}) + (1-{c})*log2({1-m}/{1-u})")
    total = " + ".join(terms)
    return f"""WITH ranked AS (
  SELECT c_custkey AS id, c_name AS key,
         row_number() OVER (ORDER BY c_name, c_custkey) AS rn
  FROM customer WHERE c_name IS NOT NULL),
pairs AS (
  SELECT a.id AS id_from, b.id AS id_to, a.key AS key_from,
         b.key AS key_to
  FROM ranked a JOIN ranked b ON b.rn - a.rn BETWEEN 1 AND 6),
feat AS (
  SELECT p.id_from, p.id_to,
         CASE WHEN round(jaro_winkler_similarity(p.key_from, p.key_to), 6)
                   >= 0.88 THEN 1 ELSE 0 END AS a_name,
         CASE WHEN cf.c_mktsegment = ct.c_mktsegment THEN 1 ELSE 0 END
           AS a_seg,
         CASE WHEN cf.c_nationkey = ct.c_nationkey THEN 1 ELSE 0 END
           AS a_nation
  FROM pairs p
  JOIN customer cf ON cf.c_custkey = p.id_from
  JOIN customer ct ON ct.c_custkey = p.id_to)
SELECT id_from, id_to, CAST(a_name AS BIGINT) AS a_name,
       CAST(a_seg AS BIGINT) AS a_seg,
       CAST(a_nation AS BIGINT) AS a_nation,
       round({total}, 6) AS fs_weight
FROM feat"""


def q_dedup_exact(sf_dir: str):
    from ..stages.grouped import grouped_map
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("text", sort=False)
               .agg(keep_doc_id=("doc_id", "min"), n_dups=("doc_id", "size"))
               .reset_index())
        out["keep_doc_id"] = out["keep_doc_id"].astype(np.int64)
        out["n_dups"] = out["n_dups"].astype(np.int64)
        return out
    return grouped_map(docs, "text", agg)


def sql_dedup_exact(sf_dir: str) -> str:
    return ("SELECT text, CAST(min(doc_id) AS BIGINT) AS keep_doc_id, "
            "CAST(count(*) AS BIGINT) AS n_dups FROM documents GROUP BY text")


def q_incremental_dedup(sf_dir: str):
    """New-batch exact dedup vs a frozen corpus (stages/dedup.py:
    incremental_dedup — anti join on text, then min-id keep-first within
    the increment). Split: frozen = doc_id < 250, new = the rest."""
    import pyarrow.compute as pc
    from ..stages.dedup import incremental_dedup
    frozen = _rpc(f"{sf_dir}/documents.parquet",
                  columns=["doc_id", "text"],
                  filter=pc.field("doc_id") < 250)
    new = _rpc(f"{sf_dir}/documents.parquet",
               columns=["doc_id", "text"],
               filter=pc.field("doc_id") >= 250)
    out = incremental_dedup(new, frozen)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"].astype(np.int64),
                             "text": df["text"]})
    return out.map_batches(proj, batch_format="pandas")


def sql_incremental_dedup(sf_dir: str) -> str:
    return """WITH nw AS (SELECT doc_id, text FROM documents
            WHERE doc_id >= 250)
SELECT doc_id, text FROM nw n
WHERE NOT EXISTS (SELECT 1 FROM documents f
                  WHERE f.doc_id < 250 AND f.text = n.text)
QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1"""


def q_clean_documents(sf_dir: str):
    """Vectorized document cleaner: lowercase + whitespace collapse + trim
    (stages/normalize.py:clean_documents)."""
    from ..stages.normalize import clean_documents
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    return clean_documents(docs).select_columns(["doc_id", "text_clean"])


def sql_clean_documents(sf_dir: str) -> str:
    return ("SELECT doc_id, lower(trim(regexp_replace(coalesce(text, ''), "
            r"'\s+', ' ', 'g'))) AS text_clean FROM documents")


def q_doc_token_stats(sf_dir: str):
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    out = add_token_counts(docs)
    return out.select_columns(["doc_id", "n_ws_tokens", "n_bpe_tokens"])


def sql_doc_token_stats(sf_dir: str) -> str:
    return r"""SELECT doc_id,
  CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT) AS n_ws_tokens,
  CAST(len(regexp_extract_all(coalesce(text, ''),
       '[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+')) AS BIGINT) AS n_bpe_tokens
FROM documents"""


def q_events_sessionize(sf_dir: str):
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id"])
    from ..stages.grouped import grouped_map
    sess = sessionize(ev, gap_minutes=30.0)

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        out = (df.groupby("user_id", sort=False)
               .agg(max_idx=("session_idx", "max"),
                    n_events=("session_idx", "size"))
               .reset_index())
        out["n_sessions"] = (out["max_idx"] + 1).astype(np.int64)
        out["n_events"] = out["n_events"].astype(np.int64)
        return out[["user_id", "n_sessions", "n_events"]]
    return grouped_map(sess, "user_id", per_user)


def sql_events_sessionize(sf_dir: str) -> str:
    return """WITH o AS (
  SELECT user_id, ts,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pts
  FROM events
), m AS (
  SELECT user_id,
         CASE WHEN pts IS NULL
                   OR epoch_us(ts) - epoch_us(pts) > 1800000000
              THEN 1 ELSE 0 END AS is_new
  FROM o
)
SELECT user_id, CAST(sum(is_new) AS BIGINT) AS n_sessions,
       CAST(count(*) AS BIGINT) AS n_events
FROM m GROUP BY user_id"""


_ANN_K = 5
_ANN_NQ = 8


def q_ann_topk(sf_dir: str):
    import pyarrow.parquet as pq
    emb = _rpc(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    qtbl = pq.read_table(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    qdf = qtbl.to_pandas()
    qdf = qdf[qdf["vec_id"] < _ANN_NQ].sort_values("vec_id")
    Q = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    out = brute_force_topk(emb, Q, k=_ANN_K,
                           query_ids=qdf["vec_id"].to_numpy())

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["query_id", "vec_id", "rank"]].copy()
        out["query_id"] = out["query_id"].astype(np.int64)
        out["vec_id"] = out["vec_id"].astype(np.int64)
        return out
    return out.map_batches(proj, batch_format="pandas")


def sql_ann_topk(sf_dir: str) -> str:
    return f"""WITH q AS (
  SELECT vec_id AS qid, embedding AS qv FROM embeddings WHERE vec_id < {_ANN_NQ}
), s AS (
  SELECT q.qid, e.vec_id,
         list_cosine_similarity(q.qv, e.embedding) AS cos
  FROM q CROSS JOIN embeddings e
), r AS (
  SELECT qid, vec_id,
         row_number() OVER (PARTITION BY qid ORDER BY cos DESC, vec_id) AS rk
  FROM s
)
SELECT qid AS query_id, vec_id, CAST(rk AS BIGINT) AS rank
FROM r WHERE rk <= {_ANN_K}"""


def q_lineitem_agg(sf_dir: str):
    li = _rpc(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"])

    # partial aggregation inside map_batches: raw rows never shuffle
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(disc_price=df["l_extendedprice"] * (1 - df["l_discount"]))
        return (df.groupby(["l_returnflag", "l_linestatus"], sort=False)
                .agg(sum_qty=("l_quantity", "sum"),
                     sum_disc_price=("disc_price", "sum"),
                     n_rows=("l_quantity", "size"))
                .reset_index())

    # partials merge in ONE task (stages/agg.py): the 6-key rollup is
    # bounded by keys x blocks, never by lineitem size — no sort shuffle
    from ..stages.agg import small_group_sum
    agg = small_group_sum(li.map_batches(partial, batch_format="pandas"),
                          ["l_returnflag", "l_linestatus"],
                          ["sum_qty", "sum_disc_price", "n_rows"])

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["sum_qty"] = df["sum_qty"].round(2)
        df["sum_disc_price"] = df["sum_disc_price"].round(2)
        df["n_rows"] = df["n_rows"].astype(np.int64)
        return df
    return agg.map_batches(rnd, batch_format="pandas")


def sql_lineitem_agg(sf_dir: str) -> str:
    return """SELECT l_returnflag, l_linestatus,
  round(sum(l_quantity), 2) AS sum_qty,
  round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
  CAST(count(*) AS BIGINT) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus"""


def q_customers_no_orders(sf_dir: str):
    """Distributed ANTI join (NOT EXISTS): customers with no URGENT order.

    The probe side is filtered AT THE READ (row-level predicate before any
    shuffle) and ships only per-batch-deduplicated key rows through the
    shuffle (stages/join.py hash_join how='anti') — at 100 TB the orders
    side moves one row per distinct customer per batch, not one per order.
    """
    import pyarrow.compute as pc
    from ..stages.join import hash_join
    cust = _rpc(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name", "c_acctbal"])
    orders = _rpc(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority"],
        filter=pc.field("o_orderpriority") == "1-URGENT",
    ).drop_columns(["o_orderpriority"])
    out = hash_join(cust, orders, on="c_custkey", right_on="o_custkey",
                    how="anti")

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["c_acctbal"] = df["c_acctbal"].round(2)
        return df
    return out.map_batches(rnd, batch_format="pandas")


def sql_customers_no_orders(sf_dir: str) -> str:
    return ("SELECT c_custkey, c_name, round(c_acctbal, 2) AS c_acctbal "
            "FROM customer c WHERE NOT EXISTS "
            "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey "
            "AND o.o_orderpriority = '1-URGENT') "
            "ORDER BY c_custkey")


def q_bloom_anti(sf_dir: str):
    """Bloom-prefiltered EXACT anti join (stages/bloom.py): orders whose
    customer is NOT in the negative-balance set. The broadcast bit array
    drops the definite-misses (the bulk of the probe) batch-locally; only
    the maybe sliver pays the hash-anti-join shuffle — false positives
    cost shuffle bytes, never correctness."""
    import pyarrow.compute as pc
    from ..stages.bloom import bloom_anti_join
    orders = _rpc(f"{sf_dir}/orders.parquet",
                  columns=["o_orderkey", "o_custkey", "o_totalprice"])
    debt = _rpc(f"{sf_dir}/customer.parquet",
                columns=["c_custkey", "c_acctbal"],
                filter=pc.field("c_acctbal") < 0.0).drop_columns(
                    ["c_acctbal"])
    out = bloom_anti_join(orders, debt, on="o_custkey",
                          right_on="c_custkey", fpp=0.01)

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["o_totalprice"] = df["o_totalprice"].round(2)
        return df
    return out.map_batches(rnd, batch_format="pandas")


def sql_bloom_anti(sf_dir: str) -> str:
    return ("SELECT o_orderkey, o_custkey, round(o_totalprice, 2) AS "
            "o_totalprice FROM orders o WHERE NOT EXISTS "
            "(SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey "
            "AND c.c_acctbal < 0)")


def q_bloom_semi(sf_dir: str):
    """Bloom-prefiltered EXACT semi join: orders FROM negative-balance
    customers — definite-misses dropped batch-locally in one pass."""
    import pyarrow.compute as pc
    from ..stages.bloom import bloom_semi_join
    orders = _rpc(f"{sf_dir}/orders.parquet",
                  columns=["o_orderkey", "o_custkey", "o_totalprice"])
    debt = _rpc(f"{sf_dir}/customer.parquet",
                columns=["c_custkey", "c_acctbal"],
                filter=pc.field("c_acctbal") < 0.0).drop_columns(
                    ["c_acctbal"])
    out = bloom_semi_join(orders, debt, on="o_custkey",
                          right_on="c_custkey", fpp=0.01)

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["o_totalprice"] = df["o_totalprice"].round(2)
        return df
    return out.map_batches(rnd, batch_format="pandas")


def sql_bloom_semi(sf_dir: str) -> str:
    return ("SELECT o_orderkey, o_custkey, round(o_totalprice, 2) AS "
            "o_totalprice FROM orders o WHERE EXISTS "
            "(SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey "
            "AND c.c_acctbal < 0)")


def q_nation_revenue(sf_dir: str):
    """Multi-way star join + grouped rollup (TPC-H Q5 flavor): orders ⋈
    customer (hash shuffle join) ⋈ nation (broadcast — 25 rows), partial
    revenue aggregation inside map_batches before the tiny final groupby."""
    from ..stages.join import broadcast_join, hash_join
    orders = _rpc(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])
    cust = _rpc(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    # constant-size dimension (25 rows): column-pruned Arrow read straight
    # into the broadcast side — no Ray dataset, no pandas metadata
    import pyarrow.parquet as pq
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]
                           ).replace_schema_metadata(None)
    oc = hash_join(orders, cust, on="o_custkey", right_on="c_custkey",
                   how="inner")
    ocn = broadcast_join(oc, nation, on="c_nationkey",
                         right_on="n_nationkey", how="inner")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("n_name", sort=False)
                .agg(revenue=("o_totalprice", "sum"),
                     n_orders=("o_totalprice", "size"))
                .reset_index())

    # 25-nation rollup: one-task partials merge, no sort-shuffle barrier
    from ..stages.agg import small_group_sum
    agg = small_group_sum(ocn.map_batches(partial, batch_format="pandas"),
                          "n_name", ["revenue", "n_orders"])

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["revenue"] = df["revenue"].round(2)
        df["n_orders"] = df["n_orders"].astype(np.int64)
        return df
    return agg.map_batches(rnd, batch_format="pandas")


def sql_nation_revenue(sf_dir: str) -> str:
    return ("SELECT n_name, round(sum(o_totalprice), 2) AS revenue, "
            "CAST(count(*) AS BIGINT) AS n_orders "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "JOIN nation ON c_nationkey = n_nationkey "
            "GROUP BY n_name ORDER BY n_name")


def q_nation_coverage(sf_dir: str):
    """FULL OUTER join of two grouped rollups: nations with rich customers
    vs nations with rich suppliers — either side may be missing
    (hash_join how='outer' retains both, SQL FULL OUTER semantics)."""
    import pyarrow.compute as pc
    from ..stages.agg import small_group_sum
    from ..stages.join import hash_join

    def counts(table, key, bal, thr, out_name):
        ds = _rpc(f"{sf_dir}/{table}.parquet",
                             columns=[key, bal],
                             filter=pc.field(bal) > thr)

        def part(df: pd.DataFrame) -> pd.DataFrame:
            return (df.groupby(key, sort=False)
                    .agg(**{out_name: (bal, "size")}).reset_index())
        # 25-nation rollup: one-task partials merge (stages/agg.py)
        return small_group_sum(ds.map_batches(part, batch_format="pandas"),
                               key, [out_name])

    a = counts("customer", "c_nationkey", "c_acctbal", 9700.0, "n_cust")
    b = counts("supplier", "s_nationkey", "s_acctbal", 6000.0, "n_supp")
    out = hash_join(a, b, on="c_nationkey", right_on="s_nationkey",
                    how="outer")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "nationkey": df["c_nationkey"].astype(np.int64),
            "n_cust": df["n_cust"].astype(np.float64),
            "n_supp": df["n_supp"].astype(np.float64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_nation_coverage(sf_dir: str) -> str:
    return """SELECT COALESCE(a.k, b.k) AS nationkey,
       CAST(a.n_cust AS DOUBLE) AS n_cust,
       CAST(b.n_supp AS DOUBLE) AS n_supp
FROM (SELECT c_nationkey k, count(*) n_cust FROM customer
      WHERE c_acctbal > 9700.0 GROUP BY 1) a
FULL OUTER JOIN
     (SELECT s_nationkey k, count(*) n_supp FROM supplier
      WHERE s_acctbal > 6000.0 GROUP BY 1) b
ON a.k = b.k ORDER BY nationkey"""


def q_distinct_users(sf_dir: str):
    """Grouped EXACT count-distinct: one hash-partitioned shuffle on the
    (event_type, user_id) pair — each pair lands in exactly one partition,
    so a per-partition dedupe is globally exact and only tiny per-partition
    counts reach the final groupby."""
    from ..stages.grouped import grouped_map
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    local = ev.map_batches(lambda df: df.drop_duplicates(),
                           batch_format="pandas")

    def part(g: pd.DataFrame) -> pd.DataFrame:
        u = g[["event_type", "user_id"]].drop_duplicates()
        return (u.groupby("event_type", sort=False)
                .agg(n_users=("user_id", "size")).reset_index())

    counts = grouped_map(local, ["event_type", "user_id"], part)
    agg = counts.groupby("event_type").aggregate(
        Sum("n_users", alias_name="n_users"))

    def cast(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["n_users"] = df["n_users"].astype(np.int64)
        return df
    return agg.map_batches(cast, batch_format="pandas")


def sql_distinct_users(sf_dir: str) -> str:
    return ("SELECT event_type, "
            "CAST(count(DISTINCT user_id) AS BIGINT) AS n_users "
            "FROM events GROUP BY event_type ORDER BY event_type")


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_props_stats(sf_dir: str):
    """Semi-structured extraction (stages/jsoncol.py): pull the scalar
    ``k`` field out of the JSON ``props`` column with the vectorized
    regex fast path, then a partial-agg rollup per event_type."""
    from ..stages.jsoncol import json_scalar
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["event_type", "props"])
    ex = json_scalar(ev, "props", "k", "k", kind="int")

    def part(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("event_type", sort=False)
                .agg(k_sum=("k", "sum"), n=("k", "count")).reset_index())

    agg = (ex.map_batches(part, batch_format="pandas")
           .groupby("event_type")
           .aggregate(Sum("k_sum", alias_name="k_sum"),
                      Sum("n", alias_name="n")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "k_sum": df["k_sum"].astype(np.int64),
            "k_avg": (df["k_sum"] / df["n"]).round(6)})
    return agg.map_batches(fin, batch_format="pandas")


def sql_props_stats(sf_dir: str) -> str:
    return """SELECT event_type,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
         AS k_sum,
       round(CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS DOUBLE)
             / count(json_extract(props, '$.k')), 6) AS k_avg
FROM events GROUP BY event_type ORDER BY event_type"""


def q_events_pivot(sf_dir: str):
    """Long → wide pivot (data.table dcast analog): per-user event counts,
    one column per event type. Batches collapse locally to the wide layout
    before one small groupby merge (stages/pivot.py)."""
    from ..stages.pivot import pivot_counts
    # materialize the 2-column projection: values discovery + the partial
    # pass share one read instead of re-scanning the parquet
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"]).materialize()
    return pivot_counts(ev, index="user_id", pivot="event_type")


def sql_events_pivot(sf_dir: str) -> str:
    cases = ", ".join(
        f"CAST(sum(CASE WHEN event_type = '{t}' THEN 1 ELSE 0 END) "
        f"AS BIGINT) AS \"{t}\"" for t in _EVENT_TYPES)
    return (f"SELECT user_id, {cases} FROM events "
            "GROUP BY user_id ORDER BY user_id")


def q_incremental_assign(sf_dir: str):
    """Incremental linkage (pipelines/incremental.py): hash-split ~1/8 of
    conversations off as the 'new batch', link the remainder into a frozen
    entity table, then assign the batch — model-scored, so rows-only (no
    SQL oracle)."""
    from ..stages.textstats import fnv1a_64
    from .incremental import assign_to_entities
    path = ensure_transcripts(sf_dir)
    turns = _rpc(path)

    def split(new_side: bool):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            from ..stages.grouped import typed_or_empty
            m = (fnv1a_64(df["conv_id"].tolist()) % np.uint64(8)) == 0
            return typed_or_empty(df[m if new_side else ~m])
        return fn

    base = turns.map_batches(split(False), batch_format="pandas")
    new = turns.map_batches(split(True), batch_format="pandas")
    out = link_transcripts(base, checkpoint_dir=None, sort_output=False)
    res = assign_to_entities(new, out["records"], out["entities"])
    return res["assignments"]


def _inc_rule_split(new_side: bool):
    """Deterministic SQL-friendly batch split on the synthetic conv_id
    layout ``d{doc:07d}_{c}``: new batch = the corrupted copy of doc%4==0
    (exercises base adoption), BOTH copies of doc%8==2 (within-batch CC +
    minted entities), and the singleton of doc%8==5 (minted singleton)."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.grouped import typed_or_empty
        d = df["conv_id"].str.slice(1, 8).astype(np.int64)
        c = df["conv_id"].str.slice(9, 10).astype(np.int64)
        m = (((d % 4 == 0) & (c == 1)) | (d % 8 == 2)
             | ((d % 8 == 5) & (c == 0)))
        return typed_or_empty(df[m if new_side else ~m])
    return fn


def _jw_rule_pred(df: pd.DataFrame) -> pd.DataFrame:
    """Rule scorer for incremental_assign_rule: DuckDB-parity JW on the
    normalized first-turn text; empty/null sides score NaN (dropped)."""
    f, g = df["first_text_norm_from"], df["first_text_norm_to"]
    ok = (f.notna() & g.notna()
          & (f.fillna("").str.len() > 0) & (g.fillna("").str.len() > 0))
    sim = np.full(len(df), np.nan)
    if ok.any():
        sim[ok.to_numpy()] = np.round(
            jaro_winkler_sim(f[ok].to_numpy(object), g[ok].to_numpy(object),
                             p=0.1, bt=0.7, int_transpositions=True), 6)
    out = df[["conv_id_from", "conv_id_to"]].copy()
    out["pred"] = sim
    return out


def q_incremental_assign_rule(sf_dir: str):
    """Rule-scored incremental linkage (verdict r3 #4): the same
    pipelines/incremental.py composition — frozen base entities, rank-1
    many:one base adoption, within-batch threshold links + CC, min-entity
    adoption / min-conv minting — but with the SQL-expressible JW rule
    (the entity_clusters_rule formula) in place of the GBT scorer, so the
    whole assignment is value-exact against DuckDB."""
    from .incremental import assign_to_entities
    path = ensure_transcripts(sf_dir)
    turns = _rpc(path)
    base = turns.map_batches(_inc_rule_split(False), batch_format="pandas")
    new = turns.map_batches(_inc_rule_split(True), batch_format="pandas")

    base_records = build_conv_records(normalize_turns(base)).materialize()
    # frozen base entity table: equality blocks, JW >= 0.92, CC, plus
    # singleton entities (entity_id = own conv_id) for unlinked base convs
    bpairs = candidates(base_records, None, block_col="block_key",
                        id_col="conv_id", blocktype="equality",
                        attr_cols=["first_text_norm"], keep_unmatched=False)

    def bthr(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.grouped import typed_or_empty
        s = _jw_rule_pred(df)
        return typed_or_empty(
            s[s["pred"] >= 0.92][["conv_id_from", "conv_id_to"]])
    cc = connected_components(bpairs.map_batches(bthr, batch_format="pandas"),
                              id_from="conv_id_from", id_to="conv_id_to")
    base_ents = attach_entity_ids(base_records.select_columns(["conv_id"]),
                                  cc)

    res = assign_to_entities(new, base_records, base_ents,
                             minimum_confidence=0.8, blocktype="equality",
                             score_fn=_jw_rule_pred,
                             attr_cols=["first_text_norm"])
    return res["assignments"]


def sql_incremental_assign_rule(path: str) -> str:
    new_pred = ("(CAST(substr(conv_id, 2, 7) AS BIGINT) % 4 = 0 "
                "AND CAST(substr(conv_id, 10, 1) AS BIGINT) = 1) "
                "OR CAST(substr(conv_id, 2, 7) AS BIGINT) % 8 = 2 "
                "OR (CAST(substr(conv_id, 2, 7) AS BIGINT) % 8 = 5 "
                "AND CAST(substr(conv_id, 10, 1) AS BIGINT) = 0)")
    return f"""WITH RECURSIVE {_sql_recs(path)},
newrecs AS (SELECT * FROM recs WHERE {new_pred}),
baserecs AS (SELECT * FROM recs WHERE NOT ({new_pred})),
-- frozen base entities: JW >= 0.92 links -> connected components + singletons
bpairs AS (
  SELECT a.conv_id AS conv_id_from, b.conv_id AS conv_id_to,
         a.first_text_norm AS f_from, b.first_text_norm AS f_to
  FROM baserecs a JOIN baserecs b
    ON a.block_key = b.block_key AND a.conv_id < b.conv_id
),
blinks AS (
  SELECT conv_id_from, conv_id_to FROM bpairs
  WHERE {_SQL_PAIR_FILTER} AND {_SQL_PRED} >= 0.92
),
bedges AS (
  SELECT conv_id_from AS u, conv_id_to AS v FROM blinks
  UNION ALL SELECT conv_id_to, conv_id_from FROM blinks
),
bwalk(node, label) AS (
  SELECT u, u FROM bedges
  UNION SELECT e.v, w.label FROM bwalk w JOIN bedges e ON e.u = w.node
),
bcc AS (SELECT node, min(label) AS ent FROM bwalk GROUP BY node),
base_ent AS (
  SELECT r.conv_id, coalesce(b.ent, r.conv_id) AS entity_id
  FROM baserecs r LEFT JOIN bcc b ON b.node = r.conv_id
),
-- new vs base: JW-scored pairs, rank-1 per new conv above confidence
nb AS (
  SELECT n.conv_id AS conv_id_from, b.conv_id AS conv_id_to,
         n.first_text_norm AS f_from, b.first_text_norm AS f_to
  FROM newrecs n JOIN baserecs b ON n.block_key = b.block_key
),
nbscored AS (
  SELECT conv_id_from, conv_id_to, {_SQL_PRED} AS pred FROM nb
  WHERE {_SQL_PAIR_FILTER}
),
nbsel AS (
  SELECT conv_id_from, conv_id_to FROM (
    SELECT *, row_number() OVER (
      PARTITION BY conv_id_from ORDER BY pred DESC, conv_id_to) AS rn
    FROM nbscored)
  WHERE rn = 1 AND pred > 0.8
),
matched AS (
  SELECT s.conv_id_from, e.entity_id
  FROM nbsel s JOIN base_ent e ON s.conv_id_to = e.conv_id
),
-- within-batch link graph at the same threshold -> components
ww AS (
  SELECT a.conv_id AS conv_id_from, b.conv_id AS conv_id_to,
         a.first_text_norm AS f_from, b.first_text_norm AS f_to
  FROM newrecs a JOIN newrecs b
    ON a.block_key = b.block_key AND a.conv_id < b.conv_id
),
wlinks AS (
  SELECT conv_id_from, conv_id_to FROM ww
  WHERE {_SQL_PAIR_FILTER} AND {_SQL_PRED} > 0.8
),
wedges AS (
  SELECT conv_id_from AS u, conv_id_to AS v FROM wlinks
  UNION ALL SELECT conv_id_to, conv_id_from FROM wlinks
),
wwalk(node, label) AS (
  SELECT u, u FROM wedges
  UNION SELECT e.v, w.label FROM wwalk w JOIN wedges e ON e.u = w.node
),
wcc AS (SELECT node, min(label) AS comp FROM wwalk GROUP BY node),
compmap AS (
  SELECT r.conv_id, coalesce(c.comp, r.conv_id) AS comp_id
  FROM newrecs r LEFT JOIN wcc c ON c.node = r.conv_id
),
compent AS (
  SELECT cm.comp_id, min(m.entity_id) AS base_entity
  FROM matched m JOIN compmap cm ON m.conv_id_from = cm.conv_id
  GROUP BY cm.comp_id
)
SELECT cm.conv_id,
       coalesce(ce.base_entity, cm.comp_id) AS entity_id,
       ce.base_entity IS NOT NULL AS matched
FROM compmap cm LEFT JOIN compent ce USING (comp_id)"""


def q_interval_join(sf_dir: str):
    """Point-in-interval range join (stages/events.py interval_join — an
    operator Ray Data has no primitive for): each event joined to every
    ±5-minute window around a same-user HIGH-VALUE event (value > 220).
    Runs the bucketed hot-key mode (10-minute buckets: intervals replicate
    to every bucket they span, each match found once in the point's
    bucket)."""
    from ..stages.events import interval_join
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["event_id", "user_id", "ts", "value"])
    pts = ev.select_columns(["event_id", "user_id", "ts"])

    def windows(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.grouped import typed_or_empty
        hot = df[df["value"] > 220.0]
        return typed_or_empty(pd.DataFrame({
            "hot_event_id": hot["event_id"].to_numpy(),
            "user_id": hot["user_id"].to_numpy(),
            "start": hot["ts"] - pd.Timedelta(minutes=5),
            "end": hot["ts"] + pd.Timedelta(minutes=5)}))
    iv = ev.map_batches(windows, batch_format="pandas")
    out = interval_join(pts, iv, by="user_id", ts_col="ts",
                        start_col="start", end_col="end",
                        bucket_minutes=10.0)
    return out.select_columns(["event_id", "user_id", "hot_event_id"])


def sql_interval_join(sf_dir: str) -> str:
    return """WITH hot AS (
  SELECT event_id AS hot_event_id, user_id, ts FROM events
  WHERE value > 220.0
)
SELECT e.event_id, e.user_id, h.hot_event_id
FROM events e JOIN hot h ON e.user_id = h.user_id
 AND e.ts BETWEEN h.ts - INTERVAL 5 MINUTE AND h.ts + INTERVAL 5 MINUTE"""


def q_group_count(sf_dir: str):
    """namefreq analog (SURVEY §2.5): per-key count joined back broadcast."""
    from ..stages.corpus_stats import add_group_count
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])
    out = add_group_count(docs, "lang", "lang_freq")

    def cast(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["lang_freq"] = df["lang_freq"].astype(np.int64)
        return df
    return out.map_batches(cast, batch_format="pandas")


def sql_group_count(sf_dir: str) -> str:
    return ("SELECT doc_id, lang, "
            "CAST(count(*) OVER (PARTITION BY lang) AS BIGINT) AS lang_freq "
            "FROM documents")


def q_normalise_column(sf_dir: str):
    """min-max normalise (util.R:169-175) over lineitem quantity."""
    from ..stages.corpus_stats import normalise_column
    li = _rpc(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_linenumber", "l_quantity"])
    out = normalise_column(li, "l_quantity", "q_norm")

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["q_norm"] = df["q_norm"].round(6)
        return df
    return out.map_batches(rnd, batch_format="pandas")


def sql_normalise_column(sf_dir: str) -> str:
    return """SELECT l_orderkey, l_linenumber, l_quantity,
  round((l_quantity - min(l_quantity) OVER ()) /
        (max(l_quantity) OVER () - min(l_quantity) OVER ()), 6) AS q_norm
FROM lineitem"""


_BAND_SIGMA = 100.0
_BAND_MAXDIST = 0.3


def q_numeric_band(sf_dir: str):
    """numeric blocktype (candidates.R:74-81) as a band join on supplier
    account balance: keep pairs with gk similarity > 1-maxdist."""
    from ..stages.blocking import numeric_candidates
    sup = _rpc(f"{sf_dir}/supplier.parquet",
                          columns=["s_suppkey", "s_acctbal"])
    out = numeric_candidates(sup, sup, value_col="s_acctbal",
                             id_col="s_suppkey", sigma=_BAND_SIGMA,
                             maxdist=_BAND_MAXDIST, attr_cols=["s_acctbal"])

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["score"].notna()]
        out = pd.DataFrame({
            "s_suppkey_from": df["s_suppkey_from"].astype(np.int64),
            "s_suppkey_to": df["s_suppkey_to"].astype(np.int64),
            "gk_sim": df["score"].round(6),
        })
        return out
    return out.map_batches(proj, batch_format="pandas")


def sql_numeric_band(sf_dir: str) -> str:
    return f"""SELECT a.s_suppkey AS s_suppkey_from,
       b.s_suppkey AS s_suppkey_to,
       round(exp(-abs(a.s_acctbal - b.s_acctbal) / ({_BAND_SIGMA} * {_BAND_SIGMA})), 6) AS gk_sim
FROM supplier a CROSS JOIN supplier b
WHERE exp(-abs(a.s_acctbal - b.s_acctbal) / ({_BAND_SIGMA} * {_BAND_SIGMA})) > {1 - _BAND_MAXDIST}"""


def q_embedding_dup(sf_dir: str):
    """embedding-cosine near-dup pairs (exact single-block oracle mode)."""
    from ..stages.dedup import embedding_dup_pairs
    emb = _rpc(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    out = embedding_dup_pairs(emb, threshold=0.4, exact_block=True)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "id_from": df["id_from"].astype(np.int64),
            "id_to": df["id_to"].astype(np.int64),
            "cosine": df["cosine"].round(4),
        })
    return out.map_batches(proj, batch_format="pandas")


def q_semantic_dedup(sf_dir: str):
    """SemDeDup-style cluster-scoped near-dup removal over the embeddings
    table (stages/dedup.py:semantic_dedup — k-means iterative, so
    rows-only: no SQL oracle)."""
    from ..stages.dedup import semantic_dedup
    emb = _rpc(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    return semantic_dedup(emb, id_col="vec_id", threshold=0.4)


def sql_embedding_dup(sf_dir: str) -> str:
    return """SELECT a.vec_id AS id_from, b.vec_id AS id_to,
       round(CAST(list_cosine_similarity(a.embedding, b.embedding) AS DOUBLE), 4) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4"""


_BIGRAM_MAXDIST = 0.35


def _bigram_sides(sf_dir: str):
    """Two linkage sides from the conv records: odd-epoch records link TO
    even-epoch records (the vignette's year==1828 vs year<1828 split,
    vignettes/example.rmd:78-84, grafted onto transcript epochs)."""
    # pin: both sides AND the blocker's unmatched-retention pass consume
    # recs — lazy, each would re-run the whole conv-records build
    recs = build_conv_records(normalize_turns(_read_turns(sf_dir)))\
        .materialize()

    def side(parity: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            out = df[df["epoch"] % 2 == parity]
            return out[["conv_id", "first_text_prefix"]]
        return f
    f = recs.map_batches(side(1), batch_format="pandas")
    t = recs.map_batches(side(0), batch_format="pandas")
    return f, t


def _q_bigram(sf_dir: str, idf: bool):
    from ..stages.bigram import bigram_candidates
    f, t = _bigram_sides(sf_dir)
    out = bigram_candidates(f, t, blockvariable="first_text_prefix",
                            id_col="conv_id", maxdist=_BIGRAM_MAXDIST,
                            idf=idf)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["score"] = df["score"].round(6)
        return df[["id_from", "id_to", "score", "matches"]]
    return out.map_batches(proj, batch_format="pandas")


def q_bigram_candidates(sf_dir: str):
    """Corpus-wide bigram-cosine candidates (candidates.R:82-96, the
    reference's DEFAULT blocktype) — no pre-block."""
    return _q_bigram(sf_dir, idf=False)


def q_idf_bigram_candidates(sf_dir: str):
    """idf-weighted variant (candidates.R:97-112)."""
    return _q_bigram(sf_dir, idf=True)


def _sql_bigram(path: str, idf: bool) -> str:
    maxsim = 1.0 - _BIGRAM_MAXDIST
    prefix = "substr(coalesce(first_text_norm, ''), 1, 16)"
    weighted = (
        "fw AS (SELECT fb.conv_id, fb.bg, fb.c * w.w AS v "
        "FROM fb JOIN w USING (bg)),\n"
        "tw AS (SELECT tb.conv_id, tb.bg, tb.c * w.w AS v "
        "FROM tb JOIN w USING (bg)),\n"
        if idf else
        "fw AS (SELECT conv_id, bg, CAST(c AS DOUBLE) AS v FROM fb),\n"
        "tw AS (SELECT conv_id, bg, CAST(c AS DOUBLE) AS v FROM tb),\n")
    idf_ctes = (
        "nn AS (SELECT (SELECT count(*) FROM f) + (SELECT count(*) FROM t) "
        "AS n),\n"
        "w AS (SELECT bg, ln(CAST(nn.n AS DOUBLE) / dfs.df) AS w FROM "
        "(SELECT bg, CAST(count(*) AS DOUBLE) AS df FROM "
        "(SELECT conv_id, bg FROM fb UNION ALL SELECT conv_id, bg FROM tb) "
        "GROUP BY bg) dfs CROSS JOIN nn),\n" if idf else "")
    return f"""WITH {_sql_recs(path)},
f AS (SELECT conv_id, {prefix} AS s FROM recs WHERE epoch % 2 = 1),
t AS (SELECT conv_id, {prefix} AS s FROM recs WHERE epoch % 2 = 0),
fb AS (
  SELECT conv_id, substr(s2, CAST(g AS INTEGER), 2) AS bg, count(*) AS c
  FROM (SELECT conv_id, s2, unnest(range(1, length(s2))) AS g
        FROM (SELECT conv_id, '#' || s || '#' AS s2 FROM f))
  GROUP BY 1, 2
),
tb AS (
  SELECT conv_id, substr(s2, CAST(g AS INTEGER), 2) AS bg, count(*) AS c
  FROM (SELECT conv_id, s2, unnest(range(1, length(s2))) AS g
        FROM (SELECT conv_id, '#' || s || '#' AS s2 FROM t))
  GROUP BY 1, 2
),
{idf_ctes}{weighted}fn AS (SELECT conv_id, sqrt(sum(v * v)) AS nrm FROM fw GROUP BY conv_id),
tn AS (SELECT conv_id, sqrt(sum(v * v)) AS nrm FROM tw GROUP BY conv_id),
dots AS (
  SELECT fw.conv_id AS a, tw.conv_id AS b, sum(fw.v * tw.v) AS d
  FROM fw JOIN tw USING (bg) GROUP BY 1, 2
),
cand AS (
  SELECT a, b, d / (fn.nrm * tn.nrm) AS score
  FROM dots JOIN fn ON fn.conv_id = a JOIN tn ON tn.conv_id = b
  WHERE d / (fn.nrm * tn.nrm) > {maxsim}
),
m AS (SELECT a, CAST(count(*) AS DOUBLE) AS matches FROM cand GROUP BY a)
SELECT f.conv_id AS id_from, cand.b AS id_to, round(cand.score, 6) AS score,
       coalesce(m.matches, 0.0) AS matches
FROM f LEFT JOIN cand ON cand.a = f.conv_id LEFT JOIN m ON m.a = f.conv_id"""


def sql_bigram_candidates(path: str) -> str:
    return _sql_bigram(path, idf=False)


def sql_idf_bigram_candidates(path: str) -> str:
    return _sql_bigram(path, idf=True)


# --- rows-only queries (non-SQL-expressible: models, sketches, stubs) ------

def q_flagship_entities(sf_dir: str):
    turns = _read_turns(sf_dir)
    out = link_transcripts(turns, checkpoint_dir=None, sort_output=False)
    return out["entities"]


def q_minhash_dedup(sf_dir: str):
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return minhash_lsh_dedup(docs, jaccard_threshold=0.5)


def q_simhash(sf_dir: str):
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return simhash_signatures(docs).select_columns(["doc_id", "simhash"])


def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup PAIRS: banded chunk LSH + exact Hamming verify
    (pigeonhole-exact recall for hamming <= 6 with 8 bands)."""
    from ..stages.dedup import simhash_dup_pairs
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return simhash_dup_pairs(docs, max_hamming=6, bands=8)


# SQL CTE: simhash signature parity with stages/dedup.simhash_signatures —
# FNV-1a over each lowercased whitespace token's CODEPOINTS (recursive CTE,
# exact 64-bit wraparound via HUGEINT mod 2^64), per-bit ±1 sums over the
# token MULTISET, sign -> bit, little bit-order packing, signed-int64 view
_SQL_SIMHASH_SIG = r"""RECURSIVE toks AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+')) AS tok
  FROM documents
),
dt AS (SELECT DISTINCT tok FROM toks),
fnv(tok, pos, h) AS (
  SELECT tok, 1, CAST(14695981039346656037 AS HUGEINT) FROM dt
  UNION ALL
  SELECT tok, pos + 1,
    (xor(h, CAST(unicode(substr(tok, pos, 1)) AS HUGEINT)) * 1099511628211)
      % CAST(18446744073709551616 AS HUGEINT)
  FROM fnv WHERE pos <= length(tok)
),
th AS (SELECT tok, CAST(h AS UBIGINT) AS h FROM fnv
       WHERE pos = length(tok) + 1),
bits AS (
  SELECT t.doc_id, b.j,
         sum(CASE WHEN (th.h >> b.j) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM toks t JOIN th USING (tok)
  CROSS JOIN (SELECT unnest(range(0, 64)) AS j) b
  GROUP BY 1, 2
),
sigsum AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0
             THEN (CAST(1 AS UBIGINT) << CAST(j AS INTEGER)) ELSE 0 END) AS s
  FROM bits GROUP BY doc_id
),
sig AS (
  SELECT d.doc_id,
    CAST(CASE WHEN coalesce(sigsum.s, 0) >= CAST(9223372036854775808 AS HUGEINT)
         THEN coalesce(sigsum.s, 0) - CAST(18446744073709551616 AS HUGEINT)
         ELSE coalesce(sigsum.s, 0) END AS BIGINT) AS simhash
  FROM documents d LEFT JOIN sigsum USING (doc_id)
)"""


def sql_simhash(sf_dir: str) -> str:
    return f"WITH {_SQL_SIMHASH_SIG}\nSELECT doc_id, simhash FROM sig"


def sql_simhash_pairs(sf_dir: str) -> str:
    # all-pairs is fine at oracle scale; the engine's banded LSH has
    # pigeonhole-EXACT recall at hamming <= 6 with 8 bands, so the sets
    # match value-for-value
    return f"""WITH {_SQL_SIMHASH_SIG}
SELECT a.doc_id AS id_from, b.doc_id AS id_to,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 6"""


def _sql_splitmix64(z: str) -> str:
    """Exact splitmix64 of UBIGINT expression ``z`` (stages/dedup.py:137)
    as a single SQL expression. The two 64-bit odd constants are too large
    for a direct INT128 multiply (2^64 x 2^64 overflows HUGEINT), so each
    multiply runs in 32-bit limbs: a*C mod 2^64 = a_lo*C_lo +
    ((a_lo*C_hi + a_hi*C_lo) mod 2^32) << 32, every term < 2^65."""
    def mul64(expr: str, c: int) -> str:
        chi, clo = c >> 32, c & 0xFFFFFFFF
        return (f"CAST(((CAST(({expr}) & 4294967295 AS HUGEINT) * {clo}) + "
                f"(((CAST(({expr}) & 4294967295 AS HUGEINT) * {chi} + "
                f"CAST(({expr}) >> 32 AS HUGEINT) * {clo}) % 4294967296) "
                f"* 4294967296)) % 18446744073709551616 AS UBIGINT)")
    s1 = (f"CAST((CAST({z} AS HUGEINT) + 11400714819323198485) "
          f"% 18446744073709551616 AS UBIGINT)")
    s2 = mul64(f"xor({s1}, {s1} >> 30)", 0xBF58476D1CE4E5B9)
    s3 = mul64(f"xor({s2}, {s2} >> 27)", 0x94D049BB133111EB)
    return f"xor({s3}, {s3} >> 31)"


def _sql_minhash_ctes(src: str) -> str:
    """CTE chain replicating minhash_lsh_dedup defaults (num_perm=64,
    bands=16, shingle_k=5) over relation ``src`` (doc_id, text): FNV-1a
    over each 5-char shingle's codepoints, 64 splitmix64 permutation
    streams (min per stream). Yields ``mh_eqv(id_from, id_to, e)`` with
    ``e`` the 64-slot equality bitlist for every id_from < id_to pair.
    The engine hashes each band into a 64-bit key; the SQL uses true
    band-slot equality — identical output modulo 2^-64 key collisions."""
    fnv = "14695981039346656037"
    mod = "18446744073709551616"
    prime = "1099511628211"   # < 2^40: direct HUGEINT multiply fits

    def fnv_step(h: str, c: str) -> str:
        return (f"CAST((CAST(xor({h}, {c}) AS HUGEINT) * {prime}) "
                f"% {mod} AS UBIGINT)")

    h = f"CAST({fnv} AS UBIGINT)"
    for j in range(5):
        h = fnv_step(h, f"c{j}")
    sm_seed = _sql_splitmix64("i")
    sm_hash = _sql_splitmix64("xor(h, seed)")
    return f"""mh_pos AS (
  SELECT doc_id, text, unnest(range(1, length(text) - 3)) AS p
  FROM {src} WHERE length(text) >= 5
),
mh_ch AS (
  SELECT doc_id,
         {", ".join(f"CAST(unicode(substr(text, CAST(p AS INTEGER) + {j}, 1))"
                    f" AS UBIGINT) AS c{j}" for j in range(5))}
  FROM mh_pos
),
mh_dsh AS (SELECT DISTINCT doc_id, {h} AS h FROM mh_ch),
mh_str AS (SELECT CAST(unnest(range(1, 65)) AS UBIGINT) AS i),
mh_seeds AS (SELECT i, {sm_seed} AS seed FROM mh_str),
mh_msig AS (
  SELECT d.doc_id, s.i, min({sm_hash}) AS slot
  FROM mh_dsh d CROSS JOIN mh_seeds s GROUP BY 1, 2
),
mh_allslots AS (
  SELECT d.doc_id, s.i,
         coalesce(m.slot, CAST(18446744073709551615 AS UBIGINT)) AS slot
  FROM {src} d CROSS JOIN mh_str s
  LEFT JOIN mh_msig m ON m.doc_id = d.doc_id AND m.i = s.i
),
mh_sigv AS (SELECT doc_id, list(slot ORDER BY i) AS v
            FROM mh_allslots GROUP BY doc_id),
mh_eqv AS (
  SELECT a.doc_id AS id_from, b.doc_id AS id_to,
         list_transform(range(1, 65),
                        j -> CASE WHEN a.v[j] = b.v[j] THEN 1 ELSE 0 END)
           AS e
  FROM mh_sigv a JOIN mh_sigv b ON a.doc_id < b.doc_id
)"""


_SQL_MINHASH_BAND_MATCH = ("list_max(list_transform(range(0, 16), "
                           "b -> e[4*b+1] * e[4*b+2] * e[4*b+3] * e[4*b+4]"
                           ")) = 1")


def sql_minhash_dedup(sf_dir: str) -> str:
    return f"""WITH {_sql_minhash_ctes("documents")}
SELECT id_from, id_to, CAST(list_sum(e) AS DOUBLE) / 64.0 AS est_jaccard
FROM mh_eqv
WHERE CAST(list_sum(e) AS DOUBLE) / 64.0 >= 0.5
  AND {_SQL_MINHASH_BAND_MATCH}"""


def q_ngram_dedup(sf_dir: str):
    """Exact character-5-gram Jaccard near-dup pairs (exact small-corpus
    path; the unblocked-at-scale path adds a MinHash-LSH prefilter and is
    pytest-covered)."""
    from ..stages.dedup import ngram_jaccard_pairs
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    out = ngram_jaccard_pairs(docs, n=5, threshold=0.5)

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["jaccard"] = df["jaccard"].round(6)
        return df
    return out.map_batches(rnd, batch_format="pandas")


def sql_ngram_dedup(sf_dir: str) -> str:
    return """WITH g AS (
  SELECT DISTINCT doc_id, substr(text, CAST(i AS INTEGER), 5) AS gm
  FROM (SELECT doc_id, text, unnest(range(1, length(text) - 3)) AS i
        FROM documents WHERE length(text) >= 5)
),
s AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS c FROM g GROUP BY doc_id),
x AS (
  SELECT a.doc_id AS id_from, b.doc_id AS id_to,
         CAST(count(*) AS DOUBLE) AS inter
  FROM g a JOIN g b ON a.gm = b.gm AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT x.id_from, x.id_to,
       round(x.inter / (sa.c + sb.c - x.inter), 6) AS jaccard
FROM x JOIN s sa ON sa.doc_id = x.id_from JOIN s sb ON sb.doc_id = x.id_to
WHERE x.inter / (sa.c + sb.c - x.inter) >= 0.5"""


def q_segment_dedup(sf_dir: str):
    """CCNet-style duplicated-segment removal: drop every 20-word window
    whose global occurrence count exceeds 2, rebuild docs in order
    (stages/dedup.py:segment_dedup)."""
    from ..stages.dedup import segment_dedup
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return segment_dedup(docs, words_per_seg=20, max_count=2)


def sql_segment_dedup(sf_dir: str) -> str:
    return """WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS words FROM documents
),
wn AS (
  SELECT doc_id, words,
         greatest(1, CAST(ceil(len(words) / 20.0) AS BIGINT)) AS n_seg
  FROM w
),
segs AS (
  SELECT doc_id,
         unnest(generate_series(1, n_seg)) AS seg_idx,
         unnest([array_to_string(words[((i-1)*20+1):(i*20)], ' ')
                 FOR i IN generate_series(1, n_seg)]) AS seg
  FROM wn
),
hot AS (SELECT seg FROM segs GROUP BY seg HAVING count(*) > 2),
sel AS (
  SELECT s.doc_id, s.seg_idx, s.seg, h.seg IS NOT NULL AS is_hot
  FROM segs s LEFT JOIN hot h USING (seg)
)
SELECT doc_id,
       coalesce(string_agg(seg, ' ' ORDER BY seg_idx)
                FILTER (WHERE NOT is_hot), '') AS text_clean,
       CAST(count(*) AS BIGINT) AS n_seg,
       CAST(count(*) FILTER (WHERE is_hot) AS BIGINT) AS n_removed
FROM sel GROUP BY doc_id"""


_DS_WIN = 8      # dup_spans sliding-window width (words)
_DS_MIN_DOCS = 2


def q_dup_spans(sf_dir: str):
    """Cross-doc repeated-span detection: merged word spans of sliding
    8-word windows appearing in >=2 distinct docs (stages/dedup.py:
    dup_spans — the hash stand-in for Lee et al. 2022 suffix-array
    substring dedup)."""
    from ..stages.dedup import dup_spans
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    return dup_spans(docs, win=_DS_WIN, min_docs=_DS_MIN_DOCS)


def sql_dup_spans(sf_dir: str) -> str:
    w, k = _DS_WIN, _DS_WIN - 1
    return f"""WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS words FROM documents
),
wins AS (
  SELECT doc_id,
         unnest(generate_series(1, len(words) - {k})) AS i,
         unnest([array_to_string(words[j:(j + {k})], ' ')
                 FOR j IN generate_series(1, len(words) - {k})]) AS wtext
  FROM w WHERE len(words) >= {w}
),
hot AS (
  SELECT wtext FROM (SELECT DISTINCT doc_id, wtext FROM wins)
  GROUP BY wtext HAVING count(*) >= {_DS_MIN_DOCS}
),
f AS (SELECT doc_id, i FROM wins JOIN hot USING (wtext)),
g AS (
  SELECT doc_id, i,
         CASE WHEN lag(i) OVER (PARTITION BY doc_id ORDER BY i) IS NULL
                   OR i - lag(i) OVER (PARTITION BY doc_id ORDER BY i) > {w}
              THEN 1 ELSE 0 END AS brk
  FROM f
),
isl AS (
  SELECT doc_id, i,
         sum(brk) OVER (PARTITION BY doc_id ORDER BY i) AS gid
  FROM g
)
SELECT doc_id, CAST(min(i) AS BIGINT) AS span_start,
       CAST(max(i) + {k} AS BIGINT) AS span_end,
       CAST(count(*) AS BIGINT) AS n_windows
FROM isl GROUP BY doc_id, gid"""


def q_dup_span_removal(sf_dir: str):
    """Detect-then-remove exact-substring dedup: dup_spans feeds
    remove_spans, rebuilding every doc with its cross-doc duplicated
    word spans scrubbed (stages/dedup.py:remove_spans)."""
    from ..stages.dedup import dup_spans, remove_spans
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    spans = dup_spans(docs, win=_DS_WIN, min_docs=_DS_MIN_DOCS)
    return remove_spans(docs, spans)


def sql_dup_span_removal(sf_dir: str) -> str:
    w, k = _DS_WIN, _DS_WIN - 1
    return f"""WITH w AS (
  SELECT doc_id, string_split(coalesce(text, ''), ' ') AS words
  FROM documents
),
wins AS (
  SELECT doc_id,
         unnest(generate_series(1, len(words) - {k})) AS i,
         unnest([array_to_string(words[j:(j + {k})], ' ')
                 FOR j IN generate_series(1, len(words) - {k})]) AS wtext
  FROM w WHERE len(words) >= {w}
),
hot AS (
  SELECT wtext FROM (SELECT DISTINCT doc_id, wtext FROM wins)
  GROUP BY wtext HAVING count(*) >= {_DS_MIN_DOCS}
),
f AS (SELECT doc_id, i FROM wins JOIN hot USING (wtext)),
cov AS (
  SELECT DISTINCT doc_id, unnest(generate_series(i, i + {k})) AS p FROM f
),
widx AS (
  SELECT doc_id, unnest(generate_series(1, len(words))) AS p,
         unnest(words) AS word
  FROM w
)
SELECT widx.doc_id,
       coalesce(string_agg(word, ' ' ORDER BY p)
                FILTER (WHERE cov.p IS NULL), '') AS text_clean,
       CAST(count(*) AS BIGINT) AS n_words,
       CAST(count(*) FILTER (WHERE cov.p IS NOT NULL) AS BIGINT)
           AS n_removed
FROM widx LEFT JOIN cov USING (doc_id, p)
GROUP BY widx.doc_id"""


def q_dedup_lines(sf_dir: str):
    """Within-doc duplicate-"line" removal, keep-first, order-preserving
    (stages/dedup.py:dedup_lines). The test corpus is single-line word
    soup, so this instance runs the operator with sep=' ' — same split /
    keep-first / ordered-rejoin machinery a newline corpus exercises."""
    from ..stages.dedup import dedup_lines
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    return dedup_lines(docs, sep=" ")


def sql_dedup_lines(sf_dir: str) -> str:
    return """WITH l AS (
  SELECT doc_id,
         unnest(generate_series(1, len(parts))) AS pos,
         unnest(parts) AS line
  FROM (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS parts
        FROM documents)
),
r AS (
  SELECT doc_id, pos, line,
         row_number() OVER (PARTITION BY doc_id, line ORDER BY pos) AS rn
  FROM l
)
SELECT doc_id,
       coalesce(string_agg(line, ' ' ORDER BY pos) FILTER (WHERE rn = 1),
                '') AS text_clean,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(count(*) FILTER (WHERE rn > 1) AS BIGINT) AS n_removed
FROM r GROUP BY doc_id"""


def q_pair_counts(sf_dir: str):
    """BPE-style adjacent token-pair counts with per-batch partial
    aggregation (stages/corpus_stats.py:pair_counts)."""
    from ..stages.corpus_stats import pair_counts
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    return pair_counts(docs, min_count=5)


def sql_pair_counts(sf_dir: str) -> str:
    return """WITH w AS (
  SELECT string_split(coalesce(text, ''), ' ') AS words FROM documents
),
p AS (
  SELECT unnest(words[1:len(words) - 1]) AS left_tok,
         unnest(words[2:len(words)]) AS right_tok
  FROM w WHERE len(words) >= 2
)
SELECT left_tok, right_tok, CAST(count(*) AS BIGINT) AS n
FROM p WHERE left_tok <> '' AND right_tok <> ''
GROUP BY left_tok, right_tok HAVING count(*) >= 5"""


def q_repetition_stats(sf_dir: str):
    """Gopher-style word-repetition signals
    (stages/textstats.py:add_repetition_stats)."""
    from ..stages.textstats import add_repetition_stats
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return add_repetition_stats(docs).select_columns(
        ["doc_id", "dup_word_frac", "top_word_frac", "top_bigram_frac"])


def sql_repetition_stats(sf_dir: str) -> str:
    return """WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS words FROM documents
),
wc AS (
  SELECT doc_id, word, count(*) AS cnt
  FROM (SELECT doc_id, unnest(words) AS word FROM w)
  GROUP BY doc_id, word
),
agg AS (
  SELECT doc_id, sum(cnt) AS n_words, count(*) AS n_distinct,
         max(cnt) AS top_cnt
  FROM wc GROUP BY doc_id
),
bg AS (
  SELECT doc_id, max(c) AS top_big FROM (
    SELECT doc_id, big, count(*) AS c
    FROM (SELECT doc_id,
                 unnest([words[i] || chr(1) || words[i+1]
                         FOR i IN generate_series(1, len(words)-1)]) AS big
          FROM w WHERE len(words) >= 2)
    GROUP BY doc_id, big)
  GROUP BY doc_id
)
SELECT a.doc_id,
       CAST(a.n_words - a.n_distinct AS DOUBLE) / a.n_words AS dup_word_frac,
       CAST(a.top_cnt AS DOUBLE) / a.n_words AS top_word_frac,
       coalesce(CAST(b.top_big AS DOUBLE) / (a.n_words - 1), 0.0)
         AS top_bigram_frac
FROM agg a LEFT JOIN bg b USING (doc_id)"""


def q_pii_redact(sf_dir: str):
    """PII detection + redaction (stages/pii.py): the corpus text is first
    augmented with deterministic synthetic PII (email/IP/phone derived from
    doc_id — the synthetic documents don't naturally contain any), then
    counted and masked. The SQL oracle applies the SAME augmentation and
    the same RE2-subset patterns."""
    from ..stages.pii import add_pii_stats, redact_pii
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def aug(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        did = df["doc_id"].astype(np.int64)
        df["text"] = (df["text"].fillna("") + " contact user"
                      + did.astype(str) + "@mail.example.com ip 10.0."
                      + (did % 256).astype(str) + ".7 tel +3120555"
                      + (1000 + did % 9000).astype(str))
        return df

    out = redact_pii(add_pii_stats(docs.map_batches(
        aug, batch_format="pandas")))
    return out.select_columns(
        ["doc_id", "n_emails", "n_ips", "n_phones", "text_redacted"])


def sql_pii_redact(sf_dir: str) -> str:
    from ..stages.pii import PII_PATTERNS
    pats = {k: p for k, (p, _r) in PII_PATTERNS.items()}
    repl = {k: r for k, (_p, r) in PII_PATTERNS.items()}
    red = "s"
    for cat in PII_PATTERNS:  # declaration order = engine order
        red = f"regexp_replace({red}, '{pats[cat]}', '{repl[cat]}', 'g')"
    counts = ",\n       ".join(
        f"CAST(length(regexp_extract_all(s, '{pats[cat]}')) AS BIGINT) "
        f"AS n_{cat}s" for cat in PII_PATTERNS)
    return f"""WITH aug AS (
  SELECT doc_id,
         coalesce(text, '') || ' contact user' || CAST(doc_id AS VARCHAR)
         || '@mail.example.com ip 10.0.' || CAST(doc_id % 256 AS VARCHAR)
         || '.7 tel +3120555' || CAST(1000 + doc_id % 9000 AS VARCHAR) AS s
  FROM documents
)
SELECT doc_id,
       {counts},
       {red} AS text_redacted
FROM aug"""


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (stages/decontam.py): docs sharing any
    word 8-gram with the 'benchmark' slice (doc_id % 7 == 0) are flagged;
    the benchmark n-gram hash set is broadcast, the corpus side streams."""
    from ..stages.decontam import decontaminate
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def keep_bench(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["doc_id"] % 7 == 0]

    def keep_corpus(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["doc_id"] % 7 != 0]

    bench = docs.map_batches(keep_bench, batch_format="pandas")
    corpus = docs.map_batches(keep_corpus, batch_format="pandas")
    return decontaminate(corpus, bench, n=8)


def sql_decontaminate(sf_dir: str) -> str:
    return """WITH w AS (
  SELECT doc_id, string_split(coalesce(text, ''), ' ') AS words
  FROM documents
),
g AS (
  SELECT doc_id,
         unnest([array_to_string(words[i:i+7], ' ')
                 FOR i IN generate_series(1, len(words) - 7)]) AS gm
  FROM w WHERE len(words) >= 8
),
bg AS (SELECT DISTINCT gm FROM g WHERE doc_id % 7 = 0),
hits AS (
  SELECT g.doc_id, count(DISTINCT g.gm) AS n
  FROM g JOIN bg USING (gm) WHERE g.doc_id % 7 <> 0
  GROUP BY g.doc_id
)
SELECT d.doc_id,
       CAST(coalesce(h.n, 0) AS BIGINT) AS n_hit_ngrams,
       coalesce(h.n, 0) > 0 AS contaminated
FROM documents d LEFT JOIN hits h USING (doc_id)
WHERE d.doc_id % 7 <> 0"""


def q_vocab_counts(sf_dir: str):
    """Corpus vocabulary with partial per-batch aggregation
    (stages/corpus_stats.py:vocab_counts)."""
    from ..stages.corpus_stats import vocab_counts
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return vocab_counts(docs, min_count=5)


def sql_vocab_counts(sf_dir: str) -> str:
    return """SELECT token, CAST(count(*) AS BIGINT) AS n
FROM (SELECT unnest(string_split(coalesce(text, ''), ' ')) AS token
      FROM documents)
WHERE token <> ''
GROUP BY token HAVING count(*) >= 5"""


def q_encode_tokens(sf_dir: str):
    """Tokenizer encode pass: vocab_counts -> broadcast-vocab token-id
    stream (stages/corpus_stats.py:encode_tokens — the step before
    pack_by_budget shard packing)."""
    from ..stages.corpus_stats import encode_tokens, vocab_counts
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    return encode_tokens(docs, vocab_counts(docs, min_count=5))


def sql_encode_tokens(sf_dir: str) -> str:
    return """WITH w AS (
  SELECT doc_id, string_split(coalesce(text, ''), ' ') AS words
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(generate_series(1, len(words))) AS pos,
         unnest(words) AS token
  FROM w
),
v0 AS (
  SELECT token, count(*) AS n
  FROM (SELECT unnest(string_split(coalesce(text, ''), ' ')) AS token
        FROM documents)
  WHERE token <> '' GROUP BY token HAVING count(*) >= 5
),
v AS (
  SELECT token, row_number() OVER (ORDER BY n DESC, token) AS token_id
  FROM v0
)
SELECT t.doc_id, CAST(t.pos AS BIGINT) AS pos,
       CAST(coalesce(v.token_id, 0) AS BIGINT) AS token_id
FROM tok t LEFT JOIN v USING (token)"""


def q_price_histogram(sf_dir: str):
    """Fixed-width 20-bin histogram of order totals (stages/agg.py:
    histogram — per-batch bincount partials, one merge task)."""
    from ..stages.agg import histogram
    orders = _rpc(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    return histogram(orders, "o_totalprice", lo=0.0, hi=500_000.0, bins=20)


def sql_price_histogram(sf_dir: str) -> str:
    w = 500_000.0 / 20
    return f"""WITH b AS (
  SELECT CAST(least(greatest(floor(o_totalprice / {w}), 0), 19) AS BIGINT)
           AS bin
  FROM orders WHERE o_totalprice IS NOT NULL
),
g AS (SELECT bin, count(*) AS n FROM b GROUP BY bin),
allb AS (SELECT unnest(generate_series(0, 19)) AS bin)
SELECT CAST(allb.bin AS BIGINT) AS bin,
       CAST(allb.bin AS DOUBLE) * {w} AS lo_edge,
       CAST(coalesce(g.n, 0) AS BIGINT) AS n
FROM allb LEFT JOIN g USING (bin)"""


def q_mad_outliers(sf_dir: str):
    """Robust MAD outlier flag on document length (stages/scan.py:
    mad_outliers — two exact-quantile passes + a stateless flag pass)."""
    from ..stages.scan import mad_outliers
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "n_chars"])
    flagged, _med, _mad = mad_outliers(docs, "n_chars", k=2.0)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "n_chars": df["n_chars"].astype(np.int64),
            "is_outlier": df["is_outlier"].astype(np.int64)})
    return flagged.map_batches(proj, batch_format="pandas")


def sql_mad_outliers(sf_dir: str) -> str:
    return """WITH med AS (
  SELECT quantile_disc(n_chars, 0.5) AS m FROM documents
),
mad AS (
  SELECT quantile_disc(abs(CAST(n_chars AS DOUBLE) - (SELECT m FROM med)),
                       0.5) AS d
  FROM documents
)
SELECT doc_id, n_chars,
       CAST(abs(CAST(n_chars AS DOUBLE) - (SELECT m FROM med))
            > 2.0 * 1.4826 * (SELECT d FROM mad) AS BIGINT) AS is_outlier
FROM documents"""


def q_latest_events(sf_dir: str):
    """CDC latest-wins compaction (stages/cdc.py): newest event per
    (user, type) — one co-partition shuffle, vectorized keep-last."""
    from ..stages.cdc import compact_latest
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["event_id", "ts", "user_id", "event_type", "value"])
    out = compact_latest(ev, ["user_id", "event_type"], "ts",
                         tiebreak_cols="event_id")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["value"] = df["value"].round(6)
        return df[["user_id", "event_type", "event_id", "ts", "value"]]
    return out.map_batches(proj, batch_format="pandas")


def sql_latest_events(sf_dir: str) -> str:
    return """SELECT user_id, event_type, event_id, ts, round(value, 6) AS value
FROM events
QUALIFY row_number() OVER (PARTITION BY user_id, event_type
                           ORDER BY ts DESC, event_id DESC) = 1"""


_FUNNEL_STEPS = ("view", "click", "purchase")


def q_funnel_steps(sf_dir: str):
    """First-touch conversion funnel view -> click -> purchase
    (stages/events.py funnel): per-user earliest strictly-ordered
    completion times + steps_completed."""
    from ..stages.events import funnel
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["user_id", "ts", "event_type"])
    return funnel(ev, _FUNNEL_STEPS)


def sql_funnel_steps(sf_dir: str) -> str:
    s1, s2, s3 = _FUNNEL_STEPS
    return f"""WITH s1 AS (
  SELECT user_id, min(ts) AS t1 FROM events
  WHERE event_type = '{s1}' GROUP BY user_id
),
s2 AS (
  SELECT e.user_id, min(e.ts) AS t2 FROM events e
  JOIN s1 ON e.user_id = s1.user_id AND e.ts > s1.t1
  WHERE e.event_type = '{s2}' GROUP BY e.user_id
),
s3 AS (
  SELECT e.user_id, min(e.ts) AS t3 FROM events e
  JOIN s2 ON e.user_id = s2.user_id AND e.ts > s2.t2
  WHERE e.event_type = '{s3}' GROUP BY e.user_id
)
SELECT u.user_id,
       CAST(t1 IS NOT NULL AS BIGINT) + CAST(t2 IS NOT NULL AS BIGINT)
         + CAST(t3 IS NOT NULL AS BIGINT) AS steps_completed,
       t1, t2, t3
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN s1 USING (user_id)
LEFT JOIN s2 USING (user_id)
LEFT JOIN s3 USING (user_id)"""


def q_resample_daily(sf_dir: str):
    """Per-user daily-grid forward-fill resample (stages/events.py
    resample_ffill): one shuffle + one grouped ffill, no per-key loop."""
    from ..stages.events import resample_ffill
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["user_id", "ts", "value", "event_id"])
    out = resample_ffill(ev, key_col="user_id", ts_col="ts",
                         value_col="value", every_s=86400.0,
                         tiebreak_col="event_id")

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["value"] = df["value"].round(6)
        return df
    return out.map_batches(rnd, batch_format="pandas")


def sql_resample_daily(sf_dir: str) -> str:
    return """WITH dedup AS (
  SELECT user_id, ts, value FROM events
  QUALIFY row_number() OVER (PARTITION BY user_id, ts
                             ORDER BY event_id DESC) = 1
),
bounds AS (
  SELECT user_id,
         CAST(floor(epoch_us(min(ts)) / 86400000000) AS BIGINT) AS lo,
         CAST(floor(epoch_us(max(ts)) / 86400000000) AS BIGINT) AS hi
  FROM events GROUP BY user_id
),
grid AS (
  SELECT b.user_id,
         make_timestamp(CAST(g.b AS BIGINT) * 86400000000) AS grid_ts
  FROM bounds b, LATERAL unnest(generate_series(b.lo, b.hi)) AS g(b)
)
SELECT g.user_id, g.grid_ts, round(d.value, 6) AS value
FROM grid g ASOF LEFT JOIN dedup d
  ON g.user_id = d.user_id AND g.grid_ts >= d.ts"""


def q_event_type_mode(sf_dir: str):
    """Grouped MODE (stages/agg.py mode_by): most frequent event type per
    user, smallest-value tiebreak — per-batch distinct-pair partials, one
    slim shuffle."""
    from ..stages.agg import mode_by
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["user_id", "event_type"])
    return mode_by(ev, "user_id", "event_type")


def sql_event_type_mode(sf_dir: str) -> str:
    return """SELECT user_id, event_type AS mode, n FROM (
  SELECT user_id, event_type, count(*) AS n FROM events GROUP BY 1, 2)
QUALIFY row_number() OVER (PARTITION BY user_id
                           ORDER BY n DESC, event_type) = 1"""


def q_orders_diff(sf_dir: str):
    """Keyed snapshot diff (stages/cdc.py snapshot_diff): orders vs a
    deterministically mutated v2 (price bump on %13 keys, %17 keys
    dropped, %19 keys re-added under shifted ids) — slim (key, rowhash)
    rows only through the one shuffle."""
    from ..stages.cdc import snapshot_diff
    cols = ["o_orderkey", "o_custkey", "o_totalprice"]
    base = _rpc(f"{sf_dir}/orders.parquet", columns=cols)

    def mk_v2(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["o_orderkey"] % 17 != 0].copy()
        bump = (keep["o_orderkey"] % 13 == 0).to_numpy()
        keep.loc[bump, "o_totalprice"] = keep.loc[bump, "o_totalprice"] \
            + 10.0
        add = df[df["o_orderkey"] % 19 == 0].copy()
        add["o_orderkey"] = add["o_orderkey"] + 100_000_000
        return pd.concat([keep, add], ignore_index=True)

    v2 = _rpc(f"{sf_dir}/orders.parquet", columns=cols).map_batches(
        mk_v2, batch_format="pandas")
    return snapshot_diff(base, v2, "o_orderkey")


def sql_orders_diff(sf_dir: str) -> str:
    return """WITH v2 AS (
  SELECT o_orderkey, o_custkey,
         CASE WHEN o_orderkey % 13 = 0 THEN o_totalprice + 10.0
              ELSE o_totalprice END AS o_totalprice
  FROM orders WHERE o_orderkey % 17 <> 0
  UNION ALL
  SELECT o_orderkey + 100000000, o_custkey, o_totalprice
  FROM orders WHERE o_orderkey % 19 = 0
)
SELECT * FROM (
  SELECT coalesce(o.o_orderkey, v.o_orderkey) AS o_orderkey,
         CASE WHEN o.o_orderkey IS NULL THEN 'added'
              WHEN v.o_orderkey IS NULL THEN 'removed'
              WHEN o.o_custkey <> v.o_custkey
                   OR o.o_totalprice <> v.o_totalprice THEN 'changed'
              ELSE 'unchanged' END AS status
  FROM orders o FULL OUTER JOIN v2 v ON o.o_orderkey = v.o_orderkey)
WHERE status <> 'unchanged'"""


def q_knn_join(sf_dir: str):
    """Exact self kNN join over the embedding table (stages/simsearch.py
    knn_join, broadcast method): top-5 cosine neighbors per vector,
    similarities rounded to 9 dp before ranking so numpy and the SQL
    oracle order ties identically."""
    from ..stages.simsearch import knn_join
    emb = _rpc(f"{sf_dir}/embeddings.parquet",
               columns=["vec_id", "embedding"])
    out = knn_join(emb, k=5)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vec_id": df["vec_id"].astype(np.int64),
            "nbr_id": df["nbr_id"].astype(np.int64),
            "cosine": df["cosine"].astype(np.float64),
            "rnk": df["rnk"].astype(np.int64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_knn_join(sf_dir: str) -> str:
    return """WITH sims AS (
  SELECT a.vec_id, b.vec_id AS nbr_id,
         round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                      CAST(b.embedding AS DOUBLE[])), 9)
           AS cosine
  FROM embeddings a, embeddings b
  WHERE a.vec_id <> b.vec_id
)
SELECT vec_id, nbr_id, cosine, CAST(rnk AS BIGINT) AS rnk FROM (
  SELECT *, row_number() OVER (PARTITION BY vec_id
                               ORDER BY cosine DESC, nbr_id) AS rnk
  FROM sims)
WHERE rnk <= 5"""


def q_range_window_sum(sf_dir: str):
    """Trailing 1-hour RANGE window sum per user (stages/scan.py
    grouped_range_sum): exact-ts peers included, SQL RANGE-frame parity."""
    from ..stages.scan import grouped_range_sum
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["event_id", "user_id", "ts", "value"])
    out = grouped_range_sum(ev, "user_id", "ts", "value", 3600.0)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].astype(np.int64),
            "user_id": df["user_id"].astype(np.int64),
            "ts": df["ts"],
            "range_sum": df["range_sum"].astype(np.float64).round(6)})
    return out.map_batches(proj, batch_format="pandas")


def sql_range_window_sum(sf_dir: str) -> str:
    return """SELECT event_id, user_id, ts,
       round(sum(value) OVER (PARTITION BY user_id ORDER BY ts
                              RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                                    AND CURRENT ROW), 6) AS range_sum
FROM events"""


def q_union_by_name(sf_dir: str):
    """Schema-evolution UNION ALL BY NAME (stages/setops.py
    union_by_name): two differently-shaped projections of orders align by
    column name, missing fields null-filled."""
    from ..stages.setops import union_by_name
    a = _rpc(f"{sf_dir}/orders.parquet",
             columns=["o_orderkey", "o_totalprice"])
    b = _rpc(f"{sf_dir}/orders.parquet",
             columns=["o_orderkey", "o_orderstatus"])

    def tag_a(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["src"] = "a"
        df["o_totalprice"] = df["o_totalprice"].round(2)
        return df

    def tag_b(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["src"] = "b"
        return df

    return union_by_name(a.map_batches(tag_a, batch_format="pandas"),
                         b.map_batches(tag_b, batch_format="pandas"))


def sql_union_by_name(sf_dir: str) -> str:
    return """SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice,
       'a' AS src FROM orders
UNION ALL BY NAME
SELECT o_orderkey, o_orderstatus, 'b' AS src FROM orders"""


def q_lineitem_stats(sf_dir: str):
    """Grouped 2nd-order statistics from mergeable raw moments
    (stages/agg.py grouped_stats): per (returnflag, linestatus) the
    quantity/price correlation + OLS slope/intercept, one slim shuffle."""
    from ..stages.agg import grouped_stats
    li = _rpc(f"{sf_dir}/lineitem.parquet",
              columns=["l_returnflag", "l_linestatus", "l_quantity",
                       "l_extendedprice"])
    out = grouped_stats(li, ["l_returnflag", "l_linestatus"],
                        "l_quantity", "l_extendedprice")

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        for c in ("mean_x", "std_x", "corr", "slope", "intercept"):
            df[c] = df[c].astype(np.float64).round(5)
        return df
    return out.map_batches(rnd, batch_format="pandas")


def sql_lineitem_stats(sf_dir: str) -> str:
    # formula twin of grouped_stats: identical raw-moment algebra, so
    # only float addition order differs (rounded away at 5 dp)
    return """WITH m AS (
  SELECT l_returnflag, l_linestatus,
         count(*) AS n, sum(l_quantity) AS sx,
         sum(l_quantity * l_quantity) AS sxx,
         sum(l_extendedprice) AS sy,
         sum(l_extendedprice * l_extendedprice) AS syy,
         sum(l_quantity * l_extendedprice) AS sxy
  FROM lineitem
  WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
  GROUP BY 1, 2
)
SELECT l_returnflag, l_linestatus, n,
       round(sx / n, 5) AS mean_x,
       round(sqrt(greatest((sxx - sx * sx / n) / (n - 1), 0)), 5)
         AS std_x,
       round(((sxy - sx * sy / n) / (n - 1))
             / sqrt(greatest((sxx - sx * sx / n) / (n - 1), 0)
                    * greatest((syy - sy * sy / n) / (n - 1), 0)), 5)
         AS corr,
       round((sxy - sx * sy / n) / (sxx - sx * sx / n), 5) AS slope,
       round(sy / n - (sxy - sx * sy / n) / (sxx - sx * sx / n)
             * (sx / n), 5) AS intercept
FROM m"""


def q_logreg_score(sf_dir: str):
    """Linear-classifier scoring pass (models/logreg.py predict_logreg)
    with PINNED weights — the distributed sigmoid scorer is exactly
    SQL-expressible, so this oracles the scoring stage value-exact; the
    iterative fit is covered by accuracy pytests."""
    import numpy as np
    from ..models.logreg import LogRegModel, predict_logreg
    model = LogRegModel(["n_chars"], np.array([1.2]), -0.3,
                        np.array([2000.0]), np.array([1500.0]))
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "n_chars"])
    out = predict_logreg(docs, model)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"].astype(np.int64),
                             "prob": df["prob"].astype(np.float64)
                             .round(9)})
    return out.map_batches(proj, batch_format="pandas")


def sql_logreg_score(sf_dir: str) -> str:
    return """SELECT doc_id,
       round(1.0 / (1.0 + exp(-(1.2 * ((coalesce(n_chars, 2000.0) - 2000.0)
                                       / 1500.0) - 0.3))), 9) AS prob
FROM documents"""


def q_hash_embed_stats(sf_dir: str):
    """Feature-hashing embedding (stages/textstats.py hash_embed,
    normalize=False): per-doc nonzero-bucket count + L2 norm — integer
    bucket sums, so the FNV-in-SQL twin is value-exact and pins the
    whole token->bucket->sign->sum path."""
    from ..stages.textstats import hash_embed
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    emb = hash_embed(docs, dim=64, normalize=False)

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        M = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "nnz": (M != 0).sum(axis=1).astype(np.int64),
            "norm": np.sqrt((M * M).sum(axis=1)).round(6)})
    return emb.map_batches(stats, batch_format="pandas")


def sql_hash_embed_stats(sf_dir: str) -> str:
    return r"""WITH RECURSIVE toks AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+')) AS tok
  FROM documents
),
dt AS (SELECT DISTINCT tok FROM toks),
fnv(tok, pos, h) AS (
  SELECT tok, 1, CAST(14695981039346656037 AS HUGEINT) FROM dt
  UNION ALL
  SELECT tok, pos + 1,
    (xor(h, CAST(unicode(substr(tok, pos, 1)) AS HUGEINT)) * 1099511628211)
      % CAST(18446744073709551616 AS HUGEINT)
  FROM fnv WHERE pos <= length(tok)
),
th AS (SELECT tok, CAST(h AS UBIGINT) AS h FROM fnv
       WHERE pos = length(tok) + 1),
bs AS (
  SELECT t.doc_id, th.h % 64 AS bucket,
         sum(CASE WHEN (th.h >> 32) & 1 = 1 THEN 1.0 ELSE -1.0 END) AS s
  FROM toks t JOIN th USING (tok) GROUP BY 1, 2
),
agg AS (
  SELECT doc_id,
         CAST(count(*) FILTER (WHERE s <> 0) AS BIGINT) AS nnz,
         round(sqrt(sum(s * s)), 6) AS norm
  FROM bs GROUP BY doc_id
)
SELECT d.doc_id, coalesce(agg.nnz, 0) AS nnz,
       coalesce(agg.norm, 0.0) AS norm
FROM documents d LEFT JOIN agg USING (doc_id)"""


def q_text_knn(sf_dir: str):
    """Composite: hash-embed the corpus (no model needed) then exact self
    kNN join — the end-to-end 'embed & neighbor' pipeline over raw text.
    Deterministic (FNV + float64 matmul) but k-NN over hashed vectors is
    not practically SQL-expressible end-to-end; rows-only."""
    from ..stages.simsearch import knn_join
    from ..stages.textstats import hash_embed
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    emb = hash_embed(docs, dim=64).drop_columns(["text"])
    out = knn_join(emb, k=3, id_col="doc_id")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "nbr_id": df["nbr_id"].astype(np.int64),
            "cosine": df["cosine"].astype(np.float64).round(6),
            "rnk": df["rnk"].astype(np.int64)})
    return out.map_batches(proj, batch_format="pandas")


def q_price_winsor(sf_dir: str):
    """Quantile winsorization (stages/scan.py winsorize): order totals
    clipped to the exact [q05, q95] — 2 scalars to the driver, one
    stateless clip pass."""
    from ..stages.scan import winsorize
    orders = _rpc(f"{sf_dir}/orders.parquet",
                  columns=["o_orderkey", "o_totalprice"])
    out, _lo, _hi = winsorize(orders, "o_totalprice",
                              lower_q=0.05, upper_q=0.95)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": df["o_orderkey"].astype(np.int64),
            "o_totalprice_winsor":
                df["o_totalprice_winsor"].astype(np.float64).round(6)})
    return out.map_batches(proj, batch_format="pandas")


def sql_price_winsor(sf_dir: str) -> str:
    return """WITH q AS (
  SELECT quantile_disc(o_totalprice, 0.05) AS lo,
         quantile_disc(o_totalprice, 0.95) AS hi
  FROM orders
)
SELECT o_orderkey,
       round(least(greatest(o_totalprice, (SELECT lo FROM q)),
                   (SELECT hi FROM q)), 6) AS o_totalprice_winsor
FROM orders"""


def q_label_centroids(sf_dir: str):
    """Per-label mean embedding (stages/agg.py group_centroids,
    long_form): fixed-width (Σvec, n) partials per (batch, label), one
    merge task — compared element-wise against the SQL unnest twin."""
    from ..stages.agg import group_centroids
    emb = _rpc(f"{sf_dir}/embeddings.parquet",
               columns=["label", "embedding"])
    out = group_centroids(emb, "label", "embedding", long_form=True)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "label": df["label"].astype(np.int64),
            "dim": df["dim"].astype(np.int64),
            "mean_val": df["mean_val"].astype(np.float64).round(6),
            "n": df["n"].astype(np.int64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_label_centroids(sf_dir: str) -> str:
    return """WITH flat AS (
  SELECT label, generate_subscripts(embedding, 1) - 1 AS dim,
         unnest(embedding) AS v
  FROM embeddings
),
cnt AS (SELECT label, count(*) AS n FROM embeddings GROUP BY label)
SELECT CAST(f.label AS BIGINT) AS label, CAST(f.dim AS BIGINT) AS dim,
       round(avg(CAST(f.v AS DOUBLE)), 6) AS mean_val, cnt.n
FROM flat f JOIN cnt USING (label)
GROUP BY f.label, f.dim, cnt.n"""


def q_embedding_explode(sf_dir: str):
    """Generic list-column EXPLODE (stages/reshape.py explode): one row
    per embedding element with its position — SQL unnest parity."""
    from ..stages.reshape import explode
    emb = _rpc(f"{sf_dir}/embeddings.parquet",
               columns=["vec_id", "embedding"])
    out = explode(emb, "embedding", pos_col="dim")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "vec_id": df["vec_id"].astype(np.int64),
            "dim": df["dim"].astype(np.int64),
            "val": df["embedding"].astype(np.float64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_embedding_explode(sf_dir: str) -> str:
    return """SELECT vec_id,
       CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS dim,
       CAST(unnest(embedding) AS DOUBLE) AS val
FROM embeddings"""


def q_long_words(sf_dir: str):
    """Regex extraction to rows (stages/reshape.py regex_extract_rows):
    every ≥6-letter token per document with its match index — the
    log-parsing shape."""
    from ..stages.reshape import regex_extract_rows
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    out = regex_extract_rows(docs, "text", r"[a-z]{6,}")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "match_idx": df["match_idx"].astype(np.int64),
            "match": df["match"].astype(str)})
    return out.map_batches(proj, batch_format="pandas")


def sql_long_words(sf_dir: str) -> str:
    return """SELECT doc_id,
       CAST(generate_subscripts(m, 1) - 1 AS BIGINT) AS match_idx,
       unnest(m) AS match
FROM (SELECT doc_id,
             regexp_extract_all(coalesce(text, ''), '[a-z]{6,}') AS m
      FROM documents)"""


def q_top_orders(sf_dir: str):
    """Global ORDER BY ... LIMIT without a full sort (stages/reshape.py
    global_topk): per-batch local top-k partials, one tiny merge."""
    from ..stages.reshape import global_topk
    orders = _rpc(f"{sf_dir}/orders.parquet",
                  columns=["o_orderkey", "o_custkey", "o_totalprice"])
    out = global_topk(orders, ["o_totalprice", "o_orderkey"], 20,
                      ascending=[False, True])

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["o_totalprice"] = df["o_totalprice"].round(2)
        return df
    return out.map_batches(rnd, batch_format="pandas")


def sql_top_orders(sf_dir: str) -> str:
    return ("SELECT o_orderkey, o_custkey, round(o_totalprice, 2) AS "
            "o_totalprice FROM orders "
            "ORDER BY o_totalprice DESC, o_orderkey LIMIT 20")


def q_lineitem_melt(sf_dir: str):
    """Wide -> long UNPIVOT (stages/reshape.py melt): the four lineitem
    measures melt to (id, variable, value) rows, zero shuffle."""
    from ..stages.reshape import melt
    li = _rpc(f"{sf_dir}/lineitem.parquet",
              columns=["l_orderkey", "l_linenumber", "l_quantity",
                       "l_extendedprice", "l_discount", "l_tax"])
    out = melt(li, ["l_orderkey", "l_linenumber"],
               ["l_quantity", "l_extendedprice", "l_discount", "l_tax"])

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"].astype(np.int64),
            "l_linenumber": df["l_linenumber"].astype(np.int64),
            "variable": df["variable"].astype(str),
            "value": df["value"].astype(np.float64).round(6)})
    return out.map_batches(proj, batch_format="pandas")


def sql_lineitem_melt(sf_dir: str) -> str:
    parts = [
        f"SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber, "
        f"'{c}' AS variable, round(CAST({c} AS DOUBLE), 6) AS value "
        f"FROM lineitem"
        for c in ("l_quantity", "l_extendedprice", "l_discount", "l_tax")]
    return "\nUNION ALL\n".join(parts)


def q_user_value_share(sf_dir: str):
    """Share-of-group (stages/reshape.py share_of_group): each event's
    value as a fraction of its user's total — one co-partition shuffle."""
    from ..stages.reshape import share_of_group
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["event_id", "user_id", "value"])
    out = share_of_group(ev, "user_id", "value")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].astype(np.int64),
            "user_id": df["user_id"].astype(np.int64),
            "share": df["share"].astype(np.float64).round(9)})
    return out.map_batches(proj, batch_format="pandas")


def sql_user_value_share(sf_dir: str) -> str:
    return """SELECT event_id, user_id,
       round(value / sum(value) OVER (PARTITION BY user_id), 9) AS share
FROM events"""


_QUALITY_RULES = {
    "price_nonneg": "o_totalprice >= 0",
    "price_below_cap": "o_totalprice <= 450000",
    "status_known": "o_orderstatus in ('O', 'F', 'P')",
    "date_in_range": "o_orderdate >= '1992-01-01'",
}


def q_quality_gate(sf_dir: str):
    """Declarative data-quality gate (stages/quality.py check_rules):
    per-rule violation counts from fixed-width per-batch partials —
    zero shuffle, one merge task."""
    from ..stages.quality import check_rules
    orders = _rpc(f"{sf_dir}/orders.parquet",
                  columns=["o_totalprice", "o_orderstatus", "o_orderdate"])
    return check_rules(orders, _QUALITY_RULES)


def sql_quality_gate(sf_dir: str) -> str:
    exprs = {
        "price_nonneg": "o_totalprice >= 0",
        "price_below_cap": "o_totalprice <= 450000",
        "status_known": "o_orderstatus IN ('O', 'F', 'P')",
        "date_in_range": "o_orderdate >= TIMESTAMP '1992-01-01'",
    }
    parts = [
        f"SELECT '{name}' AS rule, "
        f"CAST(sum(CASE WHEN coalesce({expr}, false) THEN 0 ELSE 1 END) "
        f"AS BIGINT) AS violations, count(*) AS checked FROM orders"
        for name, expr in exprs.items()]
    return "\nUNION ALL\n".join(parts)


_TFIDF_THR = 0.25
_TFIDF_MAXDF = 100


def q_tfidf_pairs(sf_dir: str):
    """All-pairs tf-idf cosine similarity join (stages/search.py:
    tfidf_cosine_pairs — inverted-index partial dot products, per-token
    fan-out capped by the max_df stopword prune)."""
    from ..stages.search import tfidf_cosine_pairs
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    out = tfidf_cosine_pairs(docs, threshold=_TFIDF_THR,
                             max_df=_TFIDF_MAXDF)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "id_from": df["id_from"].astype(np.int64),
            "id_to": df["id_to"].astype(np.int64),
            "cosine": df["cosine"].round(9)})
    return out.map_batches(proj, batch_format="pandas")


def sql_tfidf_pairs(sf_dir: str) -> str:
    return f"""WITH tok AS (
  SELECT doc_id, token, CAST(count(*) AS DOUBLE) AS cnt
  FROM (SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS token
        FROM documents)
  WHERE token <> ''
  GROUP BY doc_id, token
),
dfreq AS (SELECT token, count(*) AS df FROM tok GROUP BY token),
w AS (
  SELECT t.doc_id, t.token,
         t.cnt * (ln((SELECT count(*) FROM documents))
                  - ln(CAST(df AS DOUBLE))) AS w, df
  FROM tok t JOIN dfreq USING (token)
  WHERE df <= {_TFIDF_MAXDF}
),
nrm AS (SELECT doc_id, sqrt(sum(w * w)) AS nrm FROM w GROUP BY doc_id),
dot AS (
  SELECT a.doc_id AS id_from, b.doc_id AS id_to,
         sum((a.w / na.nrm) * (b.w / nb.nrm)) AS cosine
  FROM w a JOIN w b USING (token)
  JOIN nrm na ON na.doc_id = a.doc_id
  JOIN nrm nb ON nb.doc_id = b.doc_id
  WHERE a.doc_id < b.doc_id AND a.df >= 2
  GROUP BY 1, 2
)
SELECT id_from, id_to, round(cosine, 9) AS cosine
FROM dot WHERE cosine >= {_TFIDF_THR}"""


_HH_PHI = 0.0005


def q_heavy_hitters(sf_dir: str):
    """Misra-Gries candidates + exact recount over document tokens
    (stages/sketch.py:heavy_hitters) — value-exact despite the bounded
    sketch because pass 2 recounts the survivors."""
    from ..stages.sketch import heavy_hitters
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return heavy_hitters(docs, "text", phi=_HH_PHI, tokenize=True)


def sql_heavy_hitters(sf_dir: str) -> str:
    # CAST to DOUBLE on both factors: DuckDB would otherwise do exact
    # DECIMAL math while the engine computes ceil(phi * total) in doubles
    return f"""WITH tok AS (
  SELECT unnest(string_split(coalesce(text, ''), ' ')) AS token
  FROM documents
)
SELECT token, CAST(count(*) AS BIGINT) AS n
FROM tok WHERE token <> ''
GROUP BY token
HAVING count(*) >= (
  SELECT CAST(ceil(CAST({_HH_PHI} AS DOUBLE) *
                   CAST(count(*) AS DOUBLE)) AS BIGINT)
  FROM tok WHERE token <> '')"""


_BM25_TERMS = ["customer", "vector", "stream"]
_BM25_K = 10


def q_bm25_topk(sf_dir: str):
    """BM25 keyword search, global top-k with deterministic tie-break
    (stages/search.py:bm25_topk)."""
    from ..stages.search import bm25_topk
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return bm25_topk(docs, _BM25_TERMS, k=_BM25_K)


def sql_bm25_topk(sf_dir: str) -> str:
    # mirrors stages/search.py:bm25_topk operation-for-operation (same
    # literals, same association order) so round-6 doubles match exactly
    t0, t1, t2 = _BM25_TERMS
    term_expr = " + ".join(
        f"""(ln((st.n - dfq.df{i} + 0.5) / (dfq.df{i} + 0.5) + 1.0)
      * (tf.tf{i} * (1.2 + 1.0))
      / (tf.tf{i} + 1.2 * (1.0 - 0.75 + 0.75 * dl.len / st.avglen)))"""
        for i in range(3))
    return f"""WITH tok AS (
  SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS token
  FROM documents
), dl AS (
  SELECT doc_id,
         CAST(count(*) FILTER (token <> '') AS DOUBLE) AS len
  FROM tok GROUP BY doc_id
), tf AS (
  SELECT doc_id,
         CAST(count(*) FILTER (token = '{t0}') AS DOUBLE) AS tf0,
         CAST(count(*) FILTER (token = '{t1}') AS DOUBLE) AS tf1,
         CAST(count(*) FILTER (token = '{t2}') AS DOUBLE) AS tf2
  FROM tok GROUP BY doc_id
), st AS (
  SELECT CAST(count(*) AS DOUBLE) AS n,
         CAST(sum(len) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS avglen
  FROM dl
), dfq AS (
  SELECT CAST(count(*) FILTER (tf0 > 0) AS DOUBLE) AS df0,
         CAST(count(*) FILTER (tf1 > 0) AS DOUBLE) AS df1,
         CAST(count(*) FILTER (tf2 > 0) AS DOUBLE) AS df2
  FROM tf
), s AS (
  SELECT dl.doc_id, round({term_expr}, 6) AS score
  FROM dl JOIN tf USING (doc_id), st, dfq
)
SELECT doc_id, score,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT)
         AS rank
FROM s
QUALIFY rank <= {_BM25_K}"""


def q_window_agg(sf_dir: str):
    """Tumbling per-(user, hour) aggregate with in-batch partial
    aggregation (stages/events.py:tumbling_window_agg)."""
    from ..stages.events import tumbling_window_agg
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"])
    out = tumbling_window_agg(ev, window_minutes=60.0)

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df["user_id"].astype(np.int64),
            "window": df["window"].astype(np.int64),
            "n_events": df["n_events"].astype(np.int64),
            "value_sum": df["value_sum"].round(4)})
    return out.map_batches(rnd, batch_format="pandas")


def sql_window_agg(sf_dir: str) -> str:
    return """SELECT user_id,
       CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS window,
       CAST(count(*) AS BIGINT) AS n_events,
       round(sum(value), 4) AS value_sum
FROM events GROUP BY 1, 2"""


def q_hopping_window(sf_dir: str):
    """Sliding per-(event_type, 60-min window hopping every 15) aggregate
    with bounded vectorized fan-out (stages/events.py:hopping_window_agg)."""
    from ..stages.events import hopping_window_agg
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts", "value"])
    out = hopping_window_agg(ev, window_minutes=60.0, hop_minutes=15.0)

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"],
            "window_start_us": df["window_start_us"].astype(np.int64),
            "n_events": df["n_events"].astype(np.int64),
            "value_sum": df["value_sum"].round(4)})
    return out.map_batches(rnd, batch_format="pandas")


def sql_hopping_window(sf_dir: str) -> str:
    # each event expands to its window/hop = 4 containing window starts
    return """WITH x AS (
  SELECT event_type, value,
         unnest(range(epoch_us(ts) // 900000000 - 3,
                      epoch_us(ts) // 900000000 + 1)) AS k
  FROM events
)
SELECT event_type,
       CAST(k * 900000000 AS BIGINT) AS window_start_us,
       CAST(count(*) AS BIGINT) AS n_events,
       round(sum(value), 4) AS value_sum
FROM x GROUP BY 1, 2"""


def q_user_running_total(sf_dir: str):
    """Per-user ordered cumulative value sum
    (stages/scan.py:grouped_running_total — PARTITION BY window sum with
    no global scan)."""
    from ..stages.scan import grouped_running_total
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    out = grouped_running_total(ev, "user_id", "value",
                                order_by=["ts", "event_id"])

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].astype(np.int64),
            "user_id": df["user_id"].astype(np.int64),
            "running_sum": df["running_total"].round(4)})
    return out.map_batches(proj, batch_format="pandas")


def sql_user_running_total(sf_dir: str) -> str:
    return """SELECT event_id, user_id,
       round(sum(coalesce(value, 0.0))
             OVER (PARTITION BY user_id ORDER BY ts, event_id), 4)
         AS running_sum
FROM events"""


def q_user_rolling_mean(sf_dir: str):
    """Per-user trailing 4-row moving average
    (stages/scan.py:grouped_rolling_mean — ROWS BETWEEN 3 PRECEDING AND
    CURRENT ROW)."""
    from ..stages.scan import grouped_rolling_mean
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    out = grouped_rolling_mean(ev, "user_id", "value",
                               order_by=["ts", "event_id"], window=4)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].astype(np.int64),
            "user_id": df["user_id"].astype(np.int64),
            "rolling_mean": df["rolling_mean"].round(6)})
    return out.map_batches(proj, batch_format="pandas")


def sql_user_rolling_mean(sf_dir: str) -> str:
    return """SELECT event_id, user_id,
       round(avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 3 PRECEDING AND CURRENT ROW), 6) AS rolling_mean
FROM events"""


def q_event_percent_rank(sf_dir: str):
    """percent_rank() OVER (PARTITION BY event_type ORDER BY value)
    (stages/scan.py:grouped_percent_rank — min-rank ties, (r-1)/(n-1))."""
    from ..stages.scan import grouped_percent_rank
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    out = grouped_percent_rank(ev, "event_type", "value")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].astype(np.int64),
            "event_type": df["event_type"],
            "pr": df["percent_rank"].round(9)})
    return out.map_batches(proj, batch_format="pandas")


def sql_event_percent_rank(sf_dir: str) -> str:
    return """SELECT event_id, event_type,
       round(percent_rank() OVER (PARTITION BY event_type ORDER BY value), 9)
         AS pr
FROM events"""


def q_event_gaps(sf_dir: str):
    """Per-user inter-event gap in seconds: value - LAG(value) window
    (stages/scan.py:grouped_lag_diff). First event per user (NULL gap)
    filtered on both sides."""
    from ..stages.scan import grouped_lag_diff
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["event_id", "user_id", "ts"])
    out = grouped_lag_diff(ev, "user_id", "ts",
                           order_by=["ts", "event_id"], out_col="gap_sec")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["gap_sec"].notna()]
        return pd.DataFrame({
            "event_id": df["event_id"].astype(np.int64),
            "user_id": df["user_id"].astype(np.int64),
            "gap_sec": df["gap_sec"].astype(np.float64).round(6)})
    return out.map_batches(proj, batch_format="pandas")


def sql_event_gaps(sf_dir: str) -> str:
    return """SELECT event_id, user_id,
       round((epoch_us(ts) - lag(epoch_us(ts))
              OVER (PARTITION BY user_id ORDER BY ts, event_id)) / 1e6, 6)
         AS gap_sec
FROM events
QUALIFY gap_sec IS NOT NULL"""


def q_event_ntile(sf_dir: str):
    """Global NTILE(7) bucketing by value (stages/scan.py:ntile — 2-pass
    prefix-scan row number + stateless bucket pass)."""
    from ..stages.scan import ntile
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["event_id", "value"])
    out = ntile(ev, order_by=["value", "event_id"], k=7, out_col="bucket")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].astype(np.int64),
            "bucket": df["bucket"].astype(np.int64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_event_ntile(sf_dir: str) -> str:
    return """SELECT event_id,
       CAST(ntile(7) OVER (ORDER BY value, event_id) AS BIGINT) AS bucket
FROM events"""


def q_lineitem_rollup(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) sums with SQL
    GROUPING_ID parity (stages/agg.py:rollup_sum — finest-level partials,
    coarser levels derived inside the one merge task)."""
    from ..stages.agg import rollup_sum
    li = _rpc(f"{sf_dir}/lineitem.parquet",
              columns=["l_returnflag", "l_linestatus", "l_quantity",
                       "l_extendedprice", "l_discount"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            disc_price=df["l_extendedprice"] * (1 - df["l_discount"]))

    out = rollup_sum(li.map_batches(prep, batch_format="pandas"),
                     ["l_returnflag", "l_linestatus"],
                     ["l_quantity", "disc_price"], size_col="n_rows")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_returnflag": df["l_returnflag"].fillna(""),
            "l_linestatus": df["l_linestatus"].fillna(""),
            "sum_qty": df["l_quantity"].round(2),
            "sum_disc_price": df["disc_price"].round(2),
            "n_rows": df["n_rows"].astype(np.int64),
            "grouping_id": df["grouping_id"].astype(np.int64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_lineitem_rollup(sf_dir: str) -> str:
    return """SELECT coalesce(l_returnflag, '') AS l_returnflag,
       coalesce(l_linestatus, '') AS l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(grouping(l_returnflag) * 2 + grouping(l_linestatus) AS BIGINT)
         AS grouping_id
FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)"""


def q_grouped_quantiles(sf_dir: str):
    """Per-language exact discrete quantiles of document length
    (stages/scan.py:grouped_quantiles — quantile_disc parity within each
    group, vectorized rank pick across all groups of a partition)."""
    from ..stages.scan import grouped_quantiles
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["lang", "n_chars"])
    out = grouped_quantiles(docs, "lang", "n_chars", qs=(0.25, 0.5, 0.75))

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lang": df["lang"],
                             "q": df["q"].astype(np.float64),
                             "value": df["value"].astype(np.float64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_grouped_quantiles(sf_dir: str) -> str:
    rows = " UNION ALL ".join(
        f"SELECT lang, CAST({q} AS DOUBLE) AS q, "
        f"CAST(quantile_disc(n_chars, {q}) AS DOUBLE) AS value "
        f"FROM documents GROUP BY lang"
        for q in (0.25, 0.5, 0.75))
    return rows


def q_stratified_sample(sf_dir: str):
    """Cap every source at 20 docs, deterministic smallest-(hash,id) keep
    (stages/sampling.py — the 'no domain may dominate' curation op)."""
    from ..stages.sampling import stratified_sample
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "source", "lang"])
    return stratified_sample(docs, "source", "doc_id", 20, seed=7)


def q_bernoulli_sample(sf_dir: str):
    """Deterministic ~25% global sample keyed on doc_id
    (stages/sampling.py — shuffle-free)."""
    from ..stages.sampling import bernoulli_sample
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    return bernoulli_sample(docs, "doc_id", 0.25, seed=11)


def _sql_sample_hash(seed: int) -> str:
    """splitmix64(doc_id XOR seed_mix(seed)) as a SQL expression — the
    exact twin of stages/sampling.sample_hash."""
    from ..stages.sampling import seed_mix
    z = (f"xor(CAST(doc_id AS UBIGINT), "
         f"CAST('{seed_mix(seed)}' AS UBIGINT))")
    return _sql_splitmix64(z)


def sql_stratified_sample(sf_dir: str) -> str:
    return f"""SELECT doc_id, source, lang FROM (
  SELECT doc_id, source, lang,
         row_number() OVER (PARTITION BY source
                            ORDER BY {_sql_sample_hash(7)}, doc_id) AS rn
  FROM documents) WHERE rn <= 20"""


def sql_bernoulli_sample(sf_dir: str) -> str:
    from ..stages.sampling import bernoulli_threshold
    thr = bernoulli_threshold(0.25)
    return (f"SELECT doc_id, n_chars FROM documents "
            f"WHERE {_sql_sample_hash(11)} < CAST('{thr}' AS UBIGINT)")


def q_mixture_sample(sf_dir: str):
    """Data-mixing resample: per-source keep rates (crawl-like sources
    downweighted, curated kept whole) via the deterministic splitmix keep
    (stages/sampling.py:mixture_sample — shuffle-free)."""
    from ..stages.sampling import mixture_sample
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "source", "n_chars"])
    return mixture_sample(docs, "doc_id", "source",
                          rates={"src0": 0.1, "src1": 0.5, "src2": 1.0},
                          default_rate=0.3, seed=13)


def sql_mixture_sample(sf_dir: str) -> str:
    from ..stages.sampling import bernoulli_threshold
    t = {p: bernoulli_threshold(p) for p in (0.1, 0.5, 0.3)}
    h = _sql_sample_hash(13)
    return f"""SELECT doc_id, source, n_chars FROM documents
WHERE CASE source
        WHEN 'src0' THEN {h} < CAST('{t[0.1]}' AS UBIGINT)
        WHEN 'src1' THEN {h} < CAST('{t[0.5]}' AS UBIGINT)
        WHEN 'src2' THEN TRUE
        ELSE {h} < CAST('{t[0.3]}' AS UBIGINT)
      END"""


def _setop_sides(sf_dir: str):
    import pyarrow.compute as pc
    docs = f"{sf_dir}/documents.parquet"
    long_side = _rpc(docs, columns=["source", "lang", "n_chars"],
                                filter=pc.field("n_chars") >= 200)
    short_side = _rpc(docs, columns=["source", "lang", "n_chars"],
                                 filter=pc.field("n_chars") < 200)
    cols = ["source", "lang"]
    return (long_side.select_columns(cols), short_side.select_columns(cols),
            cols)


def q_setop_except(sf_dir: str):
    """SQL EXCEPT (stages/setops.py): (source, lang) combos that occur
    ONLY among long documents — distinct_rows + anti hash join."""
    from ..stages.setops import except_distinct
    a, b, cols = _setop_sides(sf_dir)
    return except_distinct(a, b, cols)


def sql_setop_except(sf_dir: str) -> str:
    return ("SELECT source, lang FROM documents WHERE n_chars >= 200 "
            "EXCEPT SELECT source, lang FROM documents WHERE n_chars < 200 "
            "ORDER BY source, lang")


def q_setop_intersect(sf_dir: str):
    """SQL INTERSECT: (source, lang) combos present among BOTH long and
    short documents — distinct_rows + semi hash join."""
    from ..stages.setops import intersect_distinct
    a, b, cols = _setop_sides(sf_dir)
    return intersect_distinct(a, b, cols)


def sql_setop_intersect(sf_dir: str) -> str:
    return ("SELECT source, lang FROM documents WHERE n_chars >= 200 "
            "INTERSECT SELECT source, lang FROM documents WHERE n_chars < 200 "
            "ORDER BY source, lang")


def q_trigram_nll(sf_dir: str):
    """CCNet-style corpus-LM quality signal (stages/lm.py): per-document
    mean negative log prob under the corpus's own add-one-smoothed
    character-trigram model."""
    from ..stages.lm import trigram_nll
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    return trigram_nll(docs)


def sql_trigram_nll(sf_dir: str) -> str:
    return """WITH pos AS (
  SELECT doc_id, text, unnest(range(1, length(text) - 1)) AS p
  FROM documents WHERE length(text) >= 3
), tri AS (
  SELECT doc_id,
         unicode(substr(text, CAST(p AS INTEGER), 1)) AS c1,
         unicode(substr(text, CAST(p AS INTEGER) + 1, 1)) AS c2,
         unicode(substr(text, CAST(p AS INTEGER) + 2, 1)) AS c3
  FROM pos
), tcnt AS (
  SELECT c1, c2, c3, count(*) AS n FROM tri GROUP BY 1, 2, 3
), ctx AS (
  SELECT c1, c2, sum(n) AS m FROM tcnt GROUP BY 1, 2
), v AS (SELECT count(DISTINCT c3) AS v FROM tri)
SELECT t.doc_id, CAST(count(*) AS BIGINT) AS n_tri,
       round(-avg(ln((tn.n + 1.0) / (cx.m + v.v))), 6) AS nll
FROM tri t
JOIN tcnt tn USING (c1, c2, c3)
JOIN ctx cx USING (c1, c2)
CROSS JOIN v
GROUP BY t.doc_id"""


def q_grouped_split(sf_dir: str):
    """Leakage-safe grouped train/test split: every event of a user lands
    in the same split (stages/sampling.py:grouped_split, splitmix64 twin
    -> value-exact SQL oracle)."""
    from ..stages.sampling import grouped_split
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id"])
    return grouped_split(ev, "user_id", test_frac=0.25, seed=5)


def sql_grouped_split(sf_dir: str) -> str:
    from ..stages.sampling import bernoulli_threshold, seed_mix
    thr = bernoulli_threshold(0.25)
    h = _sql_splitmix64(
        f"xor(CAST(user_id AS UBIGINT), CAST('{seed_mix(5)}' AS UBIGINT))")
    return (f"SELECT event_id, user_id, CASE WHEN {h} < "
            f"CAST('{thr}' AS UBIGINT) THEN 'test' ELSE 'train' END "
            "AS split FROM events")


def q_weighted_sample(sf_dir: str):
    """Efraimidis-Spirakis weighted sample without replacement: 100 docs
    with probability proportional to length (n_chars) — the quality/
    length-weighted subset op of a curation pipeline. Deterministic via
    the splitmix64 twin, so the SQL oracle is value-exact."""
    from ..stages.sampling import weighted_sample_topk
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    return weighted_sample_topk(docs, "doc_id", "n_chars", k=100, seed=13)


def sql_weighted_sample(sf_dir: str) -> str:
    # (CAST(h AS DOUBLE) + 1) * 2^-64 mirrors the engine op-for-op;
    # x * 2^-64 == x / 2^64 exactly in IEEE, so the SQL divides
    return f"""SELECT doc_id, n_chars FROM (
  SELECT doc_id, n_chars,
         ln((CAST({_sql_sample_hash(13)} AS DOUBLE) + 1)
            / 18446744073709551616.0) / CAST(n_chars AS DOUBLE) AS es
  FROM documents WHERE n_chars > 0
  ORDER BY es DESC, doc_id LIMIT 100) ORDER BY doc_id"""


def q_lang_quality(sf_dir: str):
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang"])
    out = add_quality_score(add_lang_id(docs))
    out = out.select_columns(["doc_id", "lang", "lang_pred", "quality"])

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["quality"] = df["quality"].round(6)
        return df
    return out.map_batches(rnd, batch_format="pandas")


def _sql_quality_ctes() -> str:
    """Shared CTE chain replicating add_lang_id + add_quality_score
    (stages/textstats.py:63,105): per-language trigram hit counts via
    literal replace() length deltas (same non-overlapping semantics as
    pandas str.count on escaped patterns; the 1/len normalization cancels
    in the argmax), first-max tie-break in profile order en/nl/af, and the
    five quality components over regexp char-class counts + token lists.
    Terminal CTE ``lq`` exposes (doc_id, lang, n_ws, lang_pred, quality
    [RAW double — round at the consumer])."""
    from ..stages.textstats import _LANG_PROFILES, _STOPWORDS
    t = "lower(coalesce(text, ''))"

    def tri_count(lang: str) -> str:
        terms = [f"(length({t}) - length(replace({t}, '{tri}', ''))) / 3"
                 for tri in _LANG_PROFILES[lang]]
        return "(" + " + ".join(terms) + ")"

    c_en, c_nl, c_af = (tri_count(l) for l in ("en", "nl", "af"))
    stop_list = ", ".join(f"'{w}'" for w in sorted(_STOPWORDS))
    return f"""base AS (
  SELECT doc_id, lang,
         coalesce(text, '') AS s,
         regexp_extract_all(coalesce(text, ''), '\\S+') AS toks,
         {c_en} AS c_en, {c_nl} AS c_nl, {c_af} AS c_af
  FROM documents
),
feat AS (
  SELECT doc_id, lang, c_en, c_nl, c_af,
         CAST(length(toks) AS DOUBLE) AS n_tok,
         CAST(length(s) AS DOUBLE) AS n_chars,
         CAST(length(s) - length(regexp_replace(s, '[A-Za-z]', '', 'g'))
              AS DOUBLE) AS alpha,
         CAST(length(s) - length(regexp_replace(s, '[A-Z]', '', 'g'))
              AS DOUBLE) AS upper_n,
         CAST(length(list_distinct(toks)) AS DOUBLE) AS uniq,
         CAST(length(list_filter(toks,
              x -> list_contains([{stop_list}], lower(x)))) AS DOUBLE)
              AS stop_n
  FROM base
),
r AS (
  SELECT doc_id, lang, c_en, c_nl, c_af, n_tok,
         CASE WHEN n_tok > 0 THEN alpha / n_tok ELSE 0.0 END AS mean_wl,
         CASE WHEN n_tok > 0 THEN stop_n / n_tok ELSE 0.0 END AS stop_ratio,
         CASE WHEN n_chars > 0 THEN alpha / n_chars ELSE 0.0 END
           AS alpha_ratio,
         CASE WHEN n_chars > 0 THEN upper_n / n_chars ELSE 0.0 END
           AS upper_ratio,
         CASE WHEN n_tok > 0 THEN uniq / n_tok ELSE 0.0 END AS uniq_ratio
  FROM feat
),
lq AS (
  SELECT doc_id, lang, CAST(n_tok AS BIGINT) AS n_ws,
       CASE WHEN greatest(c_en, c_nl, c_af) = 0 THEN 'und'
            WHEN c_en >= c_nl AND c_en >= c_af THEN 'en'
            WHEN c_nl >= c_af THEN 'nl' ELSE 'af' END AS lang_pred,
       0.25 * least(greatest(1.0 - abs(mean_wl - 5.0) / 5.0, 0.0), 1.0)
             + 0.2 * least(greatest(stop_ratio * 4, 0.0), 1.0)
             + 0.25 * alpha_ratio + 0.15 * (1.0 - upper_ratio)
             + 0.15 * uniq_ratio AS quality
  FROM r
)"""


def sql_lang_quality(sf_dir: str) -> str:
    return (f"WITH {_sql_quality_ctes()}\n"
            "SELECT doc_id, lang, lang_pred, round(quality, 6) AS quality "
            "FROM lq")


def q_asof_join(sf_dir: str):
    """Per-user as-of join (backward): odd events pick the latest earlier
    even event's value (DuckDB ASOF JOIN parity)."""
    from ..stages.events import asof_join
    from ..stages.grouped import grouped_map
    ev = _rpc(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])

    def odd(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_id"] % 2 == 1][["event_id", "user_id", "ts"]]

    def even_partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["event_id"] % 2 == 0]
        return (d.groupby(["user_id", "ts"], sort=False)["value"].max()
                .rename("r_value").reset_index())

    def even_combine(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["user_id", "ts"], sort=False)["r_value"].max()
                .reset_index())

    left = ev.map_batches(odd, batch_format="pandas")
    right = grouped_map(ev.map_batches(even_partial, batch_format="pandas"),
                        ["user_id", "ts"], even_combine)
    out = asof_join(left, right, by="user_id", ts_col="ts",
                    right_cols=["r_value"])

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["event_id", "user_id", "ts", "ts_r", "r_value"]].copy()
        out["event_id"] = out["event_id"].astype(np.int64)
        out["r_value"] = out["r_value"].round(6)
        return out
    return out.map_batches(proj, batch_format="pandas")


def sql_asof_join(sf_dir: str) -> str:
    return """WITH le AS (
  SELECT event_id, user_id, ts FROM events WHERE event_id % 2 = 1
), re AS (
  SELECT user_id, ts, max(value) AS r_value FROM events
  WHERE event_id % 2 = 0 GROUP BY user_id, ts
)
SELECT le.event_id, le.user_id, le.ts, re.ts AS ts_r,
       round(re.r_value, 6) AS r_value
FROM le ASOF LEFT JOIN re
  ON le.user_id = re.user_id AND re.ts <= le.ts"""


def q_pack_shards(sf_dir: str):
    """Token-budget shard packing via the distributed prefix scan
    (stages/scan.py): contiguous ~50k-char training shards in doc_id
    order, plus the inclusive running total."""
    from ..stages.scan import pack_by_budget
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    out = pack_by_budget(docs, "n_chars", 50_000, "doc_id")
    return out.select_columns(["doc_id", "running_total", "shard_id"])


def sql_pack_shards(sf_dir: str) -> str:
    return """SELECT doc_id,
  CAST(sum(coalesce(n_chars, 0)) OVER w AS BIGINT) AS running_total,
  CAST(coalesce(sum(coalesce(n_chars, 0)) OVER
         (ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
          AND 1 PRECEDING), 0) // 50000 AS BIGINT) AS shard_id
FROM documents
WINDOW w AS (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)"""


def q_top_per_lang(sf_dir: str):
    """Top 10 docs per language by n_chars (grouped top-k,
    stages/sampling.py:top_k_per_group; ties by doc_id)."""
    from ..stages.sampling import top_k_per_group
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang", "n_chars"])
    return top_k_per_group(docs, "lang", "n_chars", "doc_id", 10)


def sql_top_per_lang(sf_dir: str) -> str:
    return """SELECT doc_id, lang, n_chars FROM (
  SELECT doc_id, lang, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents) WHERE rn <= 10"""


def q_exact_quantiles(sf_dir: str):
    """EXACT discrete quantiles of documents.n_chars via distributed sort
    + prefix-scan rank select (stages/scan.py) — the exact complement of
    the approximate sketch in sketch_stats. Binary-exact q values only
    (0.25/0.5/0.75) so ceil(q*n) can't diverge between float stacks."""
    from ..stages.scan import exact_quantiles
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "n_chars"])
    return exact_quantiles(docs, "n_chars", qs=(0.25, 0.5, 0.75))


def sql_exact_quantiles(sf_dir: str) -> str:
    rows = " UNION ALL ".join(
        f"SELECT CAST({q} AS DOUBLE) AS q, "
        f"CAST(quantile_disc(n_chars, {q}) AS DOUBLE) AS value "
        f"FROM documents"
        for q in (0.25, 0.5, 0.75))
    return rows


def q_curation_capped(sf_dir: str):
    """Curation variant whose WHOLE removal ledger is SQL-expressible:
    annotate -> token/quality/lang gates -> exact dedup -> per-source cap
    (stages/sampling.py, near_dup off). Returns (doc_id, reason)."""
    from ..pipelines.curate import curate_documents
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text", "lang", "source"])
    out = curate_documents(docs, min_tokens=15, max_tokens=85,
                           min_quality=0.315, langs=["en", "nl"],
                           near_dup=False, max_per_source=15)
    return out["removed"]


def sql_curation_capped(sf_dir: str) -> str:
    """Exact replica of q_curation_capped's ledger: the engine's gate
    reason priority, exact-dup losers (engine groups by FNV-1a text hash —
    identical partition barring a 64-bit collision), then the survivors'
    per-source cap by smallest (splitmix64(doc_id^seed_mix(13)), doc_id)."""
    h = _sql_sample_hash(13)
    return f"""WITH {_sql_quality_ctes()},
g AS (
  SELECT d.doc_id, d.source, coalesce(d.text, '') AS s,
         CASE WHEN lq.n_ws < 15 THEN 'too_short'
              WHEN lq.n_ws > 85 THEN 'too_long'
              WHEN lq.quality < 0.315 THEN 'low_quality'
              WHEN lq.lang_pred NOT IN ('en', 'nl') THEN 'bad_lang'
              ELSE '' END AS reason
  FROM documents d JOIN lq USING (doc_id)
),
s1 AS (SELECT * FROM g WHERE reason = ''),
d2 AS (SELECT doc_id, source,
              min(doc_id) OVER (PARTITION BY s) AS keep_id FROM s1),
s2 AS (SELECT doc_id, source FROM d2 WHERE doc_id = keep_id),
c AS (SELECT doc_id, row_number() OVER (
        PARTITION BY source ORDER BY {h}, doc_id) AS rn FROM s2)
SELECT doc_id, reason FROM g WHERE reason <> ''
UNION ALL
SELECT doc_id, 'exact_dup' AS reason FROM d2 WHERE doc_id <> keep_id
UNION ALL
SELECT doc_id, 'source_cap' AS reason FROM c WHERE rn > 15"""


def q_doc_curation(sf_dir: str):
    """End-to-end training-data curation: annotate -> gate -> exact dedup
    -> near-dup family collapse. Returns the removal ledger (doc_id,
    reason); model-free but minhash-based, so rows-only."""
    from ..pipelines.curate import curate_documents
    docs = _rpc(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    out = curate_documents(docs, min_tokens=5, min_quality=0.2,
                           jaccard_threshold=0.6)
    return out["removed"]


def sql_doc_curation(sf_dir: str) -> str:
    """DuckDB replica of pipelines/curate.curate_documents with
    q_doc_curation's params (min_tokens=5, max_tokens=100000,
    min_quality=0.2, langs=None, jaccard_threshold=0.6): gate ledger with
    the engine's reason priority, exact-dup losers by FNV-1a text hash
    (grouped by HASH, exactly like the engine's (id, hash) shuffle), then
    minhash near-dup pairs over the survivors closed transitively
    (recursive walk; component representative = LEXICOGRAPHIC-min id
    string, matching connected_components' string-label semantics)."""
    stop_list = ", ".join(
        f"'{w}'" for w in sorted(__import__(
            "capelinker_ray.stages.textstats", fromlist=["x"])._STOPWORDS))
    return f"""WITH RECURSIVE ann AS (
  SELECT doc_id, text, coalesce(text, '') AS s,
         CAST(length(regexp_extract_all(coalesce(text, ''), '\\S+'))
              AS BIGINT) AS nt,
         regexp_extract_all(coalesce(text, ''), '\\S+') AS toks
  FROM documents
),
feat AS (
  SELECT doc_id, text, nt,
         CAST(nt AS DOUBLE) AS n_tok,
         CAST(length(s) AS DOUBLE) AS n_chars,
         CAST(length(s) - length(regexp_replace(s, '[A-Za-z]', '', 'g'))
              AS DOUBLE) AS alpha,
         CAST(length(s) - length(regexp_replace(s, '[A-Z]', '', 'g'))
              AS DOUBLE) AS upper_n,
         CAST(length(list_distinct(toks)) AS DOUBLE) AS uniq,
         CAST(length(list_filter(toks,
              x -> list_contains([{stop_list}], lower(x)))) AS DOUBLE)
              AS stop_n
  FROM ann
),
gated AS (
  SELECT doc_id, text, nt,
         0.25 * least(greatest(1.0 - abs(
             (CASE WHEN n_tok > 0 THEN alpha / n_tok ELSE 0.0 END)
             - 5.0) / 5.0, 0.0), 1.0)
         + 0.2 * least(greatest(
             (CASE WHEN n_tok > 0 THEN stop_n / n_tok ELSE 0.0 END) * 4,
             0.0), 1.0)
         + 0.25 * (CASE WHEN n_chars > 0 THEN alpha / n_chars
                        ELSE 0.0 END)
         + 0.15 * (1.0 - (CASE WHEN n_chars > 0 THEN upper_n / n_chars
                               ELSE 0.0 END))
         + 0.15 * (CASE WHEN n_tok > 0 THEN uniq / n_tok ELSE 0.0 END)
           AS q
  FROM feat
),
gate_reason AS (
  SELECT doc_id, text,
         CASE WHEN nt < 5 THEN 'too_short'
              WHEN nt > 100000 THEN 'too_long'
              WHEN q < 0.2 THEN 'low_quality' END AS reason
  FROM gated
),
p1 AS (SELECT doc_id, text FROM gate_reason WHERE reason IS NULL),
dt AS (SELECT DISTINCT coalesce(text, '') AS tx FROM p1),
fnvw(tx, pos, hh) AS (
  SELECT tx, 1, CAST(14695981039346656037 AS HUGEINT) FROM dt
  UNION ALL
  SELECT tx, pos + 1,
    (xor(hh, CAST(unicode(substr(tx, pos, 1)) AS HUGEINT)) * 1099511628211)
      % CAST(18446744073709551616 AS HUGEINT)
  FROM fnvw WHERE pos <= length(tx)
),
texth AS (SELECT tx, hh FROM fnvw WHERE pos = length(tx) + 1),
p1h AS (
  SELECT p.doc_id, t.hh FROM p1 p
  JOIN texth t ON coalesce(p.text, '') = t.tx
),
exact_removed AS (
  SELECT doc_id FROM (
    SELECT doc_id, min(doc_id) OVER (PARTITION BY hh) AS rep FROM p1h)
  WHERE doc_id != rep
),
p2 AS (SELECT doc_id, text FROM p1
       WHERE doc_id NOT IN (SELECT doc_id FROM exact_removed)),
{_sql_minhash_ctes("p2")},
mh_pairs AS (
  SELECT id_from, id_to FROM mh_eqv
  WHERE CAST(list_sum(e) AS DOUBLE) / 64.0 >= 0.6
    AND {_SQL_MINHASH_BAND_MATCH}
),
edges AS (
  SELECT CAST(id_from AS VARCHAR) AS u, CAST(id_to AS VARCHAR) AS v
  FROM mh_pairs
  UNION ALL
  SELECT CAST(id_to AS VARCHAR), CAST(id_from AS VARCHAR) FROM mh_pairs
),
walk(node, label) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, w.label FROM walk w JOIN edges e ON e.u = w.node
),
comp AS (SELECT node, min(label) AS entity FROM walk GROUP BY node)
SELECT doc_id, reason FROM gate_reason WHERE reason IS NOT NULL
UNION ALL
SELECT doc_id, 'exact_dup' AS reason FROM exact_removed
UNION ALL
SELECT CAST(node AS BIGINT) AS doc_id, 'near_dup' AS reason FROM comp
WHERE CAST(node AS BIGINT) != CAST(entity AS BIGINT)"""


def q_sketch_stats(sf_dir: str):
    """Mergeable sketches over lineitem: HLL distinct orderkeys +
    histogram quantiles of quantity (approximate by design — rows-only;
    accuracy is pytest-pinned against exact answers)."""
    from ..stages.sketch import approx_distinct, approx_quantiles
    li = _rpc(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])
    li = li.materialize()
    n_orders = approx_distinct(li, "l_orderkey")
    quants = approx_quantiles(li, "l_quantity", qs=(0.25, 0.5, 0.75))
    quants = quants.copy()
    quants["approx_distinct_orders"] = np.int64(n_orders)
    return rd.from_pandas(quants)   # uniform contract: queries -> Dataset


def q_media_features(sf_dir: str):
    media = rd.from_arrow(fake_media_table(n=64, seed=3))
    out = featurize_media(media, fake=True)
    return out.select_columns(["media_id", "media_type", "n_bytes",
                               "media_features"])


# ---------------------------------------------------------------------------
# round-4 additions: graph analytics, DSIR, chunking, entropy, calibration
# ---------------------------------------------------------------------------


def q_pagerank_graph(sf_dir: str):
    """PageRank (stages/graph.py — Brin & Page 1998 power iteration,
    broadcast rank vector / distributed fallback) over the bipartite
    supplier<->part graph from DISTINCT lineitem pairs, 3 iterations."""
    from ..stages.graph import pagerank
    from ..stages.grouped import grouped_map

    li = _rpc(f"{sf_dir}/lineitem.parquet",
              columns=["l_suppkey", "l_partkey"])
    pairs = li.map_batches(lambda df: df.drop_duplicates(),
                           batch_format="pandas")
    pairs = grouped_map(pairs, ["l_suppkey", "l_partkey"],
                        lambda g: g.drop_duplicates())

    def mk_edges(df: pd.DataFrame) -> pd.DataFrame:
        s = df["l_suppkey"].to_numpy(np.int64)
        p = df["l_partkey"].to_numpy(np.int64) + 1_000_000
        return pd.DataFrame({"src": np.concatenate([s, p]),
                             "dst": np.concatenate([p, s])})

    edges = pairs.map_batches(mk_edges, batch_format="pandas")
    ranks = pagerank(edges, damping=0.85, iters=3)

    def rounded(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["node"].astype(np.int64),
                             "rank": df["rank"].round(6)})
    return ranks.map_batches(rounded, batch_format="pandas")


def sql_pagerank_graph(sf_dir: str) -> str:
    d = "0.85"
    parts = ["""WITH dp AS (SELECT DISTINCT l_suppkey, l_partkey FROM lineitem),
edges AS (
  SELECT l_suppkey AS src, l_partkey + 1000000 AS dst FROM dp
  UNION ALL
  SELECT l_partkey + 1000000 AS src, l_suppkey AS dst FROM dp),
nodes AS (SELECT DISTINCT node FROM (
  SELECT src AS node FROM edges UNION ALL SELECT dst FROM edges)),
deg AS (SELECT src AS node, count(*) AS outdeg FROM edges GROUP BY 1),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS rank FROM nodes)"""]
    for i in range(3):
        parts.append(f""",
c{i} AS (SELECT e.dst AS node, sum(r.rank / g.outdeg) AS s
  FROM edges e JOIN r{i} r ON e.src = r.node JOIN deg g ON e.src = g.node
  GROUP BY 1),
dg{i} AS (SELECT coalesce(sum(r.rank), 0.0) AS m
  FROM r{i} r LEFT JOIN deg g ON r.node = g.node WHERE g.node IS NULL),
r{i + 1} AS (SELECT nd.node,
    (1 - {d}) / (SELECT n FROM nn)
    + {d} * (coalesce(c.s, 0.0) + (SELECT m FROM dg{i}) / (SELECT n FROM nn))
    AS rank
  FROM nodes nd LEFT JOIN c{i} c ON nd.node = c.node)""")
    parts.append("\nSELECT node, round(rank, 6) AS rank FROM r3")
    return "".join(parts)


def q_dsir_sample(sf_dir: str):
    """DSIR importance resampling (stages/dsir.py — Xie et al. 2023):
    target = the English documents, raw = all; hashed-unigram bucket
    log-ratio weights + seeded Gumbel top-k (k=200)."""
    import pyarrow.compute as pc
    from ..stages.dsir import dsir_sample

    raw = _rpc(f"{sf_dir}/documents.parquet",
               columns=["doc_id", "text", "lang"])
    target = _rpc(f"{sf_dir}/documents.parquet",
                  columns=["doc_id", "text", "lang"],
                  filter=pc.field("lang") == "en").select_columns(
                      ["doc_id", "text"])
    out = dsir_sample(raw, target, k=200, buckets=64, smoothing=1.0,
                      seed=17)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"].astype(np.int64),
                             "logw": df["logw"].round(6)})
    return out.map_batches(proj, batch_format="pandas")


def sql_dsir_sample(sf_dir: str) -> str:
    h = _sql_sample_hash(17)
    return rf"""WITH RECURSIVE tt AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(coalesce(text, '')), '\S+')) AS tok
  FROM documents),
dt AS (SELECT DISTINCT tok FROM tt),
fnv(tok, pos, h) AS (
  SELECT tok, 1, CAST(14695981039346656037 AS HUGEINT) FROM dt
  UNION ALL
  SELECT tok, pos + 1,
    (xor(h, CAST(unicode(substr(tok, pos, 1)) AS HUGEINT)) * 1099511628211)
      % CAST(18446744073709551616 AS HUGEINT)
  FROM fnv WHERE pos <= length(tok)),
th AS (SELECT tok, CAST(h AS UBIGINT) % 64 AS b FROM fnv
       WHERE pos = length(tok) + 1),
tb AS (SELECT tt.doc_id, th.b FROM tt JOIN th USING (tok)),
tgt AS (SELECT b, count(*) AS n FROM tb JOIN documents USING (doc_id)
        WHERE lang = 'en' GROUP BY 1),
rw AS (SELECT b, count(*) AS n FROM tb GROUP BY 1),
tots AS (SELECT (SELECT coalesce(sum(n), 0) FROM tgt) AS st,
                (SELECT coalesce(sum(n), 0) FROM rw) AS sr),
lam AS (SELECT r.b,
          ln((coalesce(t.n, 0) + 1.0) / ((SELECT st FROM tots) + 64.0))
        - ln((r.n + 1.0) / ((SELECT sr FROM tots) + 64.0)) AS lam
        FROM rw r LEFT JOIN tgt t USING (b)),
dw AS (SELECT tb.doc_id, sum(lam.lam) AS logw
       FROM tb JOIN lam USING (b) GROUP BY 1),
w AS (SELECT d.doc_id, coalesce(dw.logw, 0.0) AS logw
      FROM documents d LEFT JOIN dw USING (doc_id)),
keyed AS (SELECT doc_id, logw,
  logw + (-ln(-ln((CAST((({h}) >> 11) AS DOUBLE) + 0.5) * pow(2.0, -53))))
    AS gkey
  FROM w)
SELECT doc_id, round(logw, 6) AS logw
FROM keyed ORDER BY gkey DESC, doc_id LIMIT 200"""


def q_doc_chunks(sf_dir: str):
    """Fixed-width overlapped character chunking
    (stages/textstats.chunk_documents — the RAG / context-packing pass):
    200-char chunks, 50-char overlap."""
    from ..stages.textstats import chunk_documents
    docs = _rpc(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return chunk_documents(docs, chunk_chars=200, overlap=50)


def sql_doc_chunks(sf_dir: str) -> str:
    return """WITH g AS (
  SELECT doc_id, coalesce(text, '') AS t FROM documents),
s AS (SELECT doc_id, t,
             unnest(range(0, greatest(length(t), 1), 150)) AS start
      FROM g)
SELECT doc_id, start // 150 AS chunk_idx,
       substr(t, CAST(start AS INTEGER) + 1, 200) AS chunk_text
FROM s"""


def q_char_entropy(sf_dir: str):
    """Per-document character-distribution Shannon entropy
    (stages/textstats.add_char_entropy — gibberish/boilerplate signal)."""
    from ..stages.textstats import add_char_entropy
    docs = _rpc(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = add_char_entropy(docs)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"].astype(np.int64),
                             "char_entropy": df["char_entropy"].round(6)})
    return out.map_batches(proj, batch_format="pandas")


def sql_char_entropy(sf_dir: str) -> str:
    return """WITH sp AS (
  SELECT doc_id, coalesce(text, '') AS t,
         unnest(range(1, length(coalesce(text, '')) + 1)) AS i
  FROM documents),
ch AS (SELECT doc_id, substr(t, CAST(i AS INTEGER), 1) AS c FROM sp),
cc AS (SELECT doc_id, c, count(*) AS n FROM ch GROUP BY 1, 2),
tot AS (SELECT doc_id, CAST(sum(n) AS DOUBLE) AS t FROM cc GROUP BY 1),
e AS (SELECT cc.doc_id, -sum((cc.n / tot.t) * log2(cc.n / tot.t)) AS ent
      FROM cc JOIN tot USING (doc_id) GROUP BY 1)
SELECT d.doc_id, round(coalesce(e.ent, 0.0), 6) AS char_entropy
FROM documents d LEFT JOIN e USING (doc_id)"""


def q_score_calibration(sf_dir: str):
    """Reliability / calibration table (stages/agg.calibration_bins):
    equal-width score bins with empirical positive rates — fixed-width
    per-batch partials, ONE merge task, zero shuffle. Score = scaled
    l_discount, label = returnflag 'R'."""
    from ..stages.agg import calibration_bins

    li = _rpc(f"{sf_dir}/lineitem.parquet",
              columns=["l_discount", "l_returnflag"])

    def mk(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "score": df["l_discount"].to_numpy(np.float64) * 10,
            "label": (df["l_returnflag"] == "R").astype(np.int64)})

    scored = li.map_batches(mk, batch_format="pandas")
    cal = calibration_bins(scored, bins=10)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "bin": df["bin"].astype(np.int64),
            "n": df["n"].astype(np.int64),
            "mean_score": df["mean_score"].round(6),
            "mean_label": df["mean_label"].round(6),
            "gap": df["gap"].round(6)})
    return cal.map_batches(proj, batch_format="pandas")


def sql_score_calibration(sf_dir: str) -> str:
    return """WITH s AS (
  SELECT l_discount * 10 AS score,
         CASE WHEN l_returnflag = 'R' THEN 1.0 ELSE 0.0 END AS y
  FROM lineitem),
b AS (SELECT CAST(least(greatest(floor(score * 10), 0), 9) AS BIGINT)
        AS bin, score, y FROM s)
SELECT bin, count(*) AS n,
       round(avg(score), 6) AS mean_score,
       round(avg(y), 6) AS mean_label,
       round(abs(avg(score) - avg(y)), 6) AS gap
FROM b GROUP BY bin"""


def q_grouped_weighted_sample(sf_dir: str):
    """Per-group Efraimidis-Spirakis weighted sample (stages/sampling.py
    grouped_weighted_sample): 20 docs PER LANGUAGE with probability
    proportional to length — the stratified curation subset. Per-batch
    per-group top-k partials, then one slim co-partition merge."""
    from ..stages.sampling import grouped_weighted_sample
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "lang", "n_chars"])
    return grouped_weighted_sample(docs, "lang", "doc_id", "n_chars",
                                   k=20, seed=13)


def sql_grouped_weighted_sample(sf_dir: str) -> str:
    return f"""SELECT doc_id, lang, n_chars FROM (
  SELECT doc_id, lang, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY
           ln((CAST({_sql_sample_hash(13)} AS DOUBLE) + 1)
              / 18446744073709551616.0) / CAST(n_chars AS DOUBLE) DESC,
           doc_id) AS rn
  FROM documents WHERE n_chars > 0) WHERE rn <= 20"""


def q_lang_zscore(sf_dir: str):
    """Per-group standardization (stages/agg.py grouped_zscore): z-score
    of document length within each language — moment partials merged in
    ONE task, stats broadcast back, zero shuffle of the corpus."""
    from ..stages.agg import grouped_zscore
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "lang", "n_chars"])
    out = grouped_zscore(docs, "lang", "n_chars")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "lang": df["lang"],
            "z": df["z"].astype(np.float64).round(9)})
    return out.map_batches(proj, batch_format="pandas")


def sql_lang_zscore(sf_dir: str) -> str:
    # population variance from the SAME sum-moment algebra as the engine:
    # var = sxx/n - mean^2 (clamped at 0), std 0 -> null z
    return """WITH m AS (
  SELECT doc_id, lang, CAST(n_chars AS DOUBLE) AS x,
         sum(CAST(n_chars AS DOUBLE)) OVER (PARTITION BY lang) AS sx,
         sum(CAST(n_chars AS DOUBLE) * CAST(n_chars AS DOUBLE))
             OVER (PARTITION BY lang) AS sxx,
         CAST(count(n_chars) OVER (PARTITION BY lang) AS DOUBLE) AS n
  FROM documents),
s AS (SELECT doc_id, lang, x,
             sqrt(greatest(sxx / n - (sx / n) * (sx / n), 0)) AS std,
             sx / n AS mean FROM m)
SELECT doc_id, lang,
       CASE WHEN std > 0 THEN round((x - mean) / std, 9) END AS z
FROM s"""


_BLOCKLIST_TERMS = ["spark", "slow table", "big vector"]


def q_blocklist_stats(sf_dir: str):
    """Dictionary blocklist filter (stages/textstats.py
    add_blocklist_stats): non-overlapping case-insensitive term counts +
    threshold flag per document — stateless, zero shuffle."""
    from ..stages.textstats import add_blocklist_stats
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    out = add_blocklist_stats(docs, _BLOCKLIST_TERMS, threshold=2)
    return out.select_columns(["doc_id", "blocklist_hits",
                               "blocklist_flag"])


def sql_blocklist_stats(sf_dir: str) -> str:
    terms = " + ".join(
        f"(length(t) - length(replace(t, '{term}', ''))) // "
        f"{len(term)}" for term in _BLOCKLIST_TERMS)
    return f"""SELECT doc_id, hits AS blocklist_hits,
       hits >= 2 AS blocklist_flag
FROM (SELECT doc_id, {terms} AS hits
      FROM (SELECT doc_id, lower(coalesce(text, '')) AS t
            FROM documents))"""


def q_orders_upsert(sf_dir: str):
    """MERGE-INTO upsert compaction (stages/cdc.py apply_changes): the
    orders snapshot merged with a deterministic changelog — %13 keys get
    a price-bump update, %17 keys a tombstone delete, %19 keys insert
    under shifted ids (keys in several classes settle by sequence:
    delete beats update at equal ts). One tagged-union co-partition."""
    from ..stages.cdc import apply_changes
    cols = ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"]
    base = _rpc(f"{sf_dir}/orders.parquet", columns=cols)

    def mk_changes(df: pd.DataFrame) -> pd.DataFrame:
        upd = df[df["o_orderkey"] % 13 == 0].copy()
        upd["o_totalprice"] = upd["o_totalprice"] + 10.0
        upd["seq"] = np.int64(1)
        upd["is_delete"] = False
        dele = df[df["o_orderkey"] % 17 == 0].copy()
        dele["seq"] = np.int64(2)
        dele["is_delete"] = True
        ins = df[df["o_orderkey"] % 19 == 0].copy()
        ins["o_orderkey"] = ins["o_orderkey"] + 100_000_000
        ins["seq"] = np.int64(1)
        ins["is_delete"] = False
        return pd.concat([upd, dele, ins], ignore_index=True)

    changes = _rpc(f"{sf_dir}/orders.parquet", columns=cols).map_batches(
        mk_changes, batch_format="pandas")
    merged = apply_changes(base, changes, "o_orderkey", "o_orderdate",
                           tiebreak_cols="seq", tombstone_col="is_delete")
    return merged.select_columns(["o_orderkey", "o_custkey",
                                  "o_totalprice"])


def sql_orders_upsert(sf_dir: str) -> str:
    return """WITH ch AS (
  SELECT o_orderkey, o_custkey, o_totalprice + 10.0 AS o_totalprice,
         o_orderdate, 1 AS seq, FALSE AS is_delete
  FROM orders WHERE o_orderkey % 13 = 0
  UNION ALL
  SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, 2, TRUE
  FROM orders WHERE o_orderkey % 17 = 0
  UNION ALL
  SELECT o_orderkey + 100000000, o_custkey, o_totalprice, o_orderdate,
         1, FALSE
  FROM orders WHERE o_orderkey % 19 = 0),
allr AS (
  SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate,
         CAST(NULL AS BIGINT) AS seq, CAST(NULL AS BOOLEAN) AS is_delete,
         0 AS rnk
  FROM orders
  UNION ALL
  SELECT *, 1 AS rnk FROM ch),
win AS (
  SELECT * FROM allr
  QUALIFY row_number() OVER (PARTITION BY o_orderkey
    ORDER BY rnk DESC, o_orderdate DESC NULLS LAST,
             seq DESC NULLS LAST) = 1)
SELECT o_orderkey, o_custkey, o_totalprice
FROM win WHERE NOT coalesce(is_delete, FALSE)"""


def q_event_transitions(sf_dir: str):
    """First-order Markov transition counts (stages/events.py
    event_transitions): per-user (prev -> next) event-type pairs ordered
    by (ts, event_id) — one co-partition shuffle, vectorized grouped
    lag, fixed-width k x k merge."""
    from ..stages.events import event_transitions
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["event_id", "ts", "user_id", "event_type"])
    return event_transitions(ev)


def sql_event_transitions(sf_dir: str) -> str:
    return """WITH t AS (
  SELECT event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events)
SELECT prev AS prev_type, event_type AS next_type,
       CAST(count(*) AS BIGINT) AS n
FROM t WHERE prev IS NOT NULL GROUP BY 1, 2"""


def q_pmi_scores(sf_dir: str):
    """Adjacent-token-pair PMI (stages/corpus_stats.py pmi_scores):
    collocation mining from exact corpus counts — pair/unigram slim
    shuffles + one scalar pass, vocabulary broadcast once."""
    from ..stages.corpus_stats import pmi_scores
    docs = _rpc(f"{sf_dir}/documents.parquet", columns=["text"])
    return pmi_scores(docs, min_count=5)


def sql_pmi_scores(sf_dir: str) -> str:
    # float expression order shared with the engine:
    # (n*N*N) / ((P*n_a)*n_b), one log2, round 9
    return """WITH w AS (
  SELECT string_split(coalesce(text, ''), ' ') AS words FROM documents),
tok AS (SELECT unnest(words) AS t FROM w),
uni AS (SELECT t, CAST(count(*) AS BIGINT) AS n FROM tok
        WHERE t <> '' GROUP BY t),
tot AS (SELECT CAST(sum(n) AS DOUBLE) AS big_n FROM uni),
p AS (SELECT unnest(words[1:len(words) - 1]) AS a,
             unnest(words[2:len(words)]) AS b
      FROM w WHERE len(words) >= 2),
pp AS (SELECT a, b FROM p WHERE a <> '' AND b <> ''),
ptot AS (SELECT CAST(count(*) AS DOUBLE) AS big_p FROM pp),
pc AS (SELECT a, b, CAST(count(*) AS BIGINT) AS n FROM pp
       GROUP BY a, b HAVING count(*) >= 5)
SELECT pc.a AS left_tok, pc.b AS right_tok, pc.n,
       round(log2((CAST(pc.n AS DOUBLE) * big_n * big_n)
                  / ((big_p * ua.n) * ub.n)), 9) AS pmi
FROM pc
CROSS JOIN tot CROSS JOIN ptot
JOIN uni ua ON ua.t = pc.a
JOIN uni ub ON ub.t = pc.b"""


def q_scd2_versions(sf_dir: str):
    """Type-2 SCD validity intervals (stages/cdc.py scd2_intervals):
    each event becomes a version row with [valid_from, valid_to) per
    user — one co-partition shuffle, vectorized grouped LEAD."""
    from ..stages.cdc import scd2_intervals
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["event_id", "ts", "user_id"])
    out = scd2_intervals(ev, "user_id", "ts", tiebreak_cols="event_id")
    return out.select_columns(["event_id", "user_id", "valid_from",
                               "valid_to", "is_current"])


def sql_scd2_versions(sf_dir: str) -> str:
    return """SELECT event_id, user_id, ts AS valid_from,
       lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
         AS valid_to,
       lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
         IS NULL AS is_current
FROM events"""


def q_tpch_q3(sf_dir: str):
    """TPC-H Q3 shape (shipping-priority top-10): selective dimension
    semi-filter BROADCAST into the orders scan, one big-big hash join
    lineitem x orders, per-batch partial revenue sums before the ONE
    grouped merge, then global top-k WITHOUT a full sort
    (stages/reshape.global_topk)."""
    from ..stages.join import hash_join
    from ..stages.grouped import grouped_map
    from ..stages.reshape import global_topk
    SEG, DATE = "BUILDING", "1995-03-15"

    def c_filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.equal(t["c_mktsegment"], SEG))
    cust = _rpc(f"{sf_dir}/customer.parquet",
                columns=["c_custkey", "c_mktsegment"]).map_batches(
        c_filter, batch_format="pyarrow")
    orders = _rpc(f"{sf_dir}/orders.parquet",
                  columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["o_orderdate"] < pd.Timestamp(DATE)]
    orders = hash_join(
        orders.map_batches(o_filter, batch_format="pandas"),
        cust, on="o_custkey", right_on="c_custkey", how="semi")
    li = _rpc(f"{sf_dir}/lineitem.parquet",
              columns=["l_orderkey", "l_extendedprice", "l_discount",
                       "l_shipdate"])

    def l_filter(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] > pd.Timestamp(DATE)].copy()
        df["revenue"] = (df["l_extendedprice"].to_numpy(np.float64)
                         * (1.0 - df["l_discount"].to_numpy(np.float64)))
        return df[["l_orderkey", "revenue"]]
    li = li.map_batches(l_filter, batch_format="pandas")
    j = hash_join(li, orders.select_columns(["o_orderkey", "o_orderdate"]),
                  on="l_orderkey", right_on="o_orderkey")
    # per-order revenue is HIGH-cardinality (one group per order): partial
    # sums per batch, ONE co-partition merge — not the small-key fast path
    def gsum(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["l_orderkey", "o_orderdate"], sort=False)
                ["revenue"].sum().reset_index())
    rev = grouped_map(j.map_batches(gsum, batch_format="pandas"),
                      ["l_orderkey", "o_orderdate"], gsum)
    top = global_topk(rev, ["revenue", "o_orderdate", "l_orderkey"],
                      k=10, ascending=[False, True, True])

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"].astype(np.int64),
            "revenue": df["revenue"].astype(np.float64).round(6),
            "o_orderdate": df["o_orderdate"]})
    return top.map_batches(proj, batch_format="pandas")


def sql_tpch_q3(sf_dir: str) -> str:
    return """SELECT l_orderkey,
       round(sum(l_extendedprice * (1 - l_discount)), 6) AS revenue,
       o_orderdate
FROM customer JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < DATE '1995-03-15'
  AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate
ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC,
         o_orderdate, l_orderkey
LIMIT 10"""


def q_tpch_q18(sf_dir: str):
    """TPC-H Q18 shape (large-volume orders): HAVING over a
    HIGH-cardinality group (sum quantity per order, partial-agg before
    the one co-partition merge), filter, then a hash join back to orders
    and a broadcast customer-name attach — the group-filter-join-back
    pattern."""
    from ..stages.join import hash_join
    from ..stages.grouped import grouped_map
    THRESH = 250.0
    li = _rpc(f"{sf_dir}/lineitem.parquet",
              columns=["l_orderkey", "l_quantity"])

    def gsum(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("l_orderkey", sort=False)["l_quantity"]
                .sum().rename("total_qty").reset_index())

    qty = grouped_map(li.map_batches(gsum, batch_format="pandas"),
                      "l_orderkey", lambda df: (
                          df.groupby("l_orderkey", sort=False)
                          ["total_qty"].sum().reset_index()))

    def having(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.grouped import typed_or_empty
        return typed_or_empty(df[df["total_qty"] > THRESH])
    qty = qty.map_batches(having, batch_format="pandas")
    orders = _rpc(f"{sf_dir}/orders.parquet",
                  columns=["o_orderkey", "o_custkey", "o_totalprice",
                           "o_orderdate"])
    j = hash_join(qty, orders, on="l_orderkey", right_on="o_orderkey")
    cust = _rpc(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    out = hash_join(j, cust, on="o_custkey", right_on="c_custkey",
                    how="left")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "c_name": df["c_name"],
            "o_custkey": df["o_custkey"].astype(np.int64),
            "l_orderkey": df["l_orderkey"].astype(np.int64),
            "o_orderdate": df["o_orderdate"],
            "o_totalprice": df["o_totalprice"].astype(np.float64),
            "total_qty": df["total_qty"].astype(np.float64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_tpch_q18(sf_dir: str) -> str:
    return """SELECT c_name, o_custkey, l_orderkey, o_orderdate,
       o_totalprice, total_qty
FROM (SELECT l_orderkey, sum(l_quantity) AS total_qty
      FROM lineitem GROUP BY l_orderkey
      HAVING sum(l_quantity) > 250.0) q
JOIN orders ON o_orderkey = q.l_orderkey
JOIN customer ON c_custkey = o_custkey"""


def q_golden_records(sf_dir: str):
    """Survivorship / golden-record construction (stages/cluster.py
    golden_records): one canonical row per entity cluster — min/sum
    reduces, mode with smallest-value tiebreak, representative-row
    'first' (min-key convention). Clusters here = customers over their
    orders so the SQL twin is pure relational."""
    from ..stages.cluster import golden_records
    cols = ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate",
            "o_orderstatus", "o_orderpriority"]
    orders = _rpc(f"{sf_dir}/orders.parquet", columns=cols)

    def ent(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"o_orderkey": df["o_orderkey"],
                             "entity_id": df["o_custkey"]})

    entities = _rpc(f"{sf_dir}/orders.parquet",
                    columns=["o_orderkey", "o_custkey"]).map_batches(
        ent, batch_format="pandas")
    out = golden_records(
        orders.drop_columns(["o_custkey"]), entities,
        key_col="o_orderkey",
        rules={"o_orderdate": "min", "o_totalprice": "sum",
               "o_orderstatus": "mode", "o_orderpriority": "first"})

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["o_totalprice"] = df["o_totalprice"].astype(
            np.float64).round(6)
        return df[["entity_id", "n_members", "o_orderdate",
                   "o_totalprice", "o_orderstatus", "o_orderpriority"]]
    return out.map_batches(proj, batch_format="pandas")


def sql_golden_records(sf_dir: str) -> str:
    return """WITH rep AS (
  SELECT o_custkey, min(o_orderkey) AS rk FROM orders GROUP BY o_custkey),
md AS (
  SELECT o_custkey, o_orderstatus FROM (
    SELECT o_custkey, o_orderstatus,
           row_number() OVER (PARTITION BY o_custkey
             ORDER BY count(*) DESC, o_orderstatus) AS rn
    FROM orders WHERE o_orderstatus IS NOT NULL
    GROUP BY o_custkey, o_orderstatus) WHERE rn = 1)
SELECT o.o_custkey AS entity_id,
       CAST(count(*) AS BIGINT) AS n_members,
       min(o.o_orderdate) AS o_orderdate,
       round(sum(o.o_totalprice), 6) AS o_totalprice,
       any_value(md.o_orderstatus) AS o_orderstatus,
       any_value(f.o_orderpriority) AS o_orderpriority
FROM orders o
JOIN md ON md.o_custkey = o.o_custkey
JOIN rep ON rep.o_custkey = o.o_custkey
JOIN orders f ON f.o_orderkey = rep.rk
GROUP BY o.o_custkey"""


def q_top_terms(sf_dir: str):
    """Per-document tf-idf keywords (stages/search.py top_terms_per_doc):
    bounded (token, df) table broadcast once; each batch scores and
    top-k's its own docs — the corpus never shuffles."""
    from ..stages.search import top_terms_per_doc
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    return top_terms_per_doc(docs, k=3)


def sql_top_terms(sf_dir: str) -> str:
    return """WITH w AS (
  SELECT doc_id, string_split(coalesce(text, ''), ' ') AS words
  FROM documents),
tt AS (SELECT doc_id, unnest(words) AS t FROM w),
tok AS (SELECT doc_id, t FROM tt WHERE t <> ''),
dfq AS (SELECT t, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
        FROM tok GROUP BY t),
nd AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
tf AS (SELECT doc_id, t, CAST(count(*) AS DOUBLE) AS tf
       FROM tok GROUP BY doc_id, t)
SELECT doc_id, token, round(score, 9) AS score,
       CAST(rank AS BIGINT) AS rank FROM (
  SELECT tf.doc_id, tf.t AS token, tf.tf * ln(n / dfq.df) AS score,
         row_number() OVER (PARTITION BY tf.doc_id
           ORDER BY tf.tf * ln(n / dfq.df) DESC, tf.t) AS rank
  FROM tf JOIN dfq ON dfq.t = tf.t CROSS JOIN nd)
WHERE rank <= 3"""


def q_interp_quantiles(sf_dir: str):
    """Interpolated exact quantiles (stages/scan.py exact_quantiles
    interp=True — SQL quantile_cont parity): doc-length quartiles over
    integer n_chars (dyadic q x integer values -> bit-exact on both
    sides)."""
    from ..stages.scan import exact_quantiles
    docs = _rpc(f"{sf_dir}/documents.parquet", columns=["n_chars"])
    return exact_quantiles(docs, "n_chars", (0.25, 0.5, 0.75),
                           interp=True)


def sql_interp_quantiles(sf_dir: str) -> str:
    return """SELECT 0.25 AS q,
       quantile_cont(n_chars, 0.25) AS value FROM documents
UNION ALL SELECT 0.5, quantile_cont(n_chars, 0.5) FROM documents
UNION ALL SELECT 0.75, quantile_cont(n_chars, 0.75) FROM documents"""


def q_user_event_seq(sf_dir: str):
    """Ordered per-key string aggregation (stages/agg.py group_concat):
    each user's event-type sequence joined in (ts, event_id) order —
    SQL string_agg parity, one co-partition shuffle."""
    from ..stages.agg import group_concat
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["event_id", "ts", "user_id", "event_type"])
    return group_concat(ev, "user_id", "event_type",
                        order_cols=["ts", "event_id"])


def sql_user_event_seq(sf_dir: str) -> str:
    return """SELECT user_id,
       string_agg(event_type, ',' ORDER BY ts, event_id)
         AS event_type_concat
FROM events WHERE event_type IS NOT NULL GROUP BY user_id"""


def q_user_distinct_types(sf_dir: str):
    """Exact per-key COUNT DISTINCT (stages/agg.py grouped_nunique):
    distinct event types per user — per-batch partial-distinct, one slim
    shuffle."""
    from ..stages.agg import grouped_nunique
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["user_id", "event_type"])
    return grouped_nunique(ev, "user_id", "event_type")


def sql_user_distinct_types(sf_dir: str) -> str:
    return """SELECT user_id,
       CAST(count(DISTINCT event_type) AS BIGINT) AS n_distinct
FROM events GROUP BY user_id"""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_ORACLE_SF_DIR = "/root/testdata/sf0.01"  # the driver's correctness scale


# ---------------------------------------------------------------------------
# round-5 additions: rank windows, table fingerprint, containment, robust
# scaling, epoch shuffle, compression-ratio quality signal
# ---------------------------------------------------------------------------

def q_event_rank(sf_dir: str):
    """Per-user RANK + DENSE_RANK by integer-floored value DESC
    (stages/scan.py:grouped_rank — one co-partition shuffle, vectorized
    pandas rank across all groups of a partition; floor() manufactures
    ties so both rank flavors are exercised)."""
    from ..stages.scan import grouped_rank
    ev = _rpc(f"{sf_dir}/events.parquet",
              columns=["event_id", "user_id", "value"])

    def floor_val(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_fv=np.floor(df["value"].to_numpy(np.float64)))

    out = grouped_rank(ev.map_batches(floor_val, batch_format="pandas"),
                       "user_id", "_fv", ascending=False)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].astype(np.int64),
            "user_id": df["user_id"].astype(np.int64),
            "rank": df["rank"].astype(np.int64),
            "dense_rank": df["dense_rank"].astype(np.int64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_event_rank(sf_dir: str) -> str:
    return """SELECT event_id, user_id,
       CAST(rank() OVER w AS BIGINT) AS rank,
       CAST(dense_rank() OVER w AS BIGINT) AS dense_rank
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY floor(value) DESC)"""


def q_table_fingerprint(sf_dir: str):
    """Order-independent bucketed checksum of the orders table
    (stages/agg.py:table_fingerprint — fixed-width uint64 wrap-sum
    partials per batch, one single-task merge; the Merkle-style replica /
    before-after diff primitive)."""
    from ..stages.agg import table_fingerprint
    orders = _rpc(f"{sf_dir}/orders.parquet",
                  columns=["o_orderkey", "o_custkey"])
    return table_fingerprint(orders, "o_orderkey", "o_custkey", buckets=64)


def sql_table_fingerprint(sf_dir: str) -> str:
    inner = _sql_splitmix64("CAST(o_orderkey AS UBIGINT)")
    outer = _sql_splitmix64(f"xor({inner}, CAST(o_custkey AS UBIGINT))")
    return f"""WITH h AS (
  SELECT o_orderkey % 64 AS bucket, {outer} AS h FROM orders
)
SELECT bucket,
       lower(lpad(hex(CAST(sum(CAST(h AS HUGEINT))
                           % 18446744073709551616 AS UBIGINT)), 16, '0'))
         AS fp,
       CAST(count(*) AS BIGINT) AS n
FROM h GROUP BY bucket"""


def q_ngram_containment(sf_dir: str):
    """Directional 5-gram containment pairs within language blocks
    (stages/dedup.py:ngram_containment_pairs — the asymmetric
    doc-quoted-inside-doc near-dup signal; one co-partition shuffle,
    vectorized self-merge per block)."""
    from ..stages.dedup import ngram_containment_pairs
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "lang", "text"])
    out = ngram_containment_pairs(docs, block_col="lang", n=5,
                                  threshold=0.6)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "id_from": df["id_from"].astype(np.int64),
            "id_to": df["id_to"].astype(np.int64),
            "containment": df["containment"].astype(np.float64).round(6)})
    return out.map_batches(proj, batch_format="pandas")


def sql_ngram_containment(sf_dir: str) -> str:
    return """WITH g AS (
  SELECT DISTINCT doc_id, lang, substr(text, CAST(i AS INTEGER), 5) AS gm
  FROM (SELECT doc_id, lang, text, unnest(range(1, length(text) - 3)) AS i
        FROM documents WHERE length(text) >= 5)
),
s AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS c FROM g GROUP BY doc_id),
x AS (
  SELECT a.doc_id AS id_from, b.doc_id AS id_to,
         CAST(count(*) AS DOUBLE) AS inter
  FROM g a JOIN g b ON a.gm = b.gm AND a.lang = b.lang
                   AND a.doc_id <> b.doc_id
  GROUP BY 1, 2
)
SELECT x.id_from, x.id_to, round(x.inter / sa.c, 6) AS containment
FROM x JOIN s sa ON sa.doc_id = x.id_from
WHERE x.inter / sa.c >= 0.6"""


def q_robust_scale(sf_dir: str):
    """Per-language robust standardization of doc length —
    (x - median) / IQR with quantile_cont-parity interpolated quartiles
    (stages/scan.py:grouped_robust_scale; quartiles AND join-back inside
    ONE co-partition shuffle)."""
    from ..stages.scan import grouped_robust_scale
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "lang", "n_chars"])
    out = grouped_robust_scale(docs, "lang", "n_chars")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "lang": df["lang"],
            "robust_z": df["robust_z"].astype(np.float64).round(6)})
    return out.map_batches(proj, batch_format="pandas")


def sql_robust_scale(sf_dir: str) -> str:
    return """WITH s AS (
  SELECT lang,
         quantile_cont(n_chars, 0.25) AS q1,
         quantile_cont(n_chars, 0.5) AS med,
         quantile_cont(n_chars, 0.75) AS q3
  FROM documents GROUP BY lang
)
SELECT d.doc_id, d.lang,
       round(CASE WHEN s.q3 - s.q1 = 0 THEN 0.0
                  ELSE (d.n_chars - s.med) / (s.q3 - s.q1) END, 6)
         AS robust_z
FROM documents d JOIN s USING (lang)"""


def q_epoch_shuffle(sf_dir: str):
    """Deterministic training-epoch permutation: 1-based shuffle position
    under ORDER BY (splitmix64(doc_id XOR seed_mix(epoch)), doc_id)
    (stages/sampling.py:epoch_shuffle — stateless hash map + the
    prefix-scan row_number; one distributed sort, no driver collect)."""
    from ..stages.sampling import epoch_shuffle
    docs = _rpc(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    out = epoch_shuffle(docs, "doc_id", epoch=3)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "shuffle_pos": df["shuffle_pos"].astype(np.int64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_epoch_shuffle(sf_dir: str) -> str:
    return f"""SELECT doc_id,
       CAST(row_number() OVER (ORDER BY {_sql_sample_hash(3)}, doc_id)
            AS BIGINT) AS shuffle_pos
FROM documents"""


def q_compression_ratio(sf_dir: str):
    """DEFLATE compression-ratio quality signal per document
    (stages/textstats.py:add_compression_ratio — zero-shuffle stateless
    pass; zlib is not expressible in SQL, so this entry is rows-only and
    its value parity is pinned by pytest against direct zlib)."""
    from ..stages.textstats import add_compression_ratio
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    out = add_compression_ratio(docs)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "compression_ratio":
                df["compression_ratio"].astype(np.float64)})
    return out.map_batches(proj, batch_format="pandas")



def q_orders_diff_pruned(sf_dir: str):
    """Bucket-pruned snapshot diff (stages/cdc.py fingerprint_diff): the
    orders_diff mutation reconciled via per-bucket fingerprint comparison
    first — only dirty buckets' rows enter the row-level diff shuffle
    (the 100-TB almost-identical-replica shape). Output identical to
    q_orders_diff; the oracle is the same FULL OUTER JOIN."""
    from ..stages.cdc import fingerprint_diff
    cols = ["o_orderkey", "o_custkey", "o_totalprice"]
    base = _rpc(f"{sf_dir}/orders.parquet", columns=cols)

    def mk_v2(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["o_orderkey"] % 17 != 0].copy()
        bump = (keep["o_orderkey"] % 13 == 0).to_numpy()
        keep.loc[bump, "o_totalprice"] = keep.loc[bump, "o_totalprice"] \
            + 10.0
        add = df[df["o_orderkey"] % 19 == 0].copy()
        add["o_orderkey"] = add["o_orderkey"] + 100_000_000
        return pd.concat([keep, add], ignore_index=True)

    v2 = _rpc(f"{sf_dir}/orders.parquet", columns=cols).map_batches(
        mk_v2, batch_format="pandas")
    return fingerprint_diff(base, v2, "o_orderkey", buckets=256)


def sql_orders_diff_pruned(sf_dir: str) -> str:
    return sql_orders_diff(sf_dir)


def q_grouped_heavy_hitters(sf_dir: str):
    """Per-language phi-frequent tokens with EXACT counts
    (stages/sketch.py grouped_heavy_hitters — per-group Misra-Gries
    partials, in-partition candidate floors, exact broadcast recount;
    driver holds only candidates + per-group totals)."""
    from ..stages.sketch import grouped_heavy_hitters
    docs = _rpc(f"{sf_dir}/documents.parquet", columns=["lang", "text"])
    out = grouped_heavy_hitters(docs, "lang", "text", phi=0.005,
                                tokenize=True)

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lang": df["lang"], "token": df["token"],
                             "n": df["n"].astype(np.int64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_grouped_heavy_hitters(sf_dir: str) -> str:
    return """WITH t AS (
  SELECT lang, unnest(string_split(text, ' ')) AS tok FROM documents
),
t2 AS (SELECT lang, tok FROM t WHERE tok <> ''),
tot AS (SELECT lang, count(*) AS n FROM t2 GROUP BY lang),
c AS (SELECT lang, tok, count(*) AS n FROM t2 GROUP BY 1, 2)
SELECT c.lang, c.tok AS token, CAST(c.n AS BIGINT) AS n
FROM c JOIN tot USING (lang)
WHERE c.n >= ceil(0.005 * tot.n)"""


def q_lineitem_cube(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus) sums — all 4 grouping
    sets with SQL GROUPING_ID parity (stages/agg.py cube_sum: finest
    partials, every set derived in the ONE merge task)."""
    from ..stages.agg import cube_sum
    li = _rpc(f"{sf_dir}/lineitem.parquet",
              columns=["l_returnflag", "l_linestatus", "l_quantity",
                       "l_extendedprice"])
    out = cube_sum(li, ["l_returnflag", "l_linestatus"],
                   ["l_quantity", "l_extendedprice"], size_col="n_rows")

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_returnflag": df["l_returnflag"].fillna(""),
            "l_linestatus": df["l_linestatus"].fillna(""),
            "sum_qty": df["l_quantity"].round(2),
            "sum_price": df["l_extendedprice"].round(2),
            "n_rows": df["n_rows"].astype(np.int64),
            "grouping_id": df["grouping_id"].astype(np.int64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_lineitem_cube(sf_dir: str) -> str:
    return """SELECT coalesce(l_returnflag, '') AS l_returnflag,
       coalesce(l_linestatus, '') AS l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_price,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(grouping(l_returnflag) * 2 + grouping(l_linestatus) AS BIGINT)
         AS grouping_id
FROM lineitem
GROUP BY CUBE(l_returnflag, l_linestatus)"""


def q_cooccurrence(sf_dir: str):
    """Window-4 skip-gram co-occurrence counts
    (stages/corpus_stats.py cooccurrence_counts — the word-embedding /
    window-PMI counting pass; per-batch distinct-pair partials over all
    window offsets, one Zipf-slim shuffle)."""
    from ..stages.corpus_stats import cooccurrence_counts
    docs = _rpc(f"{sf_dir}/documents.parquet", columns=["text"])
    return cooccurrence_counts(docs, window=4, min_count=5)


def sql_cooccurrence(sf_dir: str) -> str:
    zips = "\nUNION ALL\n".join(
        f"""  SELECT unnest(words[1:len(words) - {k}]) AS left_tok,
         unnest(words[{k + 1}:len(words)]) AS right_tok
  FROM w WHERE len(words) >= {k + 1}""" for k in range(1, 5))
    return f"""WITH w AS (
  SELECT string_split(coalesce(text, ''), ' ') AS words FROM documents
),
p AS (
{zips}
)
SELECT left_tok, right_tok, CAST(count(*) AS BIGINT) AS n
FROM p WHERE left_tok <> '' AND right_tok <> ''
GROUP BY left_tok, right_tok HAVING count(*) >= 5"""


def q_dedup_canonical(sf_dir: str):
    """Canonicalization-keyed exact dedup (stages/normalize.py
    canonicalize_for_dedup -> stages/dedup.py exact_dedup): documents
    differing only in case / digits / punctuation / whitespace collapse
    to one canonical key; keep the min doc_id per key — the cheap
    trivial-variant pass that runs before the near-dup family."""
    from ..stages.dedup import exact_dedup
    from ..stages.normalize import canonicalize_for_dedup
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    canon = canonicalize_for_dedup(docs)
    return exact_dedup(canon.select_columns(["doc_id", "text_canon"]),
                       key_col="text_canon", id_col="doc_id")


def sql_dedup_canonical(sf_dir: str) -> str:
    # step-for-step twin of the pyarrow kernel chain (RE2 class shared)
    return r"""WITH c AS (
  SELECT doc_id,
         trim(regexp_replace(
           regexp_replace(
             regexp_replace(lower(coalesce(text, '')), '[0-9][0-9.,]*', '0', 'g'),
             '[!"#$%&''()*+,\-./:;<=>?@\[\\\]^_`{|}~]', ' ', 'g'),
           '\s+', ' ', 'g')) AS text_canon
  FROM documents
)
SELECT text_canon, CAST(min(doc_id) AS BIGINT) AS keep_doc_id
FROM c GROUP BY text_canon"""


def q_script_stats(sf_dir: str):
    """Per-doc Unicode-script composition (stages/textstats.py
    add_script_stats — the pipeline-routing signal; RE2 \\p{Script}
    classes shared verbatim with the oracle)."""
    from ..stages.textstats import add_script_stats
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"])
    out = add_script_stats(docs, scripts=("Latin", "Han"))

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype(np.int64),
            "n_cp": df["n_cp"].astype(np.int64),
            "latin_frac": df["latin_frac"].astype(np.float64),
            "han_frac": df["han_frac"].astype(np.float64)})
    return out.map_batches(proj, batch_format="pandas")


def sql_script_stats(sf_dir: str) -> str:
    return r"""SELECT doc_id,
       CAST(length(coalesce(text, '')) AS BIGINT) AS n_cp,
       round(len(regexp_extract_all(coalesce(text, ''), '\p{Latin}'))
             / greatest(length(coalesce(text, '')), 1)::DOUBLE, 6)
         AS latin_frac,
       round(len(regexp_extract_all(coalesce(text, ''), '\p{Han}'))
             / greatest(length(coalesce(text, '')), 1)::DOUBLE, 6)
         AS han_frac
FROM documents"""


def q_dedup_keep_best(sf_dir: str):
    """Quality-aware near-dup family survivorship (stages/dedup.py
    keep_best_per_family over minhash_lsh_dedup pairs): families closed
    by connected components, each family keeps its longest doc
    (n_chars DESC, ties min doc_id); singletons keep themselves."""
    from ..stages.dedup import keep_best_per_family, minhash_lsh_dedup
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text", "n_chars"])
    pairs = minhash_lsh_dedup(docs.select_columns(["doc_id", "text"]),
                              jaccard_threshold=0.5)
    return keep_best_per_family(docs, pairs)


def sql_dedup_keep_best(sf_dir: str) -> str:
    return f"""WITH RECURSIVE {_sql_minhash_ctes("documents")},
links AS (
  SELECT id_from, id_to FROM mh_eqv
  WHERE CAST(list_sum(e) AS DOUBLE) / 64.0 >= 0.5
    AND {_SQL_MINHASH_BAND_MATCH}
),
edges AS (
  SELECT id_from AS u, id_to AS v FROM links
  UNION ALL
  SELECT id_to AS u, id_from AS v FROM links
),
walk(node, label) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, w.label FROM walk w JOIN edges e ON e.u = w.node
),
fam AS (SELECT node AS doc_id, min(label) AS fam_id FROM walk GROUP BY node),
fam_all AS (
  SELECT d.doc_id, coalesce(f.fam_id, d.doc_id) AS fam_id
  FROM documents d LEFT JOIN fam f ON f.doc_id = d.doc_id
),
best AS (
  SELECT fam_id, doc_id AS keep_doc_id FROM (
    SELECT fa.fam_id, fa.doc_id,
           row_number() OVER (PARTITION BY fa.fam_id
                              ORDER BY d.n_chars DESC, fa.doc_id) AS rn
    FROM fam_all fa JOIN documents d ON d.doc_id = fa.doc_id)
  WHERE rn = 1
)
SELECT fa.doc_id, b.keep_doc_id
FROM fam_all fa JOIN best b ON b.fam_id = fa.fam_id"""


def q_incremental_minhash(sf_dir: str):
    """Near-dup dedup of a new ingest (odd doc_ids) vs a FROZEN corpus
    (even doc_ids) — stages/dedup.py incremental_minhash_dedup: a new
    doc drops when it near-dups any frozen doc or a smaller-id new doc
    (pairwise keep-first); survivors keep full columns."""
    from ..stages.dedup import incremental_minhash_dedup
    docs = _rpc(f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text", "n_chars"])

    def odd(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["doc_id"] % 2 == 1]

    def even(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["doc_id"] % 2 == 0]

    new = docs.map_batches(odd, batch_format="pandas")
    frz = docs.map_batches(even, batch_format="pandas")
    out = incremental_minhash_dedup(new, frz, jaccard_threshold=0.5)
    return out.select_columns(["doc_id", "n_chars"])


def sql_incremental_minhash(sf_dir: str) -> str:
    return f"""WITH {_sql_minhash_ctes("documents")},
pr AS (
  SELECT id_from, id_to FROM mh_eqv
  WHERE CAST(list_sum(e) AS DOUBLE) / 64.0 >= 0.5
    AND {_SQL_MINHASH_BAND_MATCH}
),
dropped AS (
  SELECT id_to AS doc_id FROM pr WHERE id_to % 2 = 1
  UNION
  SELECT id_from FROM pr WHERE id_from % 2 = 1 AND id_to % 2 = 0
)
SELECT doc_id, n_chars FROM documents
WHERE doc_id % 2 = 1
  AND doc_id NOT IN (SELECT doc_id FROM dropped)"""


def build_queries() -> dict:
    return {
        # Ordered for driver evidence rotation: the driver snapshots the
        # FIRST 50 entries, so the queries with the oldest (or no) driver
        # evidence come first. All 134 pass scripts/check_oracle.py.
        "script_stats": q_script_stats,
        "dedup_keep_best": q_dedup_keep_best,
        "incremental_minhash": q_incremental_minhash,
        "compression_ratio": q_compression_ratio,
        "interval_join": q_interval_join,
        "incremental_assign_rule": q_incremental_assign_rule,
        "dup_spans": q_dup_spans,
        "dup_span_removal": q_dup_span_removal,
        "dedup_lines": q_dedup_lines,
        "pair_counts": q_pair_counts,
        "encode_tokens": q_encode_tokens,
        "tfidf_pairs": q_tfidf_pairs,
        "range_window_sum": q_range_window_sum,
        "event_gaps": q_event_gaps,
        "event_ntile": q_event_ntile,
        "lineitem_rollup": q_lineitem_rollup,
        "mixture_sample": q_mixture_sample,
        "grouped_weighted_sample": q_grouped_weighted_sample,
        "lang_zscore": q_lang_zscore,
        "blocklist_stats": q_blocklist_stats,
        "orders_upsert": q_orders_upsert,
        "event_transitions": q_event_transitions,
        "pmi_scores": q_pmi_scores,
        "user_event_seq": q_user_event_seq,
        "user_distinct_types": q_user_distinct_types,
        "interp_quantiles": q_interp_quantiles,
        "top_terms": q_top_terms,
        "golden_records": q_golden_records,
        "tpch_q3": q_tpch_q3,
        "tpch_q18": q_tpch_q18,
        "scd2_versions": q_scd2_versions,
        "setop_except": q_setop_except,
        "union_by_name": q_union_by_name,
        "setop_intersect": q_setop_intersect,
        "curation_capped": q_curation_capped,
        "pack_shards": q_pack_shards,
        "exact_quantiles": q_exact_quantiles,
        "price_histogram": q_price_histogram,
        "mad_outliers": q_mad_outliers,
        "top_per_lang": q_top_per_lang,
        "doc_curation": q_doc_curation,
        "sketch_stats": q_sketch_stats,
        "lang_quality": q_lang_quality,
        "media_features": q_media_features,
        # --- r5-new operators (first driver check this round) ---
        "event_rank": q_event_rank,
        "table_fingerprint": q_table_fingerprint,
        "ngram_containment": q_ngram_containment,
        "robust_scale": q_robust_scale,
        "epoch_shuffle": q_epoch_shuffle,
        "orders_diff_pruned": q_orders_diff_pruned,
        "grouped_heavy_hitters": q_grouped_heavy_hitters,
        "lineitem_cube": q_lineitem_cube,
        "cooccurrence": q_cooccurrence,
        "dedup_canonical": q_dedup_canonical,
        # rows-only (no SQL twin) -> placed after the oracle-backed
        # r5 block so driver slots go to value-exact checks first
        "numeric_band": q_numeric_band,
        "embedding_dup": q_embedding_dup,
        "bigram_candidates": q_bigram_candidates,
        "idf_bigram_candidates": q_idf_bigram_candidates,
        "asof_join": q_asof_join,
        "flagship_entities": q_flagship_entities,
        "incremental_assign": q_incremental_assign,
        "semantic_dedup": q_semantic_dedup,
        "minhash_dedup": q_minhash_dedup,
        "simhash": q_simhash,
        "simhash_pairs": q_simhash_pairs,
        "ngram_dedup": q_ngram_dedup,
        "segment_dedup": q_segment_dedup,
        "repetition_stats": q_repetition_stats,
        "pii_redact": q_pii_redact,
        "decontaminate": q_decontaminate,
        "vocab_counts": q_vocab_counts,
        "heavy_hitters": q_heavy_hitters,
        "bm25_topk": q_bm25_topk,
        "window_agg": q_window_agg,
        "hopping_window": q_hopping_window,
        "grouped_quantiles": q_grouped_quantiles,
        "user_running_total": q_user_running_total,
        "user_rolling_mean": q_user_rolling_mean,
        "event_percent_rank": q_event_percent_rank,
        "stratified_sample": q_stratified_sample,
        "bernoulli_sample": q_bernoulli_sample,
        "weighted_sample": q_weighted_sample,
        "grouped_split": q_grouped_split,
        "trigram_nll": q_trigram_nll,
        "normalize_turns": q_normalize_turns,
        "conv_records": q_conv_records,
        "block_sizes": q_block_sizes,
        "candidates_equality": q_candidates_equality,
        "candidates_stringdist": q_candidates_stringdist,
        "snm_candidates": q_snm_candidates,
        "fs_score": q_fs_score,
        "pagerank_graph": q_pagerank_graph,
        "dsir_sample": q_dsir_sample,
        "doc_chunks": q_doc_chunks,
        "char_entropy": q_char_entropy,
        "score_calibration": q_score_calibration,
        "pair_features": q_pair_features,
        "selection_one_to_one": q_selection_one_to_one,
        "entity_clusters_rule": q_entity_clusters_rule,
        "dedup_exact": q_dedup_exact,
        "incremental_dedup": q_incremental_dedup,
        "clean_documents": q_clean_documents,
        "doc_token_stats": q_doc_token_stats,
        "events_sessionize": q_events_sessionize,
        "latest_events": q_latest_events,
        "event_type_mode": q_event_type_mode,
        "lineitem_stats": q_lineitem_stats,
        "logreg_score": q_logreg_score,
        "hash_embed_stats": q_hash_embed_stats,
        "price_winsor": q_price_winsor,
        "embedding_explode": q_embedding_explode,
        "lineitem_melt": q_lineitem_melt,
        "quality_gate": q_quality_gate,
        "user_value_share": q_user_value_share,
        "long_words": q_long_words,
        "top_orders": q_top_orders,
        "label_centroids": q_label_centroids,
        "text_knn": q_text_knn,
        "orders_diff": q_orders_diff,
        "funnel_steps": q_funnel_steps,
        "resample_daily": q_resample_daily,
        "ann_topk": q_ann_topk,
        "knn_join": q_knn_join,
        "lineitem_agg": q_lineitem_agg,
        "customers_no_orders": q_customers_no_orders,
        "bloom_anti": q_bloom_anti,
        "bloom_semi": q_bloom_semi,
        "nation_revenue": q_nation_revenue,
        "distinct_users": q_distinct_users,
        "nation_coverage": q_nation_coverage,
        "events_pivot": q_events_pivot,
        "props_stats": q_props_stats,
        "group_count": q_group_count,
        "normalise_column": q_normalise_column,
    }


def build_oracle_sql() -> dict:
    path = ensure_transcripts(_ORACLE_SF_DIR)
    return {
        "event_rank": sql_event_rank(_ORACLE_SF_DIR),
        "grouped_heavy_hitters": sql_grouped_heavy_hitters(_ORACLE_SF_DIR),
        "lineitem_cube": sql_lineitem_cube(_ORACLE_SF_DIR),
        "cooccurrence": sql_cooccurrence(_ORACLE_SF_DIR),
        "dedup_canonical": sql_dedup_canonical(_ORACLE_SF_DIR),
        "script_stats": sql_script_stats(_ORACLE_SF_DIR),
        "dedup_keep_best": sql_dedup_keep_best(_ORACLE_SF_DIR),
        "incremental_minhash": sql_incremental_minhash(_ORACLE_SF_DIR),
        "orders_diff_pruned": sql_orders_diff_pruned(_ORACLE_SF_DIR),
        "table_fingerprint": sql_table_fingerprint(_ORACLE_SF_DIR),
        "ngram_containment": sql_ngram_containment(_ORACLE_SF_DIR),
        "robust_scale": sql_robust_scale(_ORACLE_SF_DIR),
        "epoch_shuffle": sql_epoch_shuffle(_ORACLE_SF_DIR),
        "normalize_turns": sql_normalize_turns(path),
        "conv_records": sql_conv_records(path),
        "block_sizes": sql_block_sizes(path),
        "candidates_equality": sql_candidates_equality(path),
        "candidates_stringdist": sql_candidates_stringdist(path),
        "snm_candidates": sql_snm_candidates(_ORACLE_SF_DIR),
        "fs_score": sql_fs_score(_ORACLE_SF_DIR),
        "pagerank_graph": sql_pagerank_graph(_ORACLE_SF_DIR),
        "dsir_sample": sql_dsir_sample(_ORACLE_SF_DIR),
        "doc_chunks": sql_doc_chunks(_ORACLE_SF_DIR),
        "char_entropy": sql_char_entropy(_ORACLE_SF_DIR),
        "score_calibration": sql_score_calibration(_ORACLE_SF_DIR),
        "pair_features": sql_pair_features(path),
        "selection_one_to_one": sql_selection_one_to_one(path),
        "entity_clusters_rule": sql_entity_clusters_rule(path),
        "incremental_assign_rule": sql_incremental_assign_rule(path),
        "dedup_exact": sql_dedup_exact(_ORACLE_SF_DIR),
        "incremental_dedup": sql_incremental_dedup(_ORACLE_SF_DIR),
        "clean_documents": sql_clean_documents(_ORACLE_SF_DIR),
        "doc_token_stats": sql_doc_token_stats(_ORACLE_SF_DIR),
        "events_sessionize": sql_events_sessionize(_ORACLE_SF_DIR),
        "latest_events": sql_latest_events(_ORACLE_SF_DIR),
        "event_type_mode": sql_event_type_mode(_ORACLE_SF_DIR),
        "lineitem_stats": sql_lineitem_stats(_ORACLE_SF_DIR),
        "logreg_score": sql_logreg_score(_ORACLE_SF_DIR),
        "hash_embed_stats": sql_hash_embed_stats(_ORACLE_SF_DIR),
        "price_winsor": sql_price_winsor(_ORACLE_SF_DIR),
        "embedding_explode": sql_embedding_explode(_ORACLE_SF_DIR),
        "lineitem_melt": sql_lineitem_melt(_ORACLE_SF_DIR),
        "quality_gate": sql_quality_gate(_ORACLE_SF_DIR),
        "user_value_share": sql_user_value_share(_ORACLE_SF_DIR),
        "long_words": sql_long_words(_ORACLE_SF_DIR),
        "top_orders": sql_top_orders(_ORACLE_SF_DIR),
        "label_centroids": sql_label_centroids(_ORACLE_SF_DIR),
        "orders_diff": sql_orders_diff(_ORACLE_SF_DIR),
        "funnel_steps": sql_funnel_steps(_ORACLE_SF_DIR),
        "resample_daily": sql_resample_daily(_ORACLE_SF_DIR),
        "ann_topk": sql_ann_topk(_ORACLE_SF_DIR),
        "knn_join": sql_knn_join(_ORACLE_SF_DIR),
        "lineitem_agg": sql_lineitem_agg(_ORACLE_SF_DIR),
        "customers_no_orders": sql_customers_no_orders(_ORACLE_SF_DIR),
        "bloom_anti": sql_bloom_anti(_ORACLE_SF_DIR),
        "bloom_semi": sql_bloom_semi(_ORACLE_SF_DIR),
        "nation_revenue": sql_nation_revenue(_ORACLE_SF_DIR),
        "distinct_users": sql_distinct_users(_ORACLE_SF_DIR),
        "nation_coverage": sql_nation_coverage(_ORACLE_SF_DIR),
        "events_pivot": sql_events_pivot(_ORACLE_SF_DIR),
        "props_stats": sql_props_stats(_ORACLE_SF_DIR),
        "group_count": sql_group_count(_ORACLE_SF_DIR),
        "normalise_column": sql_normalise_column(_ORACLE_SF_DIR),
        "numeric_band": sql_numeric_band(_ORACLE_SF_DIR),
        "embedding_dup": sql_embedding_dup(_ORACLE_SF_DIR),
        "bigram_candidates": sql_bigram_candidates(path),
        "idf_bigram_candidates": sql_idf_bigram_candidates(path),
        "ngram_dedup": sql_ngram_dedup(_ORACLE_SF_DIR),
        "segment_dedup": sql_segment_dedup(_ORACLE_SF_DIR),
        "dup_spans": sql_dup_spans(_ORACLE_SF_DIR),
        "dup_span_removal": sql_dup_span_removal(_ORACLE_SF_DIR),
        "dedup_lines": sql_dedup_lines(_ORACLE_SF_DIR),
        "pair_counts": sql_pair_counts(_ORACLE_SF_DIR),
        "repetition_stats": sql_repetition_stats(_ORACLE_SF_DIR),
        "pii_redact": sql_pii_redact(_ORACLE_SF_DIR),
        "decontaminate": sql_decontaminate(_ORACLE_SF_DIR),
        "vocab_counts": sql_vocab_counts(_ORACLE_SF_DIR),
        "encode_tokens": sql_encode_tokens(_ORACLE_SF_DIR),
        "heavy_hitters": sql_heavy_hitters(_ORACLE_SF_DIR),
        "bm25_topk": sql_bm25_topk(_ORACLE_SF_DIR),
        "tfidf_pairs": sql_tfidf_pairs(_ORACLE_SF_DIR),
        "window_agg": sql_window_agg(_ORACLE_SF_DIR),
        "hopping_window": sql_hopping_window(_ORACLE_SF_DIR),
        "grouped_quantiles": sql_grouped_quantiles(_ORACLE_SF_DIR),
        "user_running_total": sql_user_running_total(_ORACLE_SF_DIR),
        "user_rolling_mean": sql_user_rolling_mean(_ORACLE_SF_DIR),
        "range_window_sum": sql_range_window_sum(_ORACLE_SF_DIR),
        "event_gaps": sql_event_gaps(_ORACLE_SF_DIR),
        "event_ntile": sql_event_ntile(_ORACLE_SF_DIR),
        "lineitem_rollup": sql_lineitem_rollup(_ORACLE_SF_DIR),
        "event_percent_rank": sql_event_percent_rank(_ORACLE_SF_DIR),
        "stratified_sample": sql_stratified_sample(_ORACLE_SF_DIR),
        "bernoulli_sample": sql_bernoulli_sample(_ORACLE_SF_DIR),
        "mixture_sample": sql_mixture_sample(_ORACLE_SF_DIR),
        "weighted_sample": sql_weighted_sample(_ORACLE_SF_DIR),
        "grouped_weighted_sample":
            sql_grouped_weighted_sample(_ORACLE_SF_DIR),
        "lang_zscore": sql_lang_zscore(_ORACLE_SF_DIR),
        "blocklist_stats": sql_blocklist_stats(_ORACLE_SF_DIR),
        "orders_upsert": sql_orders_upsert(_ORACLE_SF_DIR),
        "event_transitions": sql_event_transitions(_ORACLE_SF_DIR),
        "pmi_scores": sql_pmi_scores(_ORACLE_SF_DIR),
        "user_event_seq": sql_user_event_seq(_ORACLE_SF_DIR),
        "user_distinct_types": sql_user_distinct_types(_ORACLE_SF_DIR),
        "interp_quantiles": sql_interp_quantiles(_ORACLE_SF_DIR),
        "top_terms": sql_top_terms(_ORACLE_SF_DIR),
        "golden_records": sql_golden_records(_ORACLE_SF_DIR),
        "tpch_q3": sql_tpch_q3(_ORACLE_SF_DIR),
        "tpch_q18": sql_tpch_q18(_ORACLE_SF_DIR),
        "scd2_versions": sql_scd2_versions(_ORACLE_SF_DIR),
        "grouped_split": sql_grouped_split(_ORACLE_SF_DIR),
        "trigram_nll": sql_trigram_nll(_ORACLE_SF_DIR),
        "setop_except": sql_setop_except(_ORACLE_SF_DIR),
        "union_by_name": sql_union_by_name(_ORACLE_SF_DIR),
        "setop_intersect": sql_setop_intersect(_ORACLE_SF_DIR),
        "curation_capped": sql_curation_capped(_ORACLE_SF_DIR),
        "pack_shards": sql_pack_shards(_ORACLE_SF_DIR),
        "exact_quantiles": sql_exact_quantiles(_ORACLE_SF_DIR),
        "price_histogram": sql_price_histogram(_ORACLE_SF_DIR),
        "mad_outliers": sql_mad_outliers(_ORACLE_SF_DIR),
        "top_per_lang": sql_top_per_lang(_ORACLE_SF_DIR),
        "asof_join": sql_asof_join(_ORACLE_SF_DIR),
        "interval_join": sql_interval_join(_ORACLE_SF_DIR),
        "simhash": sql_simhash(_ORACLE_SF_DIR),
        "simhash_pairs": sql_simhash_pairs(_ORACLE_SF_DIR),
        "minhash_dedup": sql_minhash_dedup(_ORACLE_SF_DIR),
        "lang_quality": sql_lang_quality(_ORACLE_SF_DIR),
        "doc_curation": sql_doc_curation(_ORACLE_SF_DIR),
    }
