"""Corpus-wide bigram-cosine candidate generation (inverted index).

The reference's DEFAULT blocktype evaluates character-bigram cosine
similarity between EVERY from-record and EVERY to-record with a sparse
matrix product (qlcMatrix::sim.strings,
/root/reference/R/candidates.R:82-96; idf-weighted variant
candidates.R:97-112) — O(n_from × n_to) memory, single process. This module
re-expresses the same semantics Ray-Data-first so it runs corpus-wide with
no pre-block (the within-block form lives in stages/blocking.py):

  pass 1  document frequencies: one vectorized presence count per batch ->
          tiny combine -> driver-side df map (bigram vocab is bounded by
          |charset|² — a few thousand entries for normalized text) ->
          broadcast via ray.put with a global rarest-first rank order.
  pass 2  explode an inverted index: each record emits one row per bigram
          DIM carrying its full rank-sorted (dims, vals) sparse vector
          (idf-weighted when asked, L2-normalized). The FROM side indexes
          every dim; the TO side only its PREFIX dims — the smallest
          rarest-first set whose complement has L2 mass <= maxsim, so any
          pair with cosine > maxsim MUST share an (f-dim, t-prefix-dim)
          (the prefix-filtering bound of Bayardo-Ma-Srikant, "Scaling Up
          All Pairs Similarity Search", WWW'07 — public; see PAPERS.md).
  pass 3  ONE groupby(dim) shuffle (coarse hash partitions via
          stages/grouped.py, hot dims salted with the blocking machinery):
          per dim, exact cosine = one dense matmul over the group's local
          vocabulary, and each pair is evaluated in EXACTLY ONE group — the
          rarest shared indexed dim — enforced by a second (presence)
          matmul (`lower-shared == 0`), so no cross-group pair dedup
          shuffle is needed.
  pass 4  `matches` + outer retention: per-batch id_from counts (plus a
          zero row per from-record) summed in one grouped pass and
          hash-joined back onto the pairs; from-ids whose sum is 0 become
          the retained null rows (candidates.R:118-132 semantics).

Scale notes: work is proportional to Σ_dim nf_dim × nt_dim over SHARED
dims only (the reference pays n_from × n_to always); prefix filtering
drops the common-bigram tail from the to-side index; dims whose pair count
exceeds ``max_block_pairs`` are salted (from-rows sharded, to-rows
replicated) so no single task exceeds the cap. Value parity target:
kernels/strdist.bigram_cosine_matrix (itself pytest-pinned to the
reference's roxygen example). Output ids are normalized to strings so the
pair ids and the from-side zero-count rows share one key type.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .grouped import grouped_map, widen
from .join import hash_join

__all__ = ["bigram_candidates"]

_SEP = "\x00"
_CODE_BASE = np.int64(0x110000)  # > max unicode codepoint


def _batch_bigrams(strings: np.ndarray):
    """Vectorized bigram extraction for a batch of strings.

    Returns (doc_idx, codes, counts): one row per DISTINCT (doc, bigram)
    with its in-doc count. Bigrams are over '#'+s+'#' (boundary semantics
    of qlcMatrix::sim.strings(boundary=TRUE), candidates.R:86-88), encoded
    as int64 ``c1 * 0x110000 + c2``. Non-string docs emit nothing (NaN
    cosine in the reference kernel — never a candidate). ONE utf-32 encode
    + one sliding window for the whole batch; no per-record char loop.
    """
    n = len(strings)
    is_str = np.fromiter((isinstance(s, str) for s in strings),
                         dtype=bool, count=n)
    idxs = np.nonzero(is_str)[0]
    if len(idxs) == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    parts = ["#" + strings[i] + "#" for i in idxs]
    full = _SEP.join(parts)
    cps = np.frombuffer(full.encode("utf-32-le"), dtype=np.uint32)
    if len(cps) < 2:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    # k=2 windows need no window matrix at all: adjacent-codepoint
    # arithmetic avoids the 2x-width fresh allocation (page-fault tax,
    # see kernels/strdist._chunk_pairs)
    codes = cps[:-1].astype(np.int64) * _CODE_BASE + cps[1:]
    # window at absolute position p belongs to the doc whose span covers p;
    # validity is POSITIONAL (both chars inside the owner's span), not
    # value-based — a document legitimately containing the separator
    # codepoint keeps its bigrams (dense-kernel / SQL-oracle parity)
    lens = np.array([len(p) for p in parts], dtype=np.int64)
    starts = np.cumsum(lens + 1) - (lens + 1)  # +1 for each separator
    pos = np.arange(len(codes), dtype=np.int64)
    owner = np.searchsorted(starts, pos, side="right") - 1
    valid = pos + 1 < starts[owner] + lens[owner]
    doc = idxs[owner[valid]]
    codes = codes[valid]
    packed = np.stack([doc, codes], axis=1)
    uniq, counts = np.unique(packed, axis=0, return_counts=True)
    return uniq[:, 0], uniq[:, 1], counts.astype(np.int64)


def _df_and_n(tagged, blockvariable: str):
    """Pass 1: (bigram codes, document frequencies, total record count N).

    df counts RECORDS containing the bigram across both sides; N counts all
    records of both sides — exactly the idf basis of
    kernels/strdist.bigram_cosine_matrix (w = log(N / df))."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        _, codes, _ = _batch_bigrams(df[blockvariable].to_numpy(dtype=object))
        out = pd.Series(codes).value_counts()
        frame = pd.DataFrame({"code": out.index.to_numpy(np.int64),
                              "df": out.to_numpy(np.int64)})
        # carry the batch's record count on a sentinel row (code = -1)
        return pd.concat(
            [frame, pd.DataFrame({"code": [-1], "df": [len(df)]})],
            ignore_index=True)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("code", sort=False)["df"].sum().reset_index()

    stats = grouped_map(tagged.map_batches(partial, batch_format="pandas"),
                        "code", combine).to_pandas()
    if not len(stats) or "code" not in stats.columns:
        # empty corpus: Ray's to_pandas drops columns on zero rows
        return (np.empty(0, np.int64), np.empty(0, np.int64), 0)
    n_total = int(stats.loc[stats["code"] == -1, "df"].sum())
    stats = stats[stats["code"] != -1]
    return (stats["code"].to_numpy(np.int64),
            stats["df"].to_numpy(np.int64), n_total)


_EXPLODE_SCHEMA = {
    "_dim": np.int64, "_side": object, "_id": object,
    "_dims": object, "_vals": object, "_npref": np.int64,
}


def _empty_exploded() -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=t)
                         for c, t in _EXPLODE_SCHEMA.items()})


def _explode_fn(blockvariable: str, id_col: str, lookup_ref, maxsim: float,
                idf: bool):
    """Pass 2: record -> one row per INDEXED dim, carrying the full sparse
    vector as rank-sorted (_dims:int32[], _vals:float32[]) plus its prefix
    length ``_npref`` (== len(_dims) on the from side)."""
    maxsim_sq = max(maxsim, 0.0) ** 2

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        codes_sorted, ranks, weights = ray.get(lookup_ref)
        doc, codes, counts = _batch_bigrams(
            df[blockvariable].to_numpy(dtype=object))
        if len(doc) == 0:
            return _empty_exploded()
        pos = np.searchsorted(codes_sorted, codes)
        rank = ranks[pos]
        v = counts.astype(np.float64) * (weights[pos] if idf else 1.0)
        keep = v > 0  # idf weight 0 (bigram in every record) adds nothing
        doc, rank, v = doc[keep], rank[keep], v[keep]
        if len(doc) == 0:
            return _empty_exploded()
        # sort by (doc, rank): per-record dim lists come out rank-ascending
        order = np.lexsort((rank, doc))
        doc, rank, v = doc[order], rank[order], v[order]
        udoc, rec_starts = np.unique(doc, return_index=True)
        rec_ends = np.append(rec_starts[1:], len(doc))
        norms_sq = np.add.reduceat(v * v, rec_starts)
        sides = df["_side"].to_numpy(dtype=object)
        ids = df[id_col].to_numpy(dtype=object)

        # per-RECORD loop builds the sparse vectors; row replication is
        # pointer-level np.repeat (no per-exploded-row Python)
        n_rec = len(udoc)
        rec_dims = np.empty(n_rec, dtype=object)
        rec_vals = np.empty(n_rec, dtype=object)
        rec_npref = np.zeros(n_rec, dtype=np.int64)
        dim_chunks: list[np.ndarray] = []
        for k, (u, s, e, nsq) in enumerate(zip(udoc, rec_starts, rec_ends,
                                               norms_sq)):
            if nsq <= 0:
                continue
            dims_u = rank[s:e].astype(np.int32)
            vals_u = v[s:e] / np.sqrt(nsq)     # float64: oracle parity
            if sides[u] == "F":
                npref = len(dims_u)            # probe side: all dims
            elif maxsim >= 1.0:
                npref = 0                      # sim > 1 is impossible
            else:
                # smallest p with ||mass after first p dims||² <= maxsim²
                tail = np.cumsum((vals_u ** 2)[::-1])[::-1]
                tail = np.append(tail[1:], 0.0)  # mass strictly after dim i
                npref = int(np.searchsorted(-tail, -maxsim_sq,
                                            side="left")) + 1
                npref = min(npref, len(dims_u))
            rec_dims[k] = dims_u
            rec_vals[k] = vals_u
            rec_npref[k] = npref
            if npref:
                dim_chunks.append(dims_u[:npref].astype(np.int64))
        keep = rec_npref > 0
        if not keep.any():
            return _empty_exploded()
        reps = rec_npref[keep]
        return pd.DataFrame({
            "_dim": np.concatenate(dim_chunks),
            "_side": np.repeat(sides[udoc[keep]], reps),
            "_id": np.repeat(ids[udoc[keep]], reps),
            "_dims": np.repeat(rec_dims[keep], reps),
            "_vals": np.repeat(rec_vals[keep], reps),
            "_npref": np.repeat(reps, reps),
        })
    return explode


def _dense(rows_dims, vocab: np.ndarray, rows_vals=None, limits=None,
           rank_lt: int | None = None):
    """Rank-sorted sparse lists -> dense (n_rows, len(vocab)) matrix.

    ``rows_vals=None`` builds a 0/1 presence matrix instead of values;
    ``limits`` (per-row prefix lengths) truncates each row's dims first;
    ``rank_lt`` keeps only dims with rank < it. Fully vectorized scatter.
    """
    n = len(rows_dims)
    if limits is not None:
        rows_dims = [d[:int(p)] for d, p in zip(rows_dims, limits)]
        if rows_vals is not None:
            rows_vals = [v[:int(p)] for v, p in zip(rows_vals, limits)]
    lens = np.array([len(d) for d in rows_dims], dtype=np.int64)
    M = np.zeros((n, len(vocab)), dtype=np.float64)
    if lens.sum() == 0:
        return M
    flat = np.concatenate(rows_dims).astype(np.int64)
    rows = np.repeat(np.arange(n), lens)
    vals = (np.concatenate(rows_vals).astype(np.float64)
            if rows_vals is not None else np.ones(len(flat)))
    if rank_lt is not None:
        m = flat < rank_lt
        flat, rows, vals = flat[m], rows[m], vals[m]
    cols = np.searchsorted(vocab, flat)
    M[rows, cols] = vals
    return M


def _grid_plan(nf: int, nt: int, cap: int) -> tuple[int, int]:
    """(a, b) grid so each cell holds <= cap pairs: a*b >= nf*nt/cap with
    a/b ~ nf/nt (minimizes total replicated rows b*nf + a*nt)."""
    a = max(1, int(math.ceil(nf / math.sqrt(cap))))
    b = max(1, int(math.ceil(nt / math.sqrt(cap))))
    while math.ceil(nf / a) * math.ceil(nt / b) > cap:
        if nf / a >= nt / b:
            a += 1
        else:
            b += 1
    return a, b


def _grid_hot_dims(exploded, cap: int) -> dict:
    """{dim: (a, b)} for dims whose nf*nt pair count exceeds ``cap`` —
    partial (dim, side) counts per batch, combined on the driver. The
    partial table is dim-vocab-bounded per block (bigram vocab, not
    rows), so the collect is small even on a 100-TB corpus; this avoids
    a repartition+sort barrier for what is a vocab-sized aggregate."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("_dim", sort=False)["_side"]
        out = g.value_counts().unstack(fill_value=0)
        for c in ("F", "T"):
            if c not in out:
                out[c] = 0
        out = out.reset_index()
        return pd.DataFrame({"_dim": out["_dim"],
                             "nf": out["F"].astype(np.int64),
                             "nt": out["T"].astype(np.int64)})

    parts = exploded.map_batches(partial,
                                 batch_format="pandas").to_pandas()
    if not len(parts):
        return {}
    tot = (parts.groupby("_dim", sort=False)
           .agg(nf=("nf", "sum"), nt=("nt", "sum")).reset_index())
    prod = tot["nf"].to_numpy(np.float64) * tot["nt"].to_numpy(np.float64)
    hot = tot[prod > cap]
    return {int(d): _grid_plan(int(nf), int(nt), cap)
            for d, nf, nt in zip(hot["_dim"], hot["nf"], hot["nt"])
            if nf > 0 and nt > 0}


def _grid_salt_fn(hot: dict):
    hot_ref = ray.put(hot)

    def salt(df: pd.DataFrame) -> pd.DataFrame:
        h = ray.get(hot_ref)
        if not h:
            df = df.copy()
            df["_salt"] = np.int32(0)
            return df
        df = df.reset_index(drop=True)
        is_hot = df["_dim"].isin(h).to_numpy()
        plain = df[~is_hot].copy()
        plain["_salt"] = np.int32(0)
        out = [plain]
        hr = df[is_hot]
        if len(hr):
            ab = np.array([h[int(d)] for d in hr["_dim"]], np.int64)
            a, b = ab[:, 0], ab[:, 1]
            idh = pd.util.hash_array(hr["_id"].to_numpy(dtype=object))
            is_f = (hr["_side"] == "F").to_numpy()
            # F row in row-shard i replicated across the b columns;
            # T row in column-shard j replicated across the a rows
            reps = np.where(is_f, b, a)
            rep_rows = hr.loc[hr.index.repeat(reps)].copy()
            salts = np.empty(int(reps.sum()), np.int32)
            pos = 0
            i_shard = (idh % np.maximum(a, 1).astype(np.uint64)).astype(
                np.int64)
            j_shard = (idh % np.maximum(b, 1).astype(np.uint64)).astype(
                np.int64)
            for k in range(len(hr)):
                r = int(reps[k])
                if is_f[k]:
                    salts[pos:pos + r] = (i_shard[k] * b[k]
                                          + np.arange(r))
                else:
                    salts[pos:pos + r] = (np.arange(r) * b[k]
                                          + j_shard[k])
                pos += r
            rep_rows["_salt"] = salts
            out.append(rep_rows)
        return pd.concat(out, ignore_index=True)
    return salt


def _pairs_fn(maxsim: float, self_link: bool):
    empty = pd.DataFrame({"id_from": pd.Series(dtype=object),
                          "id_to": pd.Series(dtype=object),
                          "score": pd.Series(dtype=np.float64)})

    def eval_group(g: pd.DataFrame) -> pd.DataFrame:
        dim_rank = int(g["_dim"].iloc[0])
        f = g[g["_side"] == "F"]
        t = g[g["_side"] == "T"]
        if not len(f) or not len(t):
            return empty
        f_dims = f["_dims"].to_numpy(object)
        f_vals = f["_vals"].to_numpy(object)
        t_dims = t["_dims"].to_numpy(object)
        t_vals = t["_vals"].to_numpy(object)
        t_npref = t["_npref"].to_numpy(np.int64)
        vocab = np.unique(np.concatenate(
            [np.concatenate(f_dims), np.concatenate(t_dims)]))
        F = _dense(f_dims, vocab, rows_vals=f_vals)
        T = _dense(t_dims, vocab, rows_vals=t_vals)
        sim = F @ T.T                          # exact cosine, one matmul
        # rarest-shared-indexed-dim uniqueness: evaluate the pair in THIS
        # group iff it shares no (f-dim, t-PREFIX-dim) of lower rank
        Fp = _dense(f_dims, vocab, rank_lt=dim_rank)
        Tp = _dense(t_dims, vocab, limits=t_npref, rank_lt=dim_rank)
        lower = Fp @ Tp.T
        ok = (lower == 0) & (sim > maxsim)
        fi, ti = np.nonzero(ok)
        if not len(fi):
            return empty
        idf_arr = f["_id"].to_numpy(object)[fi]
        idt_arr = t["_id"].to_numpy(object)[ti]
        score = sim[fi, ti]
        if self_link:
            keep = idf_arr < idt_arr
            idf_arr, idt_arr, score = (idf_arr[keep], idt_arr[keep],
                                       score[keep])
        return pd.DataFrame({"id_from": idf_arr, "id_to": idt_arr,
                             "score": score})

    def pairs_partition(part: pd.DataFrame) -> pd.DataFrame:
        if not len(part):
            return empty
        frames = [empty]
        for _, g in part.groupby(["_dim", "_salt"], sort=False):
            frames.append(eval_group(g))
        return pd.concat(frames, ignore_index=True)

    return pairs_partition


def bigram_candidates(ds_from, ds_to=None, *, blockvariable: str,
                      id_col: str, maxdist: float = 0.15, idf: bool = False,
                      keep_unmatched: bool = True,
                      max_block_pairs: int | None = None):
    """Corpus-wide bigram-cosine candidate pairs (no pre-block).

    Semantics of candidates.R:82-96 (``idf=True``: :97-112): keep (from,
    to) pairs with bigram cosine similarity > 1 - maxdist; from-records
    with no candidate are retained as null rows (:118-132); ``matches``
    counts candidates per from-record (vignettes/example.rmd:106).

    DELIBERATE divergence: outer-retention stub rows carry ``matches=0``
    (no candidates), where the reference's ``cnd[, matches := .N, by=
    persid_from]`` over the ``all=TRUE`` merge reports 1 — the NA row
    counting itself, a data.table artifact rather than a semantic. The
    engine and its SQL oracle agree on 0.

    ``ds_to=None`` runs the self-link variant (id_from < id_to).
    Returns Dataset[(id_from:str, id_to:str, score, matches)] — join
    attributes back with ``attach_pair_attrs``; shipping wide rows through
    the bigram shuffle would multiply its bytes by dims-per-record.

    ``matches`` comes from per-batch partial counts summed into an
    nf-bounded table that ``hash_join`` joins back onto the pairs
    (broadcast while small, so the pair rows never shuffle by id_from).
    """
    from .blocking import DEFAULT_MAX_BLOCK_PAIRS
    if maxdist > 1.0:
        raise ValueError("maxdist must be <= 1 for bigram blocking (a "
                         "negative similarity threshold would admit "
                         "non-overlapping pairs the inverted index cannot "
                         "enumerate)")
    if max_block_pairs is None:
        max_block_pairs = DEFAULT_MAX_BLOCK_PAIRS
    maxsim = 1.0 - maxdist
    self_link = ds_to is None

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "_side", pa.array(np.full(len(t), side), pa.string()))
        return fn

    slim_cols = [id_col, blockvariable]
    f_slim = ds_from.select_columns(slim_cols)
    if self_link:
        def tag_both(t: pa.Table) -> pa.Table:
            n = len(t)
            sides = pa.array(np.concatenate([np.full(n, "F"),
                                             np.full(n, "T")]), pa.string())
            return pa.concat_tables([t, t]).append_column("_side", sides)
        tagged = f_slim.map_batches(tag_both, batch_format="pyarrow")
    else:
        t_slim = ds_to.select_columns(slim_cols)
        tagged = f_slim.map_batches(tag("F"), batch_format="pyarrow").union(
            t_slim.map_batches(tag("T"), batch_format="pyarrow"))
    # pin explode/df-count parallelism to the session, not to however the
    # caller's input was laid out: a single-block source (from_pandas, one
    # parquet file) would otherwise run the whole bigram explode as ONE
    # task (measured: 30-50 s serial on a 330k-row corpus, 0 scaling).
    # Only widen narrow layouts — an input already wider than the session
    # target (the normal case on a real cluster) keeps its blocks.
    tagged = widen(tagged.materialize()).materialize()

    # pass 1: df + N -> rarest-first rank order + idf weights, broadcast
    codes, dfs, n_total = _df_and_n(tagged, blockvariable)
    order = np.lexsort((codes, dfs))           # (df asc, code asc)
    rank_of = np.empty(len(codes), dtype=np.int64)
    rank_of[order] = np.arange(len(codes))
    code_sort = np.argsort(codes)
    codes_sorted = codes[code_sort]
    ranks = rank_of[code_sort]
    with np.errstate(divide="ignore"):
        weights = np.log(
            n_total / np.maximum(dfs[code_sort], 1).astype(np.float64))
    lookup_ref = ray.put((codes_sorted, ranks, weights))

    # pass 2: inverted index (from: all dims; to: prefix dims)
    exploded = tagged.map_batches(
        _explode_fn(blockvariable, id_col, lookup_ref, maxsim, idf),
        batch_format="pandas").materialize()

    # pass 3: GRID-salted groupby(dim) -> exact cosine pairs. Hot dims are
    # split into an a x b grid (F-rows hashed into a row-shards and
    # replicated across b columns; T-rows vice versa), so replication is
    # ~sqrt(nf*nt/cap) per side instead of the one-sided scheme's full
    # to-side copy per shard (which costs ~nf*nt²/cap rows when a common
    # bigram covers a large to-side — measured 100x row blowup on the
    # 8x-rein corpus).
    hot = _grid_hot_dims(exploded, max_block_pairs)
    salted = exploded.map_batches(_grid_salt_fn(hot),
                                  batch_format="pandas")
    pairs = grouped_map(salted, ["_dim", "_salt"],
                        _pairs_fn(maxsim, self_link))

    # pass 4: matches + outer retention. ids normalized to strings on
    # BOTH branches: a pandas/arrow dtype mismatch would hash-partition
    # the same id to different keys.
    def norm_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["id_from"] = df["id_from"].astype(str)
        df["id_to"] = df["id_to"].astype(str)
        return df

    norm = pairs.map_batches(norm_pairs, batch_format="pandas").materialize()

    # per-id_from counts are nf-bounded: partial-count each batch (plus
    # one zero row per from-record when unmatched ones are kept), sum the
    # partials, and join the sums back onto the pairs — hash_join
    # broadcasts or shuffles them by their measured size. Both partial
    # sources emit one Arrow schema: the grouped sum's sort-shuffle
    # samples boundaries across blocks of one type.
    partial_schema = pa.schema([("id_from", pa.string()), ("n", pa.int64())])

    def pcount(df: pd.DataFrame) -> pa.Table:
        n = df.groupby("id_from", sort=False).size()
        return pa.table({"id_from": pa.array(n.index.to_numpy(object),
                                             pa.string()),
                         "n": pa.array(n.to_numpy(np.int64))},
                        schema=partial_schema)

    partials = norm.map_batches(pcount, batch_format="pandas")
    if keep_unmatched:
        def zero(t: pa.Table) -> pa.Table:
            return pa.table({"id_from": t[id_col].cast(pa.string()),
                             "n": pa.array(np.zeros(len(t), np.int64))},
                            schema=partial_schema)
        partials = partials.union(
            f_slim.map_batches(zero, batch_format="pyarrow"))

    count_schema = pa.schema([("id_from", pa.string()),
                              ("matches", pa.float64())])

    def total(df: pd.DataFrame) -> pa.Table:
        # dropna=False: a from-record with a null id still gets its stub
        out = df.groupby("id_from", sort=False, dropna=False)["n"].sum()
        return pa.table({"id_from": pa.array(out.index.to_numpy(object),
                                             pa.string()),
                         "matches": pa.array(out.to_numpy(np.float64))},
                        schema=count_schema)

    counts = grouped_map(partials, "id_from", total).materialize()
    out = hash_join(norm, counts, on="id_from")
    if not keep_unmatched:
        return out

    # from-records with no candidate: one stub each (distinct by
    # construction — counts holds one row per from-id)
    def stub(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["matches"], 0.0))
        return pa.table({"id_from": t["id_from"],
                         "id_to": pa.nulls(len(t), pa.string()),
                         "score": pa.array(np.full(len(t), np.nan)),
                         "matches": t["matches"]})
    return out.union(counts.map_batches(stub, batch_format="pyarrow"))


def attach_pair_attrs(pairs, records, *, id_col: str,
                      attr_cols: list[str]):
    """(id_from, id_to, ...) pairs + record attributes -> the wide
    ``{attr}_from`` / ``{attr}_to`` pair table the feature stage consumes
    (candidates() emits this inline; the corpus-wide bigram blocker ships
    slim id pairs and joins attributes back here): two joins of the PAIR
    table against the record attributes — never a per-bucket replication
    of wide rows. hash_join broadcasts the attribute side while it is
    small.

    Record ids are matched as strings (bigram_candidates normalizes pair
    ids to str)."""
    def side(suffix: str):
        def fn(t: pa.Table) -> pa.Table:
            cols = {f"id{suffix}": t[id_col].cast(pa.string())}
            for c in attr_cols:
                cols[f"{c}{suffix}"] = t[c]
            return pa.table(cols)
        return records.map_batches(fn, batch_format="pyarrow")

    out = hash_join(pairs, side("_from"), on="id_from")
    out = hash_join(out, side("_to"), on="id_to", how="left")
    return out
