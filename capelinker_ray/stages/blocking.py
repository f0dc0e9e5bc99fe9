"""Blocking / candidate-pair generation — the engine's core "join".

Reimplements the semantics of the reference's ``candidates()``
(/root/reference/R/candidates.R:32-135) Ray-Data-first. The reference builds
dense O(n_from × n_to) similarity matrices in RAM; here candidates are
enumerated *within blocks* after a hash-partitioned ``groupby(block_key)``,
which is the only linearly-scalable strategy (the reference's own soundex
key-equality branch, candidates.R:113-116, generalized to arbitrary keys).

Block types (candidates.R:37-41 enum, same semantics per branch):
  equality   key-equality blocking (reference "soundex" branch; score = 1.0 —
             the reference's branch leaves ``score`` undefined, a latent bug
             noted in SURVEY §2.3; we emit 1.0 for exact key equality)
  bigram     within-block character-bigram cosine > 1-maxdist, '#' boundary
             (candidates.R:82-96); ``idf=True`` gives the idf-weighted
             variant (candidates.R:97-112)
  stringdist within-block Jaro-Winkler(p=0.1) distance < maxdist
             (candidates.R:65-73); score = the *distance*, as in the
             reference branch
  numeric    Gaussian-kernel similarity 1-gk > maxsim is replaced by the
             band-join entry point ``numeric_candidates`` (bucket to
             width-bound bins, probe adjacent bins, exact gk filter)

Outer retention (candidates.R:118-132): from-records with zero candidates
are kept as rows with null ``_to`` columns ("left in to make comparisons of
the dataset easier", candidates.R:11).

Skew (SURVEY §4): before the quadratic pair step, blocks whose pair count
exceeds ``max_block_pairs`` are salted — the from-side is hash-split into
``s = ceil(nF·nT / cap)`` shards and the to-side is replicated to every
shard, so every from-record still sees the complete to-side (the ``matches``
block-size feature, vignettes/example.rmd:106, stays exact) while no single
task exceeds the pair cap. Hot keys are detected with a vectorized partial
count + tiny builtin-aggregate shuffle, and only the oversized keys are
collected/broadcast.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..kernels.strdist import bigram_cosine_matrix, jaro_winkler_sim

DEFAULT_MAX_BLOCK_PAIRS = 200_000

_META_COLS = ("_side", "_salt")


def _tag_side(ds, side: str):
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_side", pa.array(np.full(len(t), side), pa.string()))
    return ds.map_batches(tag, batch_format="pyarrow")


def _hot_keys(tagged, block_col: str, cap: int) -> dict[str, int]:
    """{block_key: n_shards} for blocks whose from×to pair count exceeds cap.

    Partial counts per batch (vectorized) -> builtin Sum shuffle over ~1 row
    per key per batch -> driver collects only the oversized tail (tiny by
    construction)."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(block_col, sort=False)["_side"]
        out = g.value_counts().unstack(fill_value=0)
        for c in ("F", "T"):
            if c not in out:
                out[c] = 0
        out = out.reset_index()
        return pd.DataFrame({block_col: out[block_col],
                             "nf": out["F"].astype(np.int64),
                             "nt": out["T"].astype(np.int64)})

    stats = tagged.map_batches(partial, batch_format="pandas")

    def combine_and_filter(df: pd.DataFrame) -> pd.DataFrame:
        tot = (df.groupby(block_col, sort=False)
               .agg(nf=("nf", "sum"), nt=("nt", "sum")).reset_index())
        prod = tot["nf"].to_numpy(np.float64) * tot["nt"].to_numpy(np.float64)
        return tot[prod > cap]

    from .grouped import grouped_map
    hot = grouped_map(stats, block_col, combine_and_filter).to_pandas()
    if len(hot) == 0 or block_col not in hot.columns:
        return {}
    return {
        k: int(math.ceil((nf * nt) / cap))
        for k, nf, nt in zip(hot[block_col], hot["nf"], hot["nt"])
        if nf > 0 and nt > 0
    }


def _self_link_hot_keys(ds, block_col: str, cap: int) -> dict[str, int]:
    """Self-link variant: pair count per block = n², so hot blocks fall out
    of a single partial-count pass + tiny combine over the records."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(block_col, sort=False).size().rename("n")
                .reset_index())

    from .grouped import grouped_map

    def combine_and_filter(df: pd.DataFrame) -> pd.DataFrame:
        tot = (df.groupby(block_col, sort=False)["n"].sum().reset_index())
        n = tot["n"].to_numpy(np.float64)
        return tot[n * n > cap]

    stats = ds.map_batches(partial, batch_format="pandas")
    hot = grouped_map(stats, block_col, combine_and_filter).to_pandas()
    if len(hot) == 0 or block_col not in hot.columns:
        return {}
    return {k: int(math.ceil((n * n) / cap))
            for k, n in zip(hot[block_col], hot["n"]) if n > 1}


def _salt_fn(block_col: str, id_col: str, hot: dict[str, int]):
    hot_ref = ray.put(hot)  # broadcast once, read per task

    def salt(df: pd.DataFrame) -> pd.DataFrame:
        h = ray.get(hot_ref)
        if not h:
            df["_salt"] = np.int32(0)
            return df
        shards = df[block_col].map(h).fillna(1).astype(np.int64).to_numpy()
        df = df.reset_index(drop=True)
        plain = df[shards <= 1].copy()
        plain["_salt"] = np.int32(0)
        out = [plain]
        hot_rows = df[shards > 1]
        if len(hot_rows):
            s = shards[shards > 1]
            is_f = (hot_rows["_side"] == "F").to_numpy()
            # from-rows: one stable shard each
            f = hot_rows[is_f].copy()
            fh = pd.util.hash_array(f[id_col].to_numpy(dtype=object))
            f["_salt"] = (fh % s[is_f].astype(np.uint64)).astype(np.int32)
            out.append(f)
            # to-rows: replicated to every shard of their block
            t = hot_rows[~is_f]
            st = s[~is_f]
            if len(t):
                rep = t.loc[t.index.repeat(st)].copy()
                salts = np.concatenate([np.arange(k, dtype=np.int32) for k in st])
                rep["_salt"] = salts
                out.append(rep)
        return pd.concat(out, ignore_index=True)
    return salt


def _norm_pair_dtypes(df: pd.DataFrame, attr_cols, id_from_col, id_to_col) -> pd.DataFrame:
    """Deterministic pair-table schema regardless of NA-row presence."""
    for c in df.columns:
        if c in (id_from_col, id_to_col, "block_key"):
            df[c] = df[c].astype(object).where(df[c].notna(), None)
        elif df[c].dtype.kind in "iufb":
            df[c] = df[c].astype(np.float64)
        elif df[c].dtype.kind == "M":
            df[c] = df[c].astype("datetime64[us]")
    return df


# the two public Jaro-Winkler conventions (kernels/strdist.py): the
# reference's R-stringdist parity (boost always applied, half
# transpositions) vs the classic Winkler / DuckDB variant (boost threshold
# 0.7, integer transpositions) — selectable so SQL oracles can pin the
# stringdist blocker value-exactly
_JW_VARIANTS = {
    "reference": dict(p=0.1, bt=0.0, int_transpositions=False),
    "duckdb": dict(p=0.1, bt=0.7, int_transpositions=True),
}


def _pairs_fn(block_col: str, id_col: str, blocktype: str, maxdist: float,
              attr_cols: list[str], keep_unmatched: bool, self_link: bool,
              jw_variant: str = "reference", idf: bool = False):
    maxsim = 1.0 - maxdist
    id_from_col = f"{id_col}_from"
    id_to_col = f"{id_col}_to"
    cols = [id_col] + attr_cols

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        key = g[block_col].iloc[0]
        f = g[g["_side"] == "F"]
        t = g[g["_side"] == "T"]
        fdf = f[cols].reset_index(drop=True)
        tdf = t[cols].reset_index(drop=True)

        nf, nt = len(fdf), len(tdf)
        if nt == 0:
            fi = np.array([], dtype=np.int64)
            ti = np.array([], dtype=np.int64)
            score = np.array([], dtype=np.float64)
        elif blocktype == "bigram":
            sim = bigram_cosine_matrix(fdf["_blockvar"].to_numpy(object),
                                       tdf["_blockvar"].to_numpy(object), idf=idf)
            fi, ti = np.nonzero(sim > maxsim)
            score = sim[fi, ti]
        elif blocktype == "stringdist":
            bf = fdf["_blockvar"].to_numpy(object)
            bt = tdf["_blockvar"].to_numpy(object)
            fi_all = np.repeat(np.arange(nf), nt)
            ti_all = np.tile(np.arange(nt), nf)
            d = 1.0 - jaro_winkler_sim(bf[fi_all], bt[ti_all],
                                       **_JW_VARIANTS[jw_variant])
            keep = d < maxdist
            fi, ti, score = fi_all[keep], ti_all[keep], d[keep]
        else:
            raise ValueError(f"unknown blocktype {blocktype!r}")

        if self_link and len(fi):
            keep = fdf[id_col].to_numpy(object)[fi] < tdf[id_col].to_numpy(object)[ti]
            fi, ti, score = fi[keep], ti[keep], score[keep]

        out = pd.concat([
            fdf.iloc[fi].add_suffix("_from").reset_index(drop=True),
            tdf.iloc[ti].add_suffix("_to").reset_index(drop=True),
        ], axis=1)
        out["score"] = score
        if len(fi):
            m = pd.Series(fi).value_counts()
            out["matches"] = pd.Series(fi).map(m).to_numpy(np.float64)
        else:
            out["matches"] = np.array([], dtype=np.float64)

        if keep_unmatched:
            miss = np.setdiff1d(np.arange(nf), fi)
            if len(miss):
                na = fdf.iloc[miss].add_suffix("_from").reset_index(drop=True)
                for c in cols:
                    na[f"{c}_to"] = None
                na["score"] = np.nan
                na["matches"] = 0.0
                out = pd.concat([out, na], ignore_index=True)
        out["block_key"] = key
        return _norm_pair_dtypes(out, attr_cols, id_from_col, id_to_col)

    def empty_pairs() -> pd.DataFrame:
        data = {f"{c}_from": pd.Series(dtype=object) for c in cols}
        data.update({f"{c}_to": pd.Series(dtype=object) for c in cols})
        data["score"] = pd.Series(dtype=np.float64)
        data["matches"] = pd.Series(dtype=np.float64)
        data["block_key"] = pd.Series(dtype=object)
        return pd.DataFrame(data)

    def equality_partition(part: pd.DataFrame) -> pd.DataFrame:
        """Equality blocking, vectorized across ALL blocks of the partition:
        group-offset arithmetic enumerates every (F,T) combo with pure numpy
        — zero per-block Python (a partition holds ~10^3-10^5 blocks)."""
        grp = part.groupby([block_col, "_salt"], sort=False).ngroup().to_numpy()
        G = int(grp.max()) + 1 if len(grp) else 0
        side_f = (part["_side"] == "F").to_numpy()
        bkeys = part[block_col].to_numpy(dtype=object)

        def side_frame(mask):
            idx = np.nonzero(mask)[0]
            order = np.argsort(grp[idx], kind="stable")
            sel = idx[order]
            return part.iloc[sel][cols].reset_index(drop=True), grp[sel], bkeys[sel]

        fdf, gf, fbk = side_frame(side_f)
        tdf, gt, _ = side_frame(~side_f)
        nf = np.bincount(gf, minlength=G).astype(np.int64)
        nt = np.bincount(gt, minlength=G).astype(np.int64)
        fstart = np.cumsum(nf) - nf
        tstart = np.cumsum(nt) - nt
        sizes = nf * nt
        total = int(sizes.sum())
        pgrp = np.repeat(np.arange(G), sizes)
        offs = np.cumsum(sizes) - sizes
        within = np.arange(total, dtype=np.int64) - offs[pgrp]
        ntg = np.maximum(nt[pgrp], 1)
        fi = fstart[pgrp] + within // ntg
        ti = tstart[pgrp] + within % ntg

        if self_link and total:
            keep = fdf[id_col].to_numpy(object)[fi] < tdf[id_col].to_numpy(object)[ti]
            fi, ti = fi[keep], ti[keep]

        out = pd.concat([
            fdf.iloc[fi].add_suffix("_from").reset_index(drop=True),
            tdf.iloc[ti].add_suffix("_to").reset_index(drop=True),
        ], axis=1)
        out["score"] = np.ones(len(fi), dtype=np.float64)
        cnt = np.bincount(fi, minlength=len(fdf)) if len(fi) else \
            np.zeros(len(fdf), dtype=np.int64)
        out["matches"] = cnt[fi].astype(np.float64)
        out["block_key"] = fbk[fi]

        if keep_unmatched:
            miss = np.nonzero(cnt == 0)[0]
            if len(miss):
                na = fdf.iloc[miss].add_suffix("_from").reset_index(drop=True)
                for c in cols:
                    na[f"{c}_to"] = None
                na["score"] = np.nan
                na["matches"] = 0.0
                na["block_key"] = fbk[miss]
                out = pd.concat([out, na], ignore_index=True)
        return out

    canon_cols = list(empty_pairs().columns)

    def _finish(out: pd.DataFrame) -> pd.DataFrame:
        """Pin the canonical column order WITHOUT concat-ing a typed empty
        frame (that concat fired a pandas all-NA deprecation per partition
        and re-inferred dtypes)."""
        if not len(out):
            out = empty_pairs()
        elif list(out.columns) != canon_cols:
            out = out.reindex(columns=canon_cols)
        return _norm_pair_dtypes(out, attr_cols, id_from_col, id_to_col)

    def pairs_partition(part: pd.DataFrame) -> pd.DataFrame:
        """Coarse partition of many complete (block, salt) groups
        (stages/grouped.py): per-block pair generation without Ray's
        per-group overhead. The equality blocktype takes the fully
        vectorized cross-block path."""
        if not len(part):
            return _finish(empty_pairs())
        if blocktype == "equality":
            return _finish(equality_partition(part))
        frames = [f for f in (pairs(g) for _, g in
                              part.groupby([block_col, "_salt"], sort=False))
                  if len(f)]
        if not frames:
            return _finish(empty_pairs())
        return _finish(pd.concat(frames, ignore_index=True))

    return pairs_partition


def candidates(ds_from, ds_to=None, *, block_col: str | None = "block_key",
               id_col: str = "conv_id", blocktype: str = "equality",
               blockvariable: str | None = None, maxdist: float = 0.15,
               attr_cols: list[str] | None = None,
               max_block_pairs: int = DEFAULT_MAX_BLOCK_PAIRS,
               keep_unmatched: bool = True, idf: bool = False,
               jw_variant: str = "reference"):
    """Dataset[records] (+ optional to-side) -> Dataset[candidate pairs].

    ``ds_to=None`` runs the self-link (dedup) variant with ``id_from <
    id_to`` pair dedup. For "bigram"/"stringdist" the coarse ``block_col``
    pre-blocks and ``blockvariable`` (default: the block column itself) is
    the string compared within the block.

    ``block_col=None`` with ``blocktype="bigram"`` runs the CORPUS-WIDE
    bigram-cosine join (the reference's default, no pre-block:
    candidates.R:82-112) via the inverted-index blocker in
    ``stages/bigram.py`` — note its slimmer output schema (id_from:str,
    id_to:str, score, matches; join attributes back with
    stages.join.hash_join). Corpus-wide "stringdist" (dense all-pairs JW)
    is intentionally unsupported — use ``broadcast_jw_candidates`` for a
    small to-side, or bigram blocking as the scalable pre-filter.
    """
    if block_col is None:
        if blocktype == "bigram":
            from .bigram import bigram_candidates
            if blockvariable is None:
                raise ValueError("corpus-wide bigram blocking needs "
                                 "blockvariable=")
            return bigram_candidates(
                ds_from, ds_to, blockvariable=blockvariable, id_col=id_col,
                maxdist=maxdist, idf=idf, keep_unmatched=keep_unmatched,
                max_block_pairs=max_block_pairs)
        raise ValueError(
            f"block_col=None (corpus-wide) is only supported for "
            f"blocktype='bigram', got {blocktype!r}")
    self_link = ds_to is None
    if blocktype in ("bigram", "stringdist"):
        bv = blockvariable or block_col

        def add_bv(t: pa.Table) -> pa.Table:
            return t.append_column("_blockvar", t[bv])
        ds_from = ds_from.map_batches(add_bv, batch_format="pyarrow")
        if ds_to is not None:
            ds_to = ds_to.map_batches(add_bv, batch_format="pyarrow")

    if self_link:
        # one pass: each batch emits itself twice (F and T tags) — no
        # second scan of the records dataset, no union of two map stages
        def tag_both(t: pa.Table) -> pa.Table:
            n = len(t)
            sides = pa.array(np.concatenate([np.full(n, "F"), np.full(n, "T")]),
                             pa.string())
            return pa.concat_tables([t, t]).append_column("_side", sides)
        ds_from = ds_from.materialize()  # scanned by hot-key pass + tagging
        tagged = ds_from.map_batches(tag_both, batch_format="pyarrow")
        # self-link: nf == nt == block size, so hot keys come from ONE cheap
        # count over the records themselves — no tagged materialization
        hot = _self_link_hot_keys(ds_from, block_col, max_block_pairs)
    else:
        tagged = (_tag_side(ds_from, "F").union(_tag_side(ds_to, "T"))
                  .materialize())
        hot = _hot_keys(tagged, block_col, max_block_pairs)
    salted = tagged.map_batches(_salt_fn(block_col, id_col, hot),
                                batch_format="pandas")

    if attr_cols is None:
        schema_names = [n for n in ds_from.schema().names
                        if n not in (id_col,) and not n.startswith("_")]
        attr_cols = schema_names
    if blocktype in ("bigram", "stringdist") and "_blockvar" not in attr_cols:
        attr_cols = attr_cols + ["_blockvar"]

    from .grouped import default_partitions, grouped_map
    fn = _pairs_fn(block_col, id_col, blocktype, maxdist, attr_cols,
                   keep_unmatched, self_link, jw_variant=jw_variant,
                   idf=idf)
    # 4x the default shuffle width: per-partition pair work is quadratic
    # in block size, so at 2x-cpus coarse partitions the slowest one sets
    # the stage wall (measured: the pair stage scaled 2.56x going 2->8
    # cpus from straggler imbalance). Finer partitions cost only reduce
    # width — the shuffle's bytes are unchanged.
    #
    # Large corpora route through the ONE-exchange hash shuffle: the sort
    # path's repartition+sort is two all-to-alls whose barrier waits left
    # 22-27% of the slots idle on the 4.6M-turn scaling corpus (measured
    # 8-cpu leg 171-189 s sort vs 163 s hash, identical pairs); below the
    # threshold the hash aggregator-pool setup (~1.5 s fixed) outweighs
    # the saved barrier.
    n_tagged = tagged.count()        # tagged is materialized above
    pairs = grouped_map(salted, [block_col, "_salt"], fn,
                        num_partitions=min(4 * default_partitions(), 1024),
                        shuffle="hash" if n_tagged > 300_000 else None)
    if blocktype in ("bigram", "stringdist"):
        pairs = pairs.drop_columns(["_blockvar_from", "_blockvar_to"])
    return pairs


# ---------------------------------------------------------------------------
# numeric band join (reference "numeric" blocktype, candidates.R:74-81)
# ---------------------------------------------------------------------------

def numeric_candidates(ds_from, ds_to, *, value_col: str, id_col: str,
                       sigma: float = 1.0, maxdist: float = 0.15,
                       attr_cols: list[str] | None = None,
                       max_block_pairs: int = DEFAULT_MAX_BLOCK_PAIRS):
    """Band join: keep pairs with gk similarity > 1 - maxdist.

    gk(x1,x2,σ) = exp(-|x1-x2|/σ²) > maxsim  ⇔  |x1-x2| < -σ²·ln(maxsim),
    so records are bucketed into width-``bound`` bins; from-rows probe their
    own and both adjacent bins (replication factor 3, no dense matrix)."""
    maxsim = 1.0 - maxdist
    if maxsim <= 0:
        raise ValueError("maxdist must be < 1 for the numeric band join")
    bound = -(sigma ** 2) * math.log(maxsim)
    if bound <= 0:
        bound = 1e-12

    def bin_to(df: pd.DataFrame) -> pd.DataFrame:
        x = df[value_col].to_numpy(np.float64)
        df["_bin"] = np.floor(x / bound).astype(np.int64)
        df["_probe_home"] = np.int8(1)
        return df

    def bin_from(df: pd.DataFrame) -> pd.DataFrame:
        x = df[value_col].to_numpy(np.float64)
        b = np.floor(x / bound).astype(np.int64)
        reps = [df.assign(_bin=b + d, _probe_home=np.int8(d == 0))
                for d in (-1, 0, 1)]   # shallow; concat copies once
        return pd.concat(reps, ignore_index=True)

    f = _tag_side(ds_from, "F").map_batches(bin_from, batch_format="pandas")
    t = _tag_side(ds_to, "T").map_batches(bin_to, batch_format="pandas")
    tagged = f.union(t)

    if attr_cols is None:
        attr_cols = [n for n in ds_from.schema().names if n != id_col]

    cols = [id_col] + attr_cols

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        fdf = g[g["_side"] == "F"][cols + ["_probe_home"]].reset_index(drop=True)
        tdf = g[g["_side"] == "T"][cols].reset_index(drop=True)
        nf, nt = len(fdf), len(tdf)
        if nf == 0:
            return _norm_pair_dtypes(pd.DataFrame(
                {**{f"{c}_from": [] for c in cols}, **{f"{c}_to": [] for c in cols},
                 "score": [], "matches": [], "block_key": []}),
                attr_cols, f"{id_col}_from", f"{id_col}_to")
        if nt:
            xf = fdf[value_col].to_numpy(np.float64)
            xt = tdf[value_col].to_numpy(np.float64)
            sim = np.exp(-np.abs(xf[:, None] - xt[None, :]) / (sigma ** 2))
            fi, ti = np.nonzero(sim > maxsim)
            score = sim[fi, ti]
        else:
            fi = ti = np.array([], dtype=np.int64)
            score = np.array([], dtype=np.float64)
        out = pd.concat([
            fdf.iloc[fi].drop(columns="_probe_home").add_suffix("_from").reset_index(drop=True),
            tdf.iloc[ti].add_suffix("_to").reset_index(drop=True),
        ], axis=1)
        out["score"] = score
        out["matches"] = 1.0
        # unmatched from-rows emitted once, from their home bin only; a row
        # matched in a *neighbor* bin may still emit a stale NA row here —
        # resolved by the per-from-id pass below
        home = fdf["_probe_home"].to_numpy() == 1
        miss = np.setdiff1d(np.arange(nf)[home], fi)
        if len(miss):
            na = fdf.iloc[miss].drop(columns="_probe_home").add_suffix("_from").reset_index(drop=True)
            for c in cols:
                na[f"{c}_to"] = None
            na["score"] = np.nan
            na["matches"] = 0.0
            out = pd.concat([out, na], ignore_index=True)
        out["block_key"] = str(g["_bin"].iloc[0])
        return _norm_pair_dtypes(out, attr_cols, f"{id_col}_from", f"{id_col}_to")

    from .grouped import grouped_map

    def pairs_partition(part: pd.DataFrame) -> pd.DataFrame:
        # coarse partition of many complete bins (stages/grouped.py): the
        # per-bin dense band window runs in a plain loop with zero Ray
        # per-group overhead (bins are width-bounded, so each is small)
        frames = [pairs(g) for _, g in part.groupby("_bin", sort=False)]
        if not frames:
            return pairs(part.head(0))
        return pd.concat(frames, ignore_index=True)

    raw = grouped_map(tagged, "_bin", pairs_partition)

    # a from-row probes 3 bins -> a (from,to) pair matches in exactly 1 bin
    # (each to-row lives in one bin), so no pair dedup is needed; but a
    # from-row matched only in a neighbor bin also emitted a home-bin NA row
    # (at most ONE per from-id: NA rows come only from the home bin).
    # Resolve co-partitioned by from-id, fully vectorized: drop the NA row
    # iff the same from-id has a real pair somewhere in the partition.
    id_from_col = f"{id_col}_from"

    def resolve_partition(part: pd.DataFrame) -> pd.DataFrame:
        real_mask = part["score"].notna()
        real = part[real_mask]
        na = part[~real_mask]
        na = na[~na[id_from_col].isin(real[id_from_col])]
        return pd.concat([real, na], ignore_index=True)

    return grouped_map(raw, id_from_col, resolve_partition)


# ---------------------------------------------------------------------------
# small-side broadcast JW join (reference "string distance" blocktype at
# fixture scale: dense JW matrix, candidates.R:65-73)
# ---------------------------------------------------------------------------

def broadcast_jw_candidates(ds_from, small_to: pd.DataFrame, *,
                            blockvariable: str, id_col: str,
                            maxdist: float = 0.15, p: float = 0.1,
                            attr_cols: list[str] | None = None,
                            keep_unmatched: bool = True):
    """JW-threshold join where the to-side is small: broadcast it via
    ``ray.put`` once and scan the from-side in a single stateless pass —
    no shuffle at all (SURVEY §2.3 'small-side broadcast')."""
    to_ref = ray.put(small_to)
    if attr_cols is None:
        attr_cols = [n for n in ds_from.schema().names if n != id_col]
    cols = [id_col] + attr_cols

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        tdf = ray.get(to_ref)
        tcols = [c for c in tdf.columns]
        bf = df[blockvariable].to_numpy(object)
        bt = tdf[blockvariable].to_numpy(object)
        nf, nt = len(df), len(tdf)
        fi_all = np.repeat(np.arange(nf), nt)
        ti_all = np.tile(np.arange(nt), nf)
        d = 1.0 - jaro_winkler_sim(bf[fi_all], bt[ti_all], p=p)
        keep = d < maxdist
        fi, ti = fi_all[keep], ti_all[keep]
        out = pd.concat([
            df[cols].iloc[fi].add_suffix("_from").reset_index(drop=True),
            tdf[tcols].iloc[ti].add_suffix("_to").reset_index(drop=True),
        ], axis=1)
        out["score"] = d[keep]
        if keep_unmatched:
            miss = sorted(set(range(nf)) - set(fi.tolist()))
            if miss:
                na = df[cols].iloc[miss].add_suffix("_from").reset_index(drop=True)
                for c in tcols:
                    na[f"{c}_to"] = None
                na["score"] = np.nan
                out = pd.concat([out, na], ignore_index=True)
        return out

    return ds_from.map_batches(scan, batch_format="pandas")


def snm_candidates(ds, *, key_col: str, id_col: str = "conv_id",
                   window: int = 5, keep_keys: bool = True):
    """Sorted-neighborhood blocking (Hernandez & Stolfo, SIGMOD'95): sort
    the corpus by ``key_col`` and emit every pair of records at most
    ``window - 1`` apart in the global sort order. The classic complement
    to key-EQUALITY blocking (`candidates`): tolerates key typos near the
    sort position without the inverted-index machinery of the corpus-wide
    bigram blocker.

    Distributed shape: one slim (id, key) projection -> global row number
    via the 2-pass prefix scan (stages/scan.py — driver sees #blocks
    scalars, never rows) -> rows land in width-``window`` rank buckets,
    with rows at in-bucket position >= 1 ALSO carried to the next bucket,
    so every window pair co-locates in exactly the bucket of its LATER
    member (exactly-once emission, no post-dedup shuffle). Within a
    bucket the ranks are consecutive integers, so pair enumeration is one
    vectorized repeat/arange — no Python loop. Null keys are excluded
    (they carry no sort position).

    Output: id_from/id_to (id_from = earlier sort position), rank_dist in
    [1, window-1], plus key_from/key_to when ``keep_keys``. Deterministic
    under key ties via the (key, id) sort.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    import pyarrow.compute as pc

    from .grouped import grouped_map, typed_or_empty
    from .scan import row_number

    def valid(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t[key_col]))

    slim = ds.select_columns([id_col, key_col]).map_batches(
        valid, batch_format="pyarrow")
    ranked = row_number(slim, order_by=[key_col, id_col], out_col="_rn")

    w = int(window)

    def fan_out(df: pd.DataFrame) -> pd.DataFrame:
        rn = df["_rn"].to_numpy(np.int64)
        home = (rn - 1) // w
        df = df.assign(_bucket=home, _home=True)
        pos = (rn - 1) % w
        carry = df[pos >= 1].assign(_bucket=home[pos >= 1] + 1,
                                    _home=False)
        return typed_or_empty(pd.concat([df, carry], ignore_index=True))

    fanned = ranked.map_batches(fan_out, batch_format="pandas")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass over ALL buckets of the partition (a bucket
        # is ~2·window rows — a per-bucket loop would be rows/window
        # interpreted iterations): sort by (_bucket, _rn), find each
        # bucket's start position, and enumerate (j - d) pair indices with
        # repeat/arange. Bucket rows are contiguous with consecutive
        # ranks, so position arithmetic IS rank arithmetic.
        g = g.sort_values(["_bucket", "_rn"], kind="stable",
                          ignore_index=True)
        bucket = g["_bucket"].to_numpy(np.int64)
        home = g["_home"].to_numpy(bool)
        n = len(g)
        empty_cols = {"id_from": pd.Series([], dtype=object),
                      "id_to": pd.Series([], dtype=object),
                      "rank_dist": pd.Series([], dtype=np.int64)}
        if keep_keys:
            empty_cols["key_from"] = pd.Series([], dtype=object)
            empty_cols["key_to"] = pd.Series([], dtype=object)
        if n == 0:
            return typed_or_empty(pd.DataFrame(empty_cols))
        is_start = np.r_[True, bucket[1:] != bucket[:-1]]
        # position of the bucket's first row, broadcast to every row
        start_pos = np.flatnonzero(is_start)[np.cumsum(is_start) - 1]
        j_idx = np.flatnonzero(home)
        cnt = np.minimum(w - 1, j_idx - start_pos[j_idx])
        tot = int(cnt.sum())
        if tot == 0:
            return typed_or_empty(pd.DataFrame(empty_cols))
        j_rep = np.repeat(j_idx, cnt)
        d = np.arange(tot) - np.repeat(np.cumsum(cnt) - cnt, cnt) + 1
        i_idx = j_rep - d
        ids = g[id_col].to_numpy(object)
        frame = {"id_from": ids[i_idx], "id_to": ids[j_rep],
                 "rank_dist": d.astype(np.int64)}
        if keep_keys:
            keys = g[key_col].to_numpy(object)
            frame["key_from"] = keys[i_idx]
            frame["key_to"] = keys[j_rep]
        return pd.DataFrame(frame)

    return grouped_map(fanned, "_bucket", pairs)
