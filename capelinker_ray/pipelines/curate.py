"""Document-curation pipeline: the end-to-end training-data cleanse.

Composes the engine's text-analysis and dedup operators into the standard
LLM-corpus curation flow (build brief: "the operations a large-scale
training-data pipeline would need"), all streaming:

  pii scrub  (optional) in-place email/IP/phone masking before anything
             hashes or gates the text (stages/pii.py)
  annotate   token counts + quality score + language id (one stateless
             map_batches chain, stages/textstats.py)
  filter     length / quality / language gates, each rejection tagged
             with a reason
  decontam   (optional) drop docs sharing a word n-gram with a benchmark
             set (stages/decontam.py, reason "contaminated")
  exact dup  hash-partitioned min-id-per-text (stages/dedup.exact_dedup
             shape) — non-representatives removed as "exact_dup"
  near dup   MinHash+LSH pairs -> connected components -> every member
             except the lexicographic-min representative removed as
             "near_dup" (transitive families collapse to ONE doc, not
             pairwise-greedy)

Returns {"kept": Dataset, "removed": Dataset[id, reason], "stats": dict}.
Removal id-sets are the DUPLICATES (small relative to the corpus — never
the keep-list); survivors are their anti-join (stages/join.hash_join,
which broadcasts a small ledger and shuffles a large one).

Pinning: every survivor transition has >=2 downstream consumers (the next
stage's ledger pass + the anti-join output; the perplexity gate alone
reads its input three times), so each is pinned exactly once. With
``checkpoint_dir=None`` the pin is ``materialize()`` (object store,
spillable); with a directory it is a per-stage Parquet checkpoint via
pipelines/checkpoint.CheckpointManager — survivors stream DISK-to-disk
instead of holding 2-3 corpus copies in plasma, and a killed run resumes
from the last completed stage.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..stages.cluster import connected_components
from ..stages.dedup import minhash_lsh_dedup
from ..stages.grouped import grouped_map
from ..stages.join import hash_join
from ..stages.textstats import add_lang_id, add_quality_score, \
    add_token_counts
from ..stages.textstats import fnv1a_64

__all__ = ["curate_documents"]


def curate_documents(ds, *, text_col: str = "text", id_col: str = "doc_id",
                     min_tokens: int = 5, max_tokens: int = 100_000,
                     min_quality: float = 0.3,
                     langs: list[str] | None = None,
                     near_dup: bool = True,
                     jaccard_threshold: float = 0.8,
                     segment_scrub: bool = False,
                     words_per_seg: int = 20,
                     seg_max_count: int = 2,
                     pii_scrub: bool = False,
                     decontam_against=None,
                     decontam_ngram: int = 8,
                     max_per_source: int | None = None,
                     source_col: str = "source",
                     sample_fraction: float | None = None,
                     sample_seed: int = 13,
                     near_dup_keep: str = "min_id",
                     max_nll: float | None = None,
                     checkpoint_dir: str | None = None) -> dict:
    """Optional extra stages: ``pii_scrub=True`` rewrites ``text_col`` in
    place (stages/pii.py masks) BEFORE annotation, so gates and dedup see
    redacted text; ``decontam_against=<benchmark Dataset>`` removes docs
    sharing any ``decontam_ngram``-word n-gram with the benchmark (reason
    "contaminated") after the quality gates, before dedup;
    ``max_per_source=<n>`` caps every ``source_col`` domain at n surviving
    docs (deterministic smallest-(splitmix64,id) keep, stages/sampling.py,
    reason "source_cap"); ``sample_fraction=<p>`` keeps a deterministic ~p
    global fraction (reason "sampled_out"). Both run AFTER dedup — caps
    should count unique content, not dup clusters.

    ``near_dup_keep`` picks the near-dup family representative:
    ``"min_id"`` (default — it IS the hash-min component id, zero extra
    work) or ``"best_quality"`` (keep the member with the HIGHEST quality
    score, ties to min id — what a training-data pipeline usually wants;
    costs one broadcast of the slim (id, quality) rows of the family
    members only, never the corpus).

    ``checkpoint_dir=<path>`` swaps every object-store pin for a
    per-stage Parquet checkpoint (resume skips completed stages; the
    kept/removed ledgers are bit-identical in both modes — pytest-pinned).
    """
    if near_dup_keep not in ("min_id", "best_quality"):
        raise ValueError(f"near_dup_keep: {near_dup_keep!r}")
    from .checkpoint import CheckpointManager
    ckpt = CheckpointManager(checkpoint_dir)
    # one params hash shared by every stage: ANY curation-parameter change
    # invalidates the whole checkpoint chain (safe over clever — a stale
    # survivor set silently mixed with new thresholds would be worse)
    _params = {
        "text_col": text_col, "id_col": id_col, "min_tokens": min_tokens,
        "max_tokens": max_tokens, "min_quality": min_quality,
        "langs": langs, "near_dup": near_dup,
        "jaccard_threshold": jaccard_threshold,
        "segment_scrub": segment_scrub, "words_per_seg": words_per_seg,
        "seg_max_count": seg_max_count, "pii_scrub": pii_scrub,
        "decontam": decontam_against is not None,
        "decontam_ngram": decontam_ngram,
        "max_per_source": max_per_source, "source_col": source_col,
        "sample_fraction": sample_fraction, "sample_seed": sample_seed,
        "near_dup_keep": near_dup_keep, "max_nll": max_nll,
    }
    _prev = [()]

    def _pin(name, dsx):
        out = ckpt.stage(name, lambda: dsx, inputs=_prev[0],
                         params=_params)
        _prev[0] = (name,)
        return out

    def drop_ids(dsx, ledger):
        # NOT EXISTS against a removal ledger's ids
        return hash_join(dsx, ledger.select_columns([id_col]), on=id_col,
                         how="anti")

    if pii_scrub:
        from ..stages.pii import redact_pii
        ds = redact_pii(ds, text_col=text_col, out_col=text_col)
    # annotate + gate fuse into ONE streamed pass (annotated has exactly
    # one consumer — materializing it would cost a full extra corpus
    # round-trip through the object store)
    annotated = add_lang_id(add_quality_score(add_token_counts(
        ds, text_col=text_col), text_col=text_col), text_col=text_col)

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        reason = np.full(len(df), "", dtype=object)
        nt = df["n_ws_tokens"].to_numpy(np.int64)
        reason[nt < min_tokens] = "too_short"
        reason[nt > max_tokens] = "too_long"
        q = df["quality"].to_numpy(np.float64)
        reason[(reason == "") & (q < min_quality)] = "low_quality"
        if langs is not None:
            ok_lang = df["lang_pred"].isin(langs).to_numpy()
            reason[(reason == "") & ~ok_lang] = "bad_lang"
        df = df.copy()
        df["_reason"] = reason
        return df

    gated = _pin("gated", annotated.map_batches(gate,
                                                batch_format="pandas"))

    def pass_rows(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["_reason"] == ""].drop(columns=["_reason"])

    def fail_rows(df: pd.DataFrame) -> pa.Table:
        # typed Arrow out: an empty object-dtype pandas column makes Ray's
        # block-size estimator warn on every empty batch
        out = df[df["_reason"] != ""]
        return pa.table({id_col: pa.array(out[id_col]),
                         "reason": pa.array(out["_reason"], pa.string())})

    survivors = _pin("survivors_gate",
                     gated.map_batches(pass_rows, batch_format="pandas"))
    removed_frames = [gated.map_batches(fail_rows, batch_format="pandas")]

    n_contaminated = None
    if decontam_against is not None:
        from ..stages.decontam import decontaminate
        flags = decontaminate(survivors, decontam_against,
                              text_col=text_col, id_col=id_col,
                              n=decontam_ngram)

        def contaminated_ledger(t: pa.Table) -> pa.Table:
            bad = t.filter(t["contaminated"])
            return pa.table({id_col: bad[id_col].cast(pa.int64()),
                             "reason": pa.array(["contaminated"] * len(bad),
                                                pa.string())})
        contam_removed = _pin("ledger_contam", flags.map_batches(
            contaminated_ledger, batch_format="pyarrow"))
        n_contaminated = contam_removed.count()
        removed_frames.append(contam_removed)
        survivors = _pin("survivors_decontam",
                         drop_ids(survivors, contam_removed))

    n_high_ppl = None
    if max_nll is not None:
        # CCNet-style perplexity gate (stages/lm.py): the trigram LM is
        # trained on the POST-GATE survivor corpus itself, so "improbable"
        # means improbable relative to what the pipeline is keeping
        from ..stages.lm import trigram_nll
        nll = trigram_nll(survivors, text_col=text_col, id_col=id_col)

        def high_ppl_ledger(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            bad = t.filter(pc.greater(t["nll"], max_nll))
            return pa.table({id_col: bad[id_col].cast(pa.int64()),
                             "reason": pa.array(
                                 ["high_perplexity"] * len(bad),
                                 pa.string())})
        ppl_removed = _pin("ledger_ppl", nll.map_batches(
            high_ppl_ledger, batch_format="pyarrow"))
        n_high_ppl = ppl_removed.count()
        removed_frames.append(ppl_removed)
        survivors = _pin("survivors_ppl", drop_ids(survivors, ppl_removed))

    # exact dup: min id per text hash; emit ONLY the non-representatives
    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        # only (id, hash) cross the dedup shuffle — never the texts
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "_th": fnv1a_64(df[text_col].fillna("").tolist())
            .astype(np.int64)})

    def exact_losers(part: pd.DataFrame) -> pd.DataFrame:
        keep = part.groupby("_th", sort=False)[id_col].transform("min")
        out = part[part[id_col] != keep][[id_col]]
        out = out.copy()
        out["reason"] = "exact_dup"
        return out

    hashed = survivors.map_batches(add_hash, batch_format="pandas")
    # ledger stays a DATASET: pinned (small relative to the corpus
    # per partition, object-store- or parquet-backed, spillable) but never
    # pulled to the driver except by hash_join's size-gated broadcast
    exact_removed = _pin("ledger_exact", grouped_map(hashed, "_th",
                                                     exact_losers))
    removed_frames.append(exact_removed)
    survivors = _pin("survivors_exact", drop_ids(survivors, exact_removed))

    ledger_schema = pa.schema([(id_col, pa.int64()),
                               ("reason", pa.string())])
    near_removed = rd.from_arrow(ledger_schema.empty_table())
    if near_dup:
        pairs = minhash_lsh_dedup(survivors, text_col=text_col,
                                  id_col=id_col,
                                  jaccard_threshold=jaccard_threshold)
        comp = connected_components(pairs, id_from="id_from",
                                    id_to="id_to")

        if near_dup_keep == "best_quality":
            # representative = argmax quality (ties -> min id). One inner
            # hash join of the SLIM (id, quality) projection against the
            # family members, then a per-family vectorized pick — family
            # rows only, never the corpus texts.
            def slim_q(df: pd.DataFrame) -> pd.DataFrame:
                return pd.DataFrame({
                    "node": df[id_col].to_numpy(np.int64),
                    "_q": df["quality"].to_numpy(np.float64)})

            fam = hash_join(comp, survivors.map_batches(
                slim_q, batch_format="pandas"), on="node", how="inner")

            def q_losers(df: pd.DataFrame) -> pa.Table:
                if not len(df):
                    return ledger_schema.empty_table()
                order = np.lexsort((df["node"].to_numpy(np.int64),
                                    -df["_q"].to_numpy(np.float64)))
                df = df.iloc[order]
                drop = (df.groupby("entity_id", sort=False).cumcount()
                        .to_numpy() > 0)
                out = df[drop]
                return pa.table(
                    {id_col: pa.array(out["node"].to_numpy(np.int64)),
                     "reason": pa.array(["near_dup"] * len(out),
                                        pa.string())},
                    schema=ledger_schema)
            near_removed = _pin("ledger_near", grouped_map(
                fam, "entity_id", q_losers))
        else:
            def losers(t: pa.Table) -> pa.Table:
                import pyarrow.compute as pc
                node = t["node"].cast(pa.int64())
                keep = pc.not_equal(node, t["entity_id"].cast(pa.int64()))
                node = node.filter(keep)
                return pa.table({id_col: node,
                                 "reason": pa.array(
                                     ["near_dup"] * len(node),
                                     pa.string())},
                                schema=ledger_schema)
            near_removed = _pin("ledger_near", comp.map_batches(
                losers, batch_format="pyarrow"))
        survivors = _pin("survivors_near", drop_ids(survivors, near_removed))
    removed_frames.append(near_removed)

    n_capped = None
    if max_per_source is not None:
        # losers-first: only the slim (id, source) projection crosses the
        # cap shuffle, the ledger holds the DROPPED ids, survivors are
        # anti-joined — texts never move
        from ..stages.sampling import sample_hash

        def cap_losers(df: pd.DataFrame) -> pd.DataFrame:
            h = sample_hash(df[id_col].to_numpy(np.int64), sample_seed)
            order = np.lexsort((df[id_col].to_numpy(np.int64), h))
            df = df.iloc[order]
            drop = df.groupby(source_col, sort=False,
                              dropna=False).cumcount() >= max_per_source
            out = df[drop.to_numpy()][[id_col]].copy()
            out["reason"] = "source_cap"
            return out

        slim = survivors.select_columns([id_col, source_col])
        cap_removed = _pin("ledger_cap",
                           grouped_map(slim, source_col, cap_losers))
        n_capped = cap_removed.count()
        removed_frames.append(cap_removed)
        survivors = _pin("survivors_cap", drop_ids(survivors, cap_removed))

    n_sampled_out = None
    if sample_fraction is not None:
        from ..stages.sampling import bernoulli_threshold, sample_hash
        thr = np.uint64(min(bernoulli_threshold(sample_fraction),
                            (1 << 64) - 1))
        keep_all = bernoulli_threshold(sample_fraction) >= 1 << 64

        def bern_split(df: pd.DataFrame):
            from ..stages.grouped import typed_or_empty
            if keep_all:
                out = df.iloc[:0][[id_col]].copy()
            else:
                h = sample_hash(df[id_col].to_numpy(np.int64), sample_seed)
                out = df[h >= thr][[id_col]].copy()
            out["reason"] = "sampled_out"
            return typed_or_empty(out)

        samp_removed = _pin("ledger_sample", survivors.map_batches(
            bern_split, batch_format="pandas"))
        n_sampled_out = samp_removed.count()
        removed_frames.append(samp_removed)
        survivors = _pin("survivors_sample",
                         drop_ids(survivors, samp_removed))

    n_segments_removed = None
    if segment_scrub:
        # final scrub: strip globally duplicated word windows from the
        # SURVIVING docs' text in place (CCNet-style boilerplate removal
        # — rewrites text, never drops doc rows)
        from ..stages.dedup import segment_dedup
        from ray.data.aggregate import Sum
        survivors = _pin("survivors_segscrub", segment_dedup(
            survivors, text_col=text_col, id_col=id_col,
            words_per_seg=words_per_seg, max_count=seg_max_count,
            input_partitions=None, replace_text=True))
        agg = survivors.aggregate(Sum("n_removed", alias_name="s"))
        n_segments_removed = int(agg["s"] or 0)

    removed = removed_frames[0]
    for f in removed_frames[1:]:
        removed = removed.union(f)
    # survivors is already pinned by the last stage that touched it
    # (survivors_exact at minimum — exact dedup is unconditional)
    kept = survivors
    removed = _pin("removed", removed)
    n_in = ds.count()
    stats = {"input": n_in, "kept": kept.count(),
             "removed": removed.count()}
    if n_segments_removed is not None:
        stats["segments_removed"] = n_segments_removed
    if n_contaminated is not None:
        stats["contaminated"] = n_contaminated
    if n_high_ppl is not None:
        stats["high_perplexity"] = n_high_ppl
    if n_capped is not None:
        stats["source_capped"] = n_capped
    if n_sampled_out is not None:
        stats["sampled_out"] = n_sampled_out
    if checkpoint_dir is not None:
        stats["lineage"] = ckpt.metrics()
    return {"kept": kept, "removed": removed, "stats": stats}
