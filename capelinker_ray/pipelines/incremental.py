"""Incremental linkage: assign NEW conversations to a FROZEN entity table.

Production entity resolution rarely re-links the whole corpus — a daily
batch arrives and must be attached to yesterday's entities without moving
them. The reference has the batch primitive (pred.R score-and-select against
a fixed to-side panel: candidates(rein[year==1828], rein[year<1828])); this
pipeline composes the same engine stages into the incremental contract:

  1. new turns -> conv records (same normalize/prefix recipe as the base)
  2. candidates(new -> base) + features + model score + rank-1-per-new
     selection ("many:one": several new convs may join one entity)
  3. candidates(new -> new) at the same threshold: the intra-batch link
     graph (a batch can contain several conversations of one entity that
     the base has never seen)
  4. connected components over the new-new links, attached to every new
     record by ``attach_entity_ids`` (an unlinked record is its own
     component); the base matches join onto that map and ONE grouped pass
     by component gives each component the LEXICOGRAPHIC-MIN base entity
     id matched by any member, or mints ``entity_id = min conv_id of the
     component`` when no member matched the base — the same deterministic
     min-id convention as stages/cluster.connected_components.

FROZEN-BASE INVARIANT: base entities are never merged or renamed. A new
component whose members match two DIFFERENT base entities joins the min-id
one only; reconciling base entities is a full re-link, not an incremental
step.

Every stage is a Dataset transform — candidate shuffle, stateless model
scorer, grouped-rank selection, hash joins — so the batch size can be a
full day's corpus. The base side ships only ``PAIR_ATTR_COLS`` + block key.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..models.scorer import score_pairs
from ..stages.blocking import DEFAULT_MAX_BLOCK_PAIRS, candidates
from ..stages.cluster import attach_entity_ids, connected_components
from ..stages.conv_records import build_conv_records
from ..stages.features import TRANSCRIPT_FEATURES, add_pair_features
from ..stages.grouped import grouped_map, widen
from ..stages.join import hash_join
from ..stages.normalize import normalize_turns
from ..stages.selection import select_links
from .linkage import PAIR_ATTR_COLS, _balanced

__all__ = ["assign_to_entities"]


def assign_to_entities(new_turns, base_records, base_entities, *,
                       model: str = "m_boost_transcripts",
                       minimum_confidence: float = 0.5,
                       blocktype: str = "equality", maxdist: float = 0.15,
                       block_prefix_len: int | None = None,
                       max_block_pairs: int = DEFAULT_MAX_BLOCK_PAIRS,
                       checkpoint_dir: str | None = None,
                       score_fn=None, attr_cols: list[str] | None = None,
                       ) -> dict:
    """Attach a batch of new transcripts to an existing entity table.

    ``base_records``: conv records of the linked corpus (a prior
    ``link_transcripts`` run's ``out["records"]`` — must carry
    ``block_key`` built with the SAME ``block_prefix_len``).
    ``base_entities``: Dataset with ``conv_id, entity_id``.

    ``checkpoint_dir`` makes the batch resumable with the flagship's
    CheckpointManager (per-stage Parquet + param-hash invalidation) — use
    ONE directory per (batch, base-table) pair: the hash chain covers this
    function's parameters, not the content of the base datasets. Without a
    root, each stage is pinned via ``materialize()`` so the conv-record
    build runs once, not once per consumer.

    ``score_fn`` switches the pair scorer from the GBT model to a
    deterministic rule: a pandas batch fn over the candidate pairs (with
    ``attr_cols`` _from/_to attributes) returning
    ``(conv_id_from, conv_id_to, pred)``; rows it scores NaN are dropped
    before ranking. Rule mode keeps the whole assignment SQL-expressible
    (the ``incremental_assign_rule`` oracle pins it against DuckDB).

    Returns dict of Datasets: ``records`` (new conv records),
    ``links_new_base`` (rank-1 new -> base links), ``links_within``
    (new -> new links above the threshold), and ``assignments`` with one
    row per new conversation: ``conv_id, entity_id, matched``
    (matched=True when the entity comes from the base, False when minted
    for this batch), plus the checkpoint lineage of every stage, resumed
    ones included, under ``metrics``.
    """
    from .checkpoint import CheckpointManager
    ck = CheckpointManager(checkpoint_dir)

    # one small file is ONE block: spread it so the map stages run in
    # parallel (the same widening link_transcripts makes)
    new_turns = widen(new_turns)

    from ..stages.conv_records import BLOCK_PREFIX_LEN
    if block_prefix_len is None:
        block_prefix_len = BLOCK_PREFIX_LEN
    records = ck.stage(
        "inc_records",
        lambda: build_conv_records(normalize_turns(new_turns),
                                   prefix_len=block_prefix_len),
        inputs=("new_turns",), params={"prefix_len": block_prefix_len})

    if attr_cols is None:
        attr_cols = PAIR_ATTR_COLS
    pair_params = {"blocktype": blocktype, "maxdist": maxdist,
                   "max_block_pairs": max_block_pairs, "model": model,
                   "minimum_confidence": minimum_confidence,
                   "rule_scored": score_fn is not None,
                   "attr_cols": tuple(attr_cols)}

    def build_links(base, linktype):
        """Candidates new -> ``base`` (None: new -> new), scored, then
        selected under ``linktype``."""
        pairs = candidates(
            records, base, block_col="block_key", id_col="conv_id",
            blocktype=blocktype, maxdist=maxdist, attr_cols=attr_cols,
            max_block_pairs=max_block_pairs, keep_unmatched=False)
        if score_fn is not None:
            # rule mode: pred computed directly from the pair attr columns
            # (SQL-expressible — the driver's value-exact oracle path)
            scored = pairs.map_batches(score_fn, batch_format="pandas")
        else:
            pairs = add_pair_features(_balanced(pairs))
            scored = score_pairs(
                pairs.select_columns(
                    ["conv_id_from", "conv_id_to"] + TRANSCRIPT_FEATURES),
                model)
        links = select_links(scored, id_from="conv_id_from",
                             id_to="conv_id_to", pred_col="pred",
                             minimum_confidence=minimum_confidence,
                             linktype=linktype, tie_break="deterministic")
        # a batch sharing no block with ``base`` has zero candidate pairs,
        # and the scorer map of zero rows has no block and no schema (Ray
        # 2.49): pin the link layout so the joins below keep their columns
        layout = [("conv_id_from", pa.string()), ("conv_id_to", pa.string()),
                  ("pred", pa.float64())]
        if linktype == "many:one":
            layout.append(("rank_from", pa.float64()))
        return links.union(rd.from_arrow(pa.schema(layout).empty_table()))

    links_nb = ck.stage("inc_links_nb",
                        lambda: build_links(base_records, "many:one"),
                        inputs=("inc_records",), params=pair_params)
    links_ww = ck.stage("inc_links_ww", lambda: build_links(None, "threshold"),
                        inputs=("inc_records",), params=pair_params)

    def build_assignments():
        # every new conv gets a component id (own id when unlinked in-batch)
        comp_map = attach_entity_ids(
            records.select_columns(["conv_id"]),
            connected_components(links_ww, id_from="conv_id_from",
                                 id_to="conv_id_to"))
        # matched base conv -> its frozen entity id (entity_id_r below)
        matched = hash_join(
            links_nb, base_entities.select_columns(["conv_id", "entity_id"]),
            on="conv_id_to", right_on="conv_id", how="inner")
        members = hash_join(comp_map, matched, on="conv_id",
                            right_on="conv_id_from", how="left")

        def adopt(g: pd.DataFrame) -> pd.DataFrame:
            # component -> lexicographic MIN base entity over its members'
            # matches, or the component id when no member matched
            base = g["entity_id"].map(
                g.dropna(subset=["entity_id_r"])
                .groupby("entity_id")["entity_id_r"].min())
            return pd.DataFrame({
                "conv_id": g["conv_id"],
                "entity_id": base.where(base.notna(), g["entity_id"]),
                "matched": base.notna().astype(np.bool_),
            }).drop_duplicates("conv_id")
        return grouped_map(members, "entity_id", adopt)

    assignments = ck.stage("inc_assignments", build_assignments,
                           inputs=("inc_links_nb", "inc_links_ww"))

    return {"records": records, "links_new_base": links_nb,
            "links_within": links_ww, "assignments": assignments,
            "metrics": ck.metrics()}
