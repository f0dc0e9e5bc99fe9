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
  4. connected components over the new-new links; each new component
     adopts the LEXICOGRAPHIC-MIN base entity id matched by any member,
     or mints ``entity_id = min conv_id of the component`` when no member
     matched the base — the same deterministic min-id convention as
     stages/cluster.connected_components.

FROZEN-BASE INVARIANT: base entities are never merged or renamed. A new
record that matches two DIFFERENT base entities joins the min-id one only
(surfaced as ``n_distinct`` > 1 in ``components_entity``); reconciling
base entities is a
full re-link, not an incremental step.

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
from ..stages.cluster import connected_components
from ..stages.conv_records import build_conv_records
from ..stages.features import TRANSCRIPT_FEATURES, add_pair_features
from ..stages.grouped import default_partitions, grouped_map
from ..stages.join import hash_join
from ..stages.normalize import normalize_turns
from ..stages.selection import select_links
from .linkage import PAIR_ATTR_COLS

__all__ = ["assign_to_entities"]


def _pin_link_schema(ds, with_rank: bool):
    """Zero-row link stages come back schema-less (Ray materialize /
    checkpoint of an empty dataset); pin the link-table layout so the
    downstream joins keep their columns."""
    sch = ds.schema()
    if sch is not None and sch.names:
        return ds
    cols = {"conv_id_from": pa.array([], pa.string()),
            "conv_id_to": pa.array([], pa.string()),
            "pred": pa.array([], pa.float64())}
    if with_rank:
        cols["rank_from"] = pa.array([], pa.float64())
    return rd.from_arrow(pa.table(cols))


def assign_to_entities(new_turns, base_records, base_entities, *,
                       model: str = "m_boost_transcripts",
                       minimum_confidence: float = 0.5,
                       blocktype: str = "equality", maxdist: float = 0.15,
                       block_prefix_len: int | None = None,
                       max_block_pairs: int = DEFAULT_MAX_BLOCK_PAIRS,
                       link_within_batch: bool = True,
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
    ``links_new_base``, ``links_within`` (empty when
    ``link_within_batch=False``), and ``assignments`` with one row per new
    conversation: ``conv_id, entity_id, matched`` (matched=True when the
    entity comes from the base, False when minted for this batch),
    plus the checkpoint lineage under ``metrics``.
    """
    from .checkpoint import CheckpointManager
    ck = CheckpointManager(checkpoint_dir)

    # one small file is ONE block: spread it so the map stages run in
    # parallel (the same repartition link_transcripts makes)
    new_turns = new_turns.repartition(default_partitions())

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
            pairs = add_pair_features(
                pairs.repartition(4 * default_partitions()))
            scored = score_pairs(
                pairs.select_columns(
                    ["conv_id_from", "conv_id_to"] + TRANSCRIPT_FEATURES),
                model)
        return select_links(scored, id_from="conv_id_from",
                            id_to="conv_id_to", pred_col="pred",
                            minimum_confidence=minimum_confidence,
                            linktype=linktype, tie_break="deterministic")

    # -- new vs base: rank-1 per NEW conversation above confidence --------
    links_nb = _pin_link_schema(
        ck.stage("inc_links_nb",
                 lambda: build_links(base_records, "many:one"),
                 inputs=("inc_records",), params=pair_params),
        with_rank=True)

    # matched base conv -> its frozen entity id
    ent_map = base_entities.select_columns(["conv_id", "entity_id"])
    matched = hash_join(
        links_nb.select_columns(["conv_id_from", "conv_id_to", "pred"]),
        ent_map, on="conv_id_to", right_on="conv_id", how="inner")

    # -- within-batch link graph ------------------------------------------
    if link_within_batch:
        links_ww = _pin_link_schema(
            ck.stage("inc_links_ww", lambda: build_links(None, "threshold"),
                     inputs=("inc_records",), params=pair_params),
            with_rank=False)
        # small: one row per LINKED new conv; pin so count()+reuse is one run
        comps = connected_components(links_ww, id_from="conv_id_from",
                                     id_to="conv_id_to").materialize()
        if comps.count() == 0:
            # a zero-edge batch yields a schema-less empty dataset; pin the
            # (node, entity_id) layout so the joins below keep their columns
            comps = rd.from_arrow(pa.table({
                "node": pa.array([], pa.string()),
                "entity_id": pa.array([], pa.string())}))
    else:
        links_ww = rd.from_arrow(pa.table({
            "conv_id_from": pa.array([], pa.string()),
            "conv_id_to": pa.array([], pa.string()),
            "pred": pa.array([], pa.float64())}))
        comps = rd.from_arrow(pa.table({
            "node": pa.array([], pa.string()),
            "entity_id": pa.array([], pa.string())}))

    # every new conv gets a component id (own id when unlinked in-batch)
    # NOTE: no rename_columns on the comps side — renaming an EMPTY dataset
    # does not update the schema the join reads (Ray 2.49); the raw
    # entity_id column is remapped to comp_id here instead
    comp_map = hash_join(
        records.select_columns(["conv_id"]),
        comps.select_columns(["node", "entity_id"]),
        on="conv_id", right_on="node", how="left")

    def fill_comp(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            # Ray's sort shuffle emits schema-less empty blocks
            return pd.DataFrame({"conv_id": pd.Series(dtype=object),
                                 "comp_id": pd.Series(dtype=object)})
        return pd.DataFrame({
            "conv_id": df["conv_id"],
            "comp_id": df["entity_id"].where(df["entity_id"].notna(),
                                             df["conv_id"]),
        })
    comp_map = comp_map.map_batches(fill_comp, batch_format="pandas")

    # component -> adopted base entity: lexicographic MIN over members'
    # matches (deterministic; ambiguity surfaced via n_distinct)
    cand_ent = hash_join(
        matched.select_columns(["conv_id_from", "entity_id"]),
        comp_map, on="conv_id_from", right_on="conv_id", how="inner")

    def comp_min(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("comp_id", sort=False)
                .agg(base_entity=("entity_id", "min"),
                     n_distinct=("entity_id", "nunique"))
                .reset_index())
    # small: one row per new component; pin so count()+reuse is one run
    comp_ent = grouped_map(cand_ent, "comp_id", comp_min).materialize()
    if comp_ent.count() == 0:
        # zero base matches: pin the layout so the left join keeps columns
        comp_ent = rd.from_arrow(pa.table({
            "comp_id": pa.array([], pa.string()),
            "base_entity": pa.array([], pa.string()),
            "n_distinct": pa.array([], pa.int64())}))

    final = hash_join(comp_map, comp_ent, on="comp_id", how="left")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"conv_id": pd.Series(dtype=object),
                                 "entity_id": pd.Series(dtype=object),
                                 "matched": pd.Series(dtype=np.bool_)})
        out = pd.DataFrame({
            "conv_id": df["conv_id"],
            "entity_id": df["base_entity"].where(
                df["base_entity"].notna(), df["comp_id"]),
            "matched": df["base_entity"].notna().astype(np.bool_),
        })
        return out
    assignments = ck.stage(
        "inc_assignments",
        lambda: final.map_batches(finish, batch_format="pandas"),
        inputs=("inc_links_nb", "inc_links_ww"),
        params={"link_within_batch": link_within_batch})

    return {"records": records, "links_new_base": links_nb,
            "links_within": links_ww, "assignments": assignments,
            "components_entity": comp_ent, "metrics": ck.records}
