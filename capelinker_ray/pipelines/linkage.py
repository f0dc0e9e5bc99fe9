"""The flagship end-to-end linkage pipeline (SURVEY §3.1, Ray-Data-first).

Reference lifecycle (vignettes/example.rmd): load -> preflight -> candidates
-> distances -> score -> rank-select; plus the panel's transitive index
(util.R:14-44). Grafted onto transcripts:

  read_parquet(turns)
    -> map_batches(normalize_text)                  [stateless, zero-copy]
    -> conv records (partial-agg + 1 small shuffle) [stages/conv_records.py]
    -> candidates: groupby(block_key), salted       [stages/blocking.py]
    -> map_batches(pair features)                   [stages/features.py]
    -> project to ids+features                      [SURVEY §7 hard part f]
    -> map_batches(stateless model scorer)          [models/scorer.py]
    -> grouped-rank selection (1-2 shuffles)        [stages/selection.py]
    -> connected components (iterative)             [stages/cluster.py]
    -> entity table + (conv_id, turn_idx)-sorted turn output

Every stage optionally checkpoints to partitioned Parquet with lineage +
metrics records (pipelines/checkpoint.py) and the run resumes from the last
completed stage (BASELINE.json north_rule).
"""

from __future__ import annotations

from ..stages.blocking import DEFAULT_MAX_BLOCK_PAIRS, candidates
from ..stages.cluster import attach_entity_ids, connected_components
from ..stages.conv_records import build_conv_records, collect_tool_vocab
from ..stages.features import TRANSCRIPT_FEATURES, add_pair_features
from ..stages.grouped import default_partitions, heavy_width, widen
from ..stages.join import hash_join
from ..stages.normalize import normalize_turns
from ..stages.selection import select_links
from ..models.scorer import score_pairs
from .checkpoint import CheckpointManager

__all__ = ["link_transcripts", "PAIR_ATTR_COLS"]

# conv-record attributes the pair stage actually needs (wide rows never
# carry unused columns through the blocking shuffle)
PAIR_ATTR_COLS = [
    "first_text_32", "second_text_32", "first_text_initials",
    "role_sig", "tool_mask", "n_turns", "text_chars", "ts_min", "epoch",
]


def _balanced(pairs):
    """Pin a pair table, then spread it over ``heavy_width`` of its rows
    (up to 4x the default width) for the O(len²) feature kernels."""
    pairs = pairs.materialize()
    return pairs.repartition(
        heavy_width(pairs.count(), cap=4 * default_partitions()))


def link_transcripts(ds_turns, *, model: str = "m_boost_transcripts",
                     checkpoint_dir: str | None = None,
                     linktype: str = "threshold",
                     minimum_confidence: float = 0.5,
                     blocktype: str = "equality", maxdist: float = 0.15,
                     block_prefix_len: int | None = None,
                     max_block_pairs: int = DEFAULT_MAX_BLOCK_PAIRS,
                     sort_output: bool = True) -> dict:
    """Self-link (dedup) a transcript corpus into entity clusters.

    ``blocktype``: "equality" (default — exact block_key match),
    "bigram"/"stringdist" (fuzzy within the block_key pre-block), or
    "bigram_global"/"idf_bigram_global" (the REFERENCE's default: corpus-
    wide bigram cosine on the first-turn prefix with no pre-block, via the
    inverted-index blocker — higher recall on key-corrupted duplicates at
    the cost of the fuzzy-join shuffle; pair a looser ``maxdist`` ~0.3-0.5
    with it).

    ``block_prefix_len`` (default conv_records.BLOCK_PREFIX_LEN = 16) is
    the flagship's main recall knob under equality blocking: the block key
    is the normalized first-turn prefix of this many chars + the role
    signature. Shorter prefixes merge blocks (higher recall on early-text
    corruption, bigger blocks -> more candidate pairs); longer ones split
    them. Sensitivity measurements on the synthetic corpus live in
    BASELINE.md §"Blocking-prefix sensitivity".

    Returns dict of Datasets: records, pairs, scored, links, entities,
    turns_out (turn-level, entity_id attached, (conv_id, turn_idx)-sorted),
    plus the checkpoint manager's lineage records under "metrics".
    """
    ck = CheckpointManager(checkpoint_dir)

    # vocab scans the PRE-repartition handle: on a parquet read the
    # ["tool"] projection pushes into the scan, while the repartitioned
    # handle would re-execute the full-width all-to-all just to list
    # ~10 distinct tool names (measured: conv_records' non-scaling share)
    ds_raw_turns = ds_turns

    # a small input (one parquet file = ONE block) would otherwise run
    # every map stage in a single sequential task. Measured (4.6M turns,
    # 32 files, 8 cpus): the repartition is ~9 s faster per run even for
    # many-file reads — it decouples the parquet scan from the heavy
    # normalize+partials map, and its cost is below the fusion's
    # scan-blocked slot idle. Width barely matters (16/32/64 within 1 s).
    # A lazy input (a parquet read) is always repartitioned.
    ds_turns = widen(ds_turns)

    from ..stages.conv_records import BLOCK_PREFIX_LEN
    if block_prefix_len is None:
        block_prefix_len = BLOCK_PREFIX_LEN
    records = ck.stage(
        "conv_records",
        # tool vocab from the RAW turns (normalize never touches `tool`):
        # the projection pushes into the parquet read instead of
        # re-executing read+normalize a second time for the vocab pass
        # text_cap: the flagship consumes at most 32-char prefixes (feature
        # kernels) and prefix_len-char block keys from the record texts —
        # capping inside the partials pass keeps full turn texts out of
        # the combine shuffle (initials remain exact, computed pre-cap)
        lambda: build_conv_records(
            normalize_turns(ds_turns),
            tool_vocab=collect_tool_vocab(ds_raw_turns),
            prefix_len=block_prefix_len,
            text_cap=max(64, 2 * block_prefix_len)),
        inputs=("turns",),
        params={"prefix_len": block_prefix_len})

    pair_params = {"blocktype": blocktype, "maxdist": maxdist,
                   "max_block_pairs": max_block_pairs,
                   "attr_cols": PAIR_ATTR_COLS}

    def build_pairs():
        if blocktype in ("bigram_global", "idf_bigram_global"):
            # the reference's DEFAULT blocking: corpus-wide bigram cosine
            # on the normalized first-turn prefix, NO pre-block
            # (candidates.R:82-112 via the inverted-index blocker); slim
            # id pairs come back, attributes join on per PAIR
            from ..stages.bigram import attach_pair_attrs, \
                bigram_candidates
            cand = bigram_candidates(
                records, None, blockvariable="first_text_prefix",
                id_col="conv_id", maxdist=maxdist,
                idf=blocktype.startswith("idf"), keep_unmatched=False,
                max_block_pairs=max_block_pairs)
            wide = attach_pair_attrs(cand, records, id_col="conv_id",
                                     attr_cols=PAIR_ATTR_COLS)
            wide = wide.rename_columns({"id_from": "conv_id_from",
                                        "id_to": "conv_id_to"})
            # pin before the balance repartition (same rationale as the
            # equality path below)
            return add_pair_features(_balanced(wide), slim=True)
        cand = candidates(
            records, None, block_col="block_key", id_col="conv_id",
            blocktype=blocktype, maxdist=maxdist,
            attr_cols=PAIR_ATTR_COLS, max_block_pairs=max_block_pairs,
            keep_unmatched=False)
        # pair blocks inherit the (salted) block layout — a hot shard can
        # hold ~max_block_pairs rows whose O(len²) feature DP would make one
        # straggler task gate the stage; rebalance into small even blocks.
        # PIN the pair table before that repartition: chaining the pair-
        # emission exchange and the balance exchange in one streaming plan
        # overlapped poorly (measured 800k entities, 28.3M pairs: 8 cpus
        # 146->123 s, 2 cpus 516->444 s; dropping the repartition instead
        # costs 166 s at 8 cpus from stragglers). Plasma holds the wide
        # table only until the slim features materialize; it spills, and
        # checkpoint mode streams disk-to-disk instead.
        # slim=True: the pinned pair table keeps ids + score + block_key +
        # features only — the per-side attr columns are feature INPUTS, not
        # downstream reads, and carrying them triples the materialized bytes
        return add_pair_features(_balanced(cand), slim=True)

    pairs = ck.stage("candidate_pairs", build_pairs, inputs=("conv_records",),
                     params=pair_params)

    scored = ck.stage(
        "scored_pairs",
        lambda: score_pairs(
            pairs.select_columns(
                ["conv_id_from", "conv_id_to"] + TRANSCRIPT_FEATURES),
            model),
        inputs=("candidate_pairs",), params={"model": model}, stream=True)

    def build_links():
        # tie_break pinned: tree scores tie exactly all the time, and the
        # flagship wants one link kept per group — the reference-parity
        # "average" default (drop both) is for predict_links callers
        return select_links(scored, id_from="conv_id_from",
                            id_to="conv_id_to", pred_col="pred",
                            minimum_confidence=minimum_confidence,
                            linktype=linktype,
                            tie_break="deterministic")

    links = ck.stage(
        "links", build_links,
        inputs=("scored_pairs",),
        params={"linktype": linktype,
                "minimum_confidence": minimum_confidence,
                "tie_break": "deterministic"})

    components = ck.stage(
        "components",
        lambda: connected_components(links, id_from="conv_id_from",
                                     id_to="conv_id_to"),
        inputs=("links",))

    entities = ck.stage(
        "entities",
        lambda: attach_entity_ids(
            records.select_columns(["conv_id", "block_key", "n_turns"]),
            components, id_col="conv_id"),
        inputs=("conv_records", "components"))

    def build_turns_out():
        out = hash_join(ds_turns,
                        entities.select_columns(["conv_id", "entity_id"]),
                        on="conv_id", how="left")
        # the per-turn text-equality invariant is checked under stable
        # (conv_id, turn_idx) order (BASELINE.json input_hint)
        return out.sort(["conv_id", "turn_idx"]) if sort_output else out

    turns_out = ck.stage("turns_out", build_turns_out,
                         inputs=("turns", "entities"),
                         params={"sort_output": sort_output}, stream=True)

    return {
        "records": records, "pairs": pairs, "scored": scored,
        "links": links, "components": components, "entities": entities,
        "turns_out": turns_out, "metrics": ck.metrics(),
    }
