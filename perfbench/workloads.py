"""Seeded inputs, the timed operation and the output checks of each workload.

Every workload's corpus comes from fixed generator seeds, so its content,
its exact counters and its quality are the same for every benchmark seed;
``--seed`` permutes row order and file order. Pair counts of ``synth.gen_corpus`` vary about 3x
between generator seeds of one size, which would swamp any run-to-run
comparison, and fixed content lets every operation be checked against
exact recorded counters (``expected.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

WORKLOADS = ("link_hot", "assign_increments", "curate_docs")

# link_hot: one file, one vocabulary, unscoped hot openers -> a few large
# blocks whose pair work grows with the square of their size
HOT_ENTITIES, HOT_FRAC, HOT_GEN_SEED = 3000, 0.10, 3
# assign_increments: a sharded corpus (shard-scoped openers, about one
# pair per record); 1 in HOLDOUT_MOD of its conversations is held out of
# the base and assigned as one batch
SHARDS, SHARD_ENTITIES, SHARD_GEN_SEED = 8, 250, 100
HOLDOUT_MOD = 20
# curate_docs: one document per conversation of a transcript corpus (the
# corrupted copies of a conversation are its near duplicates); 1 in
# EXACT_MOD conversations gets a second, identical document and 1 in
# SHORT_MOD a document of its first three words (fails min_tokens)
DOC_ENTITIES, DOC_GEN_SEED, EXACT_MOD, SHORT_MOD = 4000, 5, 10, 25
CURATE_ARGS = {"min_tokens": 5, "min_quality": 0.2, "jaccard_threshold": 0.6}

_MAX_CLUSTER = 1000   # beyond this, pairwise F1 is not computed (op fails)


def _crc(s: str) -> int:
    return zlib.crc32(s.encode())


def _sharded_corpus():
    from capelinker_ray import synth
    shards = []
    for k in range(SHARDS):
        shards.append(synth.gen_corpus(
            SHARD_ENTITIES, seed=SHARD_GEN_SEED + k,
            id_offset=k * SHARD_ENTITIES * 8, scope=f"s{k}"))
    return shards


def _documents() -> tuple[pa.Table, pa.Table]:
    """The curate_docs corpus: ``doc_id, text, conv_id`` rows built from
    the turns of one ``gen_corpus`` call, and its truth table."""
    from capelinker_ray import synth
    turns, truth = synth.gen_corpus(DOC_ENTITIES, seed=DOC_GEN_SEED)
    turns = _sorted_turns(turns)
    texts: dict[str, list[str]] = {}
    for c, t in zip(turns["conv_id"].to_pylist(), turns["text"].to_pylist()):
        texts.setdefault(c, [])
        if t:
            texts[c].append(t)
    ids, docs, convs = [], [], []
    for c, parts in texts.items():
        copies = [" ".join(parts)]
        if _crc(c) % EXACT_MOD == 0:
            copies.append(copies[0])
        if _crc(c) % SHORT_MOD == 1:
            copies.append(" ".join(copies[0].split()[:3]))
        for text in copies:
            ids.append(len(ids))
            docs.append(text)
            convs.append(c)
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(docs, pa.string()),
                     "conv_id": pa.array(convs, pa.string())}), truth


def _permute(tbl: pa.Table, rng: np.random.Generator) -> pa.Table:
    return tbl.take(pa.array(rng.permutation(len(tbl))))


def _sorted_turns(tbl: pa.Table) -> pa.Table:
    return tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def fingerprint(tbl: pa.Table, keys: list[str]) -> str:
    """Order-independent content hash: rows sorted by ``keys``, then every
    column's values hashed in order."""
    tbl = tbl.sort_by([(k, "ascending") for k in keys])
    h = hashlib.sha256()
    for name in tbl.column_names:
        h.update(name.encode())
        h.update(json.dumps(tbl[name].to_pylist(), default=str).encode())
    return h.hexdigest()[:16]


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's Parquet inputs under ``out_dir``; return paths,
    the truth table and the content fingerprints."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    if workload == "curate_docs":
        docs, truth = _documents()
        pq.write_table(_permute(docs, rng),
                       os.path.join(out_dir, "part-000.parquet"))
        return {"input": out_dir, "docs": docs, "truth": truth,
                "fingerprint": {"docs": fingerprint(docs, ["doc_id"]),
                                "truth": fingerprint(truth, ["conv_id"])}}
    if workload == "link_hot":
        from capelinker_ray import synth
        turns, truth = synth.gen_corpus(HOT_ENTITIES, seed=HOT_GEN_SEED,
                                        hot_frac=HOT_FRAC)
        pq.write_table(_permute(turns, rng),
                       os.path.join(out_dir, "part-000.parquet"))
        return {"input": out_dir, "turns": turns, "truth": truth,
                "fingerprint": {"turns": fingerprint(turns, ["conv_id", "turn_idx"]),
                                "truth": fingerprint(truth, ["conv_id"])}}

    # assign_increments: the base is every shard minus the held-out
    # conversations, the batch is those conversations
    shards = _sharded_corpus()
    turns = pa.concat_tables([t for t, _ in shards])
    truth = pa.concat_tables([t for _, t in shards])
    fp = {"turns": fingerprint(turns, ["conv_id", "turn_idx"]),
          "truth": fingerprint(truth, ["conv_id"])}
    order = rng.permutation(SHARDS)
    held = np.array([_crc(c) % HOLDOUT_MOD == 0
                     for c in turns["conv_id"].to_pylist()])
    base_dir = os.path.join(out_dir, "base")
    os.makedirs(base_dir, exist_ok=True)
    for pos, k in enumerate(order):
        t = shards[k][0]
        keep = pa.array([_crc(c) % HOLDOUT_MOD != 0
                         for c in t["conv_id"].to_pylist()])
        pq.write_table(_permute(t.filter(keep), rng),
                       os.path.join(base_dir, f"part-{pos:03d}.parquet"))
    new = turns.filter(pa.array(held))
    inc_path = os.path.join(out_dir, "increment.parquet")
    pq.write_table(_permute(new, rng), inc_path)
    return {"input": base_dir, "turns": turns.filter(pa.array(~held)),
            "truth": truth, "increment": {"path": inc_path, "turns": new},
            "fingerprint": fp}


def collect(ds) -> pa.Table:
    """Drain a Dataset into one Arrow table on the driver."""
    import ray
    blocks = [b if isinstance(b, pa.Table)
              else pa.Table.from_pandas(b, preserve_index=False)
              for b in ray.get(ds.to_arrow_refs()) if len(b)]
    if not blocks:
        return pa.table({})
    return pa.concat_tables(blocks, promote_options="permissive")


# ----------------------------------------------------------------------
# operations. Each returns (rows_in, outputs); `drain` is a context
# manager factory the caller uses to time the final drain.

def link_op(inp: dict, drain) -> tuple[int, dict]:
    import ray.data as rd
    from capelinker_ray.pipelines.linkage import link_transcripts
    out = link_transcripts(rd.read_parquet(inp["input"]), checkpoint_dir=None)
    with drain() as rec:
        tout = collect(out["turns_out"])
        rec["rows"] = len(tout)
    return len(inp["turns"]), {"out": out, "turns_out": tout}


def link_counters(res: dict) -> dict:
    out = res["out"]
    ents = collect(out["entities"].select_columns(["conv_id", "entity_id"]))
    res["assign"] = ents
    return {"conv_records": out["records"].count(),
            "candidate_pairs": out["pairs"].count(),
            "links": out["links"].count(),
            "entities": len(pc.unique(ents["entity_id"])),
            "turns_out": len(res["turns_out"])}


def check_link(inp: dict, res: dict, expected: dict) -> tuple[dict, float, list]:
    counters = link_counters(res)
    errors = [f"{k}: {v} != expected {expected['counters'][k]}"
              for k, v in counters.items() if v != expected["counters"][k]]
    tout, ref = res["turns_out"], _sorted_turns(inp["turns"])
    if len(tout) == len(ref):
        for col in ("conv_id", "turn_idx", "text"):
            if not tout[col].combine_chunks().equals(
                    ref[col].combine_chunks()):
                errors.append(f"turns_out.{col} differs from the input "
                              "under (conv_id, turn_idx) order")
    f1 = _f1(_pair_counts(res["assign"], inp["truth"]))
    if f1 < expected["pairwise_f1_floor"]:
        errors.append(f"pairwise_f1 {f1} < floor "
                      f"{expected['pairwise_f1_floor']}")
    return counters, f1, errors


class IncrementState:
    """The frozen base of assign_increments, built once in set-up: conv
    records of the base turns (the same public stage calls that
    ``assign_to_entities`` makes for a batch) and the base's ground-truth
    entity table, as a curated master table would be. A base linked by
    ``link_transcripts`` costs ~18 s per run, which the time limit cannot
    afford; the increment's own work does not depend on how the base
    entity ids were made."""

    def __init__(self, inp: dict):
        import ray.data as rd
        from capelinker_ray.stages.conv_records import build_conv_records
        from capelinker_ray.stages.normalize import normalize_turns
        self.records = build_conv_records(normalize_turns(
            rd.read_parquet(inp["input"]))).materialize()
        base_ids = pc.unique(inp["turns"]["conv_id"])
        truth = inp["truth"].filter(pc.is_in(inp["truth"]["conv_id"],
                                             base_ids))
        self.assign = pa.table({
            "conv_id": truth["conv_id"],
            "entity_id": pc.binary_join_element_wise(
                "e", truth["entity_id"].cast(pa.string()), "")})
        self.entities = rd.from_arrow(self.assign)
        self._base_pairs = None

    def base_pair_counts(self, truth: pa.Table) -> dict:
        """tp/fp/fn of the base clustering alone (computed once)."""
        if self._base_pairs is None:
            self._base_pairs = _pair_counts(self.assign, truth)
        return self._base_pairs


def increment_pairs(state: IncrementState, inc_records, to_base: bool):
    """Candidate pairs an increment scores, new->base (``to_base``) or
    new->new, built with the public blocking and feature stages and
    ``assign_to_entities``' defaults. Outside any timed operation:
    calibration counts them and the microbenches sample them."""
    from capelinker_ray.pipelines.linkage import PAIR_ATTR_COLS
    from capelinker_ray.stages.blocking import candidates
    from capelinker_ray.stages.features import add_pair_features
    return add_pair_features(candidates(
        inc_records, state.records if to_base else None,
        block_col="block_key", id_col="conv_id", attr_cols=PAIR_ATTR_COLS,
        keep_unmatched=False)).materialize()


def _pair_counts(assign: pa.Table, truth: pa.Table) -> dict:
    from capelinker_ray.metrics import pairwise_cluster_metrics
    a = assign.select(["conv_id", "entity_id"]).to_pandas()
    if len(a) and a["entity_id"].value_counts().iloc[0] > _MAX_CLUSTER:
        raise AssertionError("a predicted cluster exceeds "
                             f"{_MAX_CLUSTER} conversations")
    t = truth.select(["conv_id", "entity_id"]).to_pandas()
    t = t[t["conv_id"].isin(a["conv_id"])]
    m = pairwise_cluster_metrics(a, t, pred_col="entity_id",
                                 true_col="entity_id")
    return {k: m[k] for k in ("tp", "fp", "fn")}


def _f1(c: dict) -> float:
    return 2 * c["tp"] / (2 * c["tp"] + c["fp"] + c["fn"]) if c["tp"] else 0.0


def increment_op(inp: dict, state: IncrementState, drain) -> tuple[int, dict]:
    import ray.data as rd
    from capelinker_ray.pipelines.incremental import assign_to_entities
    inc = inp["increment"]
    out = assign_to_entities(rd.read_parquet(inc["path"]), state.records,
                             state.entities)
    with drain() as rec:
        assign = collect(out["assignments"])
        rec["rows"] = len(assign)
    return len(inc["turns"]), {"out": out, "assign": assign}


def increment_counters(res: dict) -> dict:
    out, assign = res["out"], res["assign"]
    return {"inc_records": out["records"].count(),
            "links_new_base": out["links_new_base"].count(),
            "links_within": out["links_within"].count(),
            "assigned": len(assign),
            "matched": int(pc.sum(assign["matched"]).as_py() or 0),
            "entities": len(pc.unique(assign["entity_id"]))}


def check_increment(inp: dict, state: IncrementState, res: dict,
                    expected: dict) -> tuple[dict, float, list]:
    """Pairwise F1 over the pairs that involve a new conversation: the
    clustering of base + increment minus the base clustering alone."""
    counters = increment_counters(res)
    want = expected["increment"]
    errors = [f"{k}: {v} != expected {want['counters'][k]}"
              for k, v in counters.items() if v != want["counters"][k]]
    inc_turns = inp["increment"]["turns"]
    got = sorted(res["assign"]["conv_id"].to_pylist())
    if got != sorted(set(inc_turns["conv_id"].to_pylist())):
        errors.append("assignments do not cover exactly the new conversations")
    base = state.base_pair_counts(inp["truth"])
    both = _pair_counts(pa.concat_tables([
        state.assign, res["assign"].select(["conv_id", "entity_id"])
        .cast(state.assign.schema)]), inp["truth"])
    f1 = _f1({k: both[k] - base[k] for k in base})
    if f1 < want["pairwise_f1_floor"]:
        errors.append(f"pairwise_f1 {f1} < floor "
                      f"{want['pairwise_f1_floor']}")
    return counters, f1, errors


# ----------------------------------------------------------------------
# curate_docs

def curate_op(inp: dict, drain) -> tuple[int, dict]:
    import ray.data as rd
    from capelinker_ray.pipelines.curate import curate_documents
    out = curate_documents(rd.read_parquet(inp["input"]), **CURATE_ARGS)
    with drain() as rec:
        kept = collect(out["kept"].select_columns(["doc_id", "text"]))
        removed = collect(out["removed"])
        rec["rows"] = len(kept) + len(removed)
    return len(inp["docs"]), {"out": out, "kept": kept, "removed": removed}


def curate_counters(res: dict) -> dict:
    reasons = pc.value_counts(res["removed"]["reason"]).to_pylist()
    return {"kept": len(res["kept"]), "removed": len(res["removed"]),
            **{f"removed_{r['values']}": r["counts"]
               for r in sorted(reasons, key=lambda r: r["values"])}}


def dup_pairs(counters: dict) -> int:
    """Duplicates removed, exact and near: each is one resolved pair of a
    document and its family's representative."""
    return (counters.get("removed_exact_dup", 0)
            + counters.get("removed_near_dup", 0))


def curate_f1(inp: dict, res: dict) -> float:
    """F1 of the documents removed as duplicates against the truth's
    redundant documents: those past the gates whose entity has a document
    with a smaller ``doc_id`` past the gates."""
    removed = res["removed"]
    dup = pc.is_in(removed["reason"],
                   pa.array(["exact_dup", "near_dup"]))
    gated_out = set(removed.filter(pc.invert(dup))["doc_id"].to_pylist())
    pred = set(removed.filter(dup)["doc_id"].to_pylist())
    ent = dict(zip(inp["truth"]["conv_id"].to_pylist(),
                   inp["truth"]["entity_id"].to_pylist()))
    docs = inp["docs"].sort_by("doc_id")
    seen, redundant = set(), set()
    for d, c in zip(docs["doc_id"].to_pylist(), docs["conv_id"].to_pylist()):
        if d in gated_out:
            continue
        if ent[c] in seen:
            redundant.add(d)
        seen.add(ent[c])
    tp = len(pred & redundant)
    return 2 * tp / (len(pred) + len(redundant)) if tp else 0.0


def check_curate(inp: dict, res: dict, expected: dict) -> tuple[dict, float, list]:
    counters = curate_counters(res)
    errors = [f"{k}: {counters.get(k)} != expected {v}"
              for k, v in expected["counters"].items() if counters.get(k) != v]
    errors += [f"{k}: unexpected {v}" for k, v in counters.items()
               if k not in expected["counters"]]
    kept, removed = res["kept"], res["removed"]
    ids = kept["doc_id"].to_pylist() + removed["doc_id"].to_pylist()
    if sorted(ids) != inp["docs"]["doc_id"].to_pylist():
        errors.append("kept and removed do not partition the input doc_ids")
    ref = inp["docs"].filter(pc.is_in(inp["docs"]["doc_id"], kept["doc_id"]))
    if not kept.sort_by("doc_id")["text"].combine_chunks().equals(
            ref["text"].combine_chunks()):
        errors.append("kept text differs from the input under doc_id order")
    f1 = curate_f1(inp, res)
    if f1 < expected["pairwise_f1_floor"]:
        errors.append(f"pairwise_f1 {f1} < floor "
                      f"{expected['pairwise_f1_floor']}")
    return counters, f1, errors
