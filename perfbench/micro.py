"""Single-thread, in-process microbenches of the kernel and scorer layers.

Inputs are a fixed sample of the workload's own scored candidate pairs:
the first-turn 32-char prefixes of both sides (``kernels.strdist``) and the
pair feature rows (``models.scorer``). No Ray tasks run here; the data is
collected to the driver before timing starts.
"""

from __future__ import annotations

import statistics
import time

import pyarrow as pa

SAMPLE_PAIRS = 20_000
MIN_SECONDS = 0.4   # per microbench, repeated calls until this much wall
METRICS = {"kernels.strdist.jw_pairs_per_s": "pairs/s",
           "kernels.strdist.osa_pairs_per_s": "pairs/s",
           "kernels.strdist.soundex_pairs_per_s": "pairs/s",
           "models.scorer.rows_per_s": "rows/s"}


def _rate(fn, n: int) -> float:
    """Median of per-call rates (items/s) over repeated calls."""
    rates, t_end = [], time.monotonic() + MIN_SECONDS
    while time.monotonic() < t_end or len(rates) < 3:
        t0 = time.perf_counter()
        fn()
        rates.append(n / (time.perf_counter() - t0))
    return statistics.median(rates)


def sample(records, pairs) -> tuple[list, list, pa.Table]:
    """First-turn prefix string pairs and feature rows of the first
    ``SAMPLE_PAIRS`` candidate pairs in (conv_id_from, conv_id_to) order,
    repeated up to that size when there are fewer."""
    from capelinker_ray.stages.features import TRANSCRIPT_FEATURES
    from workloads import collect
    p = collect(pairs.select_columns(
        ["conv_id_from", "conv_id_to"] + TRANSCRIPT_FEATURES))
    p = p.sort_by([("conv_id_from", "ascending"),
                   ("conv_id_to", "ascending")]).slice(0, SAMPLE_PAIRS)
    if 0 < len(p) < SAMPLE_PAIRS:   # small increments: repeat the sample
        p = pa.concat_tables([p] * -(-SAMPLE_PAIRS // len(p))).slice(
            0, SAMPLE_PAIRS)
    r = collect(records.select_columns(["conv_id", "first_text_32"]))
    text = dict(zip(r["conv_id"].to_pylist(), r["first_text_32"].to_pylist()))
    s1 = [text[c] for c in p["conv_id_from"].to_pylist()]
    s2 = [text[c] for c in p["conv_id_to"].to_pylist()]
    return s1, s2, p


def run(records, pairs) -> dict:
    from capelinker_ray.kernels.strdist import (jaro_winkler_sim, osa_sim,
                                                soundex_dist)
    from capelinker_ray.models.registry import resolve_artifact
    from capelinker_ray.models.scorer import feature_matrix
    from capelinker_ray.models.trees import predict_ensemble
    s1, s2, feats = sample(records, pairs)
    n = len(s1)
    art = resolve_artifact("m_boost_transcripts")

    def score():
        predict_ensemble(art, feature_matrix(feats, art["feature_names"]))

    return {
        "kernels.strdist.jw_pairs_per_s": _rate(
            lambda: jaro_winkler_sim(s1, s2, p=0.1, max_len=32), n),
        "kernels.strdist.osa_pairs_per_s": _rate(
            lambda: osa_sim(s1, s2, max_len=32), n),
        "kernels.strdist.soundex_pairs_per_s": _rate(
            lambda: soundex_dist(s1, s2), n),
        "models.scorer.rows_per_s": _rate(score, n),
    }
