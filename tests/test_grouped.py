"""Width invariance of the engine's one shuffle primitive: ``grouped_map``
gives the same result at every reduce width and input block layout, never
hands ``fn`` an empty frame, and the ``shuffle_width`` rule holds its
bounds. Every grouped test here reads a per-key summary or a per-key rank,
so a key group split across two ``fn`` calls shows as a second row (or a
second rank-1 link) for that key."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from capelinker_ray.stages import grouped
from capelinker_ray.stages.grouped import (
    ROWS_PER_PARTITION,
    _cluster_cpus,
    default_partitions,
    grouped_map,
    heavy_width,
    shuffle_width,
)


def _frame(n=600, n_keys=5, seed=3):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "k": rng.choice([f"key{i}" for i in range(n_keys)], n),
        "v": rng.integers(0, 1000, n),
    })


def _summary_fn():
    # built in a closure so Ray pickles it by value (workers cannot import
    # this test module)
    def summary(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            raise AssertionError("fn called with an empty frame")
        return g.groupby("k", as_index=False).agg(n=("v", "size"),
                                                  s=("v", "sum"))
    return summary


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("k").reset_index(drop=True)[["k", "n", "s"]]


@pytest.mark.parametrize("layout", ["one_block", "seven_blocks"])
@pytest.mark.parametrize("width", [1, 2, 8, 33, None])
def test_grouped_map_matches_pandas_at_every_width(ray_session, width,
                                                   layout):
    """5 distinct keys against widths up to 33: most partitions are empty,
    and ``fn`` (which raises on an empty frame) must never see them."""
    df = _frame()
    ds = rd.from_pandas(df)
    if layout == "seven_blocks":
        ds = ds.repartition(7)
    summary = _summary_fn()
    got = grouped_map(ds, "k", summary, num_partitions=width).to_pandas()
    pd.testing.assert_frame_equal(_canon(got), _canon(summary(df)),
                                  check_dtype=False)


def test_grouped_map_multi_key_wide(ray_session):
    """More keys than partitions, over a two-column key: every partition
    holds many complete key-groups."""
    df = _frame(n=3000, n_keys=40, seed=11)
    df["k2"] = df["v"] % 3

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            raise AssertionError("fn called with an empty frame")
        return g.groupby(["k", "k2"], as_index=False)["v"].sum()

    want = per_key(df).sort_values(["k", "k2"]).reset_index(drop=True)
    for width in (1, 8, 33):
        got = (grouped_map(rd.from_pandas(df).repartition(4), ["k", "k2"],
                           per_key, num_partitions=width).to_pandas()
               .sort_values(["k", "k2"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_shuffle_width_bounds(ray_session):
    assert shuffle_width(0) == 1
    assert shuffle_width(1) == 1
    assert shuffle_width(ROWS_PER_PARTITION) == 1
    assert shuffle_width(ROWS_PER_PARTITION + 1) == 2
    assert shuffle_width(10**12) == default_partitions()
    assert shuffle_width(10**12, cap=5) == 5
    assert shuffle_width(3 * ROWS_PER_PARTITION, cap=2) == 2
    assert shuffle_width(0, cap=5) == 1


def test_heavy_width_spreads_small_inputs_over_every_cpu(ray_session):
    cpus = _cluster_cpus()
    assert cpus >= 2                     # the floor is visible
    assert heavy_width(0, cap=64) == 1
    assert heavy_width(1, cap=64) == 1
    assert heavy_width(cpus - 1, cap=64) == cpus - 1
    assert heavy_width(ROWS_PER_PARTITION, cap=64) == cpus
    assert heavy_width(ROWS_PER_PARTITION, cap=1) == 1
    assert heavy_width(10**12, cap=64) == 64
    # past the CPU floor the row rule decides
    n = (cpus + 3) * ROWS_PER_PARTITION
    assert heavy_width(n, cap=10**6) == shuffle_width(n, cap=10**6)


def _records():
    """Records over a few shared block keys with a numeric attribute; the
    score below ties often, so selection relies on the deterministic
    tie-break."""
    rng = np.random.default_rng(5)
    n = 240
    return pd.DataFrame({
        "conv_id": [f"c{i:03d}" for i in range(n)],
        "block_key": rng.choice([f"b{i}" for i in range(12)], n),
        "x": rng.integers(0, 20, n).astype(np.float64),
    })


def _score_fn():
    def score(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "conv_id_from": df["conv_id_from"],
            "conv_id_to": df["conv_id_to"],
            "pred": 1.0 - (df["x_from"] - df["x_to"]).abs() / 20.0,
        })
    return score


@pytest.mark.parametrize("linktype", ["many:one", "one:one"])
def test_candidates_select_links_width_invariant(ray_session, monkeypatch,
                                                 linktype):
    """The blocking pair exchange, its hot-key pass and both rank shuffles
    forced to width 1 and to width 8 give identical links."""
    from capelinker_ray.stages.blocking import candidates
    from capelinker_ray.stages.selection import select_links

    recs = _records()
    side = np.arange(len(recs)) % 3 == 0

    def run(width):
        monkeypatch.setattr(grouped, "shuffle_width",
                            lambda n_rows, cap=None: width)
        monkeypatch.setattr(grouped, "heavy_width",
                            lambda n_rows, cap: width)
        pairs = candidates(rd.from_pandas(recs[~side]),
                           rd.from_pandas(recs[side]),
                           block_col="block_key", id_col="conv_id",
                           attr_cols=["x"], keep_unmatched=False,
                           max_block_pairs=50)
        links = select_links(
            pairs.map_batches(_score_fn(), batch_format="pandas"),
            minimum_confidence=0.5, linktype=linktype,
            tie_break="deterministic")
        return (links.to_pandas()[["conv_id_from", "conv_id_to", "pred"]]
                .sort_values(["conv_id_from", "conv_id_to"])
                .reset_index(drop=True))

    narrow, wide = run(1), run(8)
    assert len(narrow) > 20
    # rank-1 per from-id: each from-id keeps at most one link
    assert not narrow["conv_id_from"].duplicated().any()
    if linktype == "one:one":
        assert not narrow["conv_id_to"].duplicated().any()
    pd.testing.assert_frame_equal(narrow, wide)
