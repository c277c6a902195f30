"""Star-contraction connected components: brute-force union-find
equality and the non-convergence warning (the DuckDB oracle equality
for graph_components runs via RETIRED_QUERIES in test_queries.py)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

import ray.data

from file_analyzer_ray.stages.text_dedup import cc_star_contraction


def _brute(edges: set[tuple[int, int]]) -> pd.DataFrame:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted({x for e in edges for x in e})
    return pd.DataFrame(
        {"node": nodes, "label": [find(n) for n in nodes]}
    ).astype("int64")


def _df(ds) -> pd.DataFrame:
    return (
        ds.to_pandas()
        .sort_values(["node", "label"])
        .reset_index(drop=True)
        .astype("int64")
    )


def _pairs_ds(edges, n_parts=9):
    items = [{"doc_id_a": a, "doc_id_b": b} for a, b in sorted(edges)]
    items += items[:5]  # duplicate input rows must not matter
    return ray.data.from_items(items).repartition(n_parts)


CASES = {
    # high-diameter path: the shape min-label pays rounds ∝ diameter on
    "path60": {(i, i + 1) for i in range(60)},
    # hub + islands + a 3-chain, plus a chain hanging off two spokes
    "hub": {(0, i) for i in range(1, 20)} | {(100, 101), (101, 102)}
    | {(5, 6), (6, 7)},
    # random sparse multi-component
    "rand": {
        (int(a), int(b))
        for a, b in np.random.default_rng(3).integers(0, 120, size=(130, 2))
        if a != b
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_star_vs_bruteforce(ray_session, name):
    edges = CASES[name]
    got = _df(cc_star_contraction(_pairs_ds(edges)))
    pd.testing.assert_frame_equal(got, _brute(edges))


def test_star_warns_when_max_iters_runs_out(ray_session):
    """One round cannot contract a 60-node path, and the exhausted
    round cap must say so instead of returning labels silently; the
    default cap converges without a warning."""
    import warnings

    edges = CASES["path60"]
    with pytest.warns(RuntimeWarning, match="max_iters=1"):
        cc_star_contraction(_pairs_ds(edges), max_iters=1).materialize()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cc_star_contraction(_pairs_ds(edges)).materialize()


def test_star_empty_input(ray_session):
    import pyarrow as pa

    empty = ray.data.from_arrow(
        pa.schema(
            [("doc_id_a", pa.int64()), ("doc_id_b", pa.int64())]
        ).empty_table()
    )
    assert cc_star_contraction(empty).count() == 0
