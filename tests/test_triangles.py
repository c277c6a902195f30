"""Triangle counting: brute-force equality on adversarial small graphs
(hub node, degree ties, duplicate input rows) + broadcast-vs-join
degree-attach path equality. The DuckDB oracle equality runs in
test_queries.py (SQL_CHECKED: graph_triangles)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pandas as pd
import pytest

import ray.data

from file_analyzer_ray.stages.triangles import (
    cooccurrence_edges,
    triangle_counts,
)


def _brute_counts(edges: set[tuple[int, int]]) -> dict[int, int]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out: dict[int, int] = {}
    for u, v, w in combinations(sorted(adj), 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            for x in (u, v, w):
                out[x] = out.get(x, 0) + 1
    return out


def _counts_df(ds) -> pd.DataFrame:
    return (
        ds.to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
        .astype("int64")
    )


@pytest.mark.parametrize("broadcast_max", [2_000_000, 0])
def test_triangles_vs_bruteforce(ray_session, broadcast_max):
    # hub node 0 touches everything (orientation must tame it); nodes
    # 1..6 form two cliques sharing node 3; 7 is triangle-free pendant
    edges = {
        (1, 2), (1, 3), (2, 3),
        (3, 4), (3, 5), (4, 5), (4, 6), (5, 6), (3, 6),
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
        (0, 7),
    }
    exp = _brute_counts(edges)
    e = ray.data.from_items([{"u": u, "v": v} for u, v in sorted(edges)])
    got = _counts_df(
        triangle_counts(e, n_nodes_hint=8, broadcast_nodes_max=broadcast_max)
    )
    assert dict(zip(got["node"], got["n_triangles"])) == exp


def test_triangles_random_graph_both_paths_equal(ray_session):
    rng = np.random.default_rng(7)
    n = 60
    edges = {
        (int(min(a, b)), int(max(a, b)))
        for a, b in rng.integers(0, n, size=(400, 2))
        if a != b
    }
    e = ray.data.from_items(
        [{"u": u, "v": v} for u, v in sorted(edges)]
    ).repartition(5)
    bc = _counts_df(triangle_counts(e, n_nodes_hint=n))
    jn = _counts_df(triangle_counts(e, n_nodes_hint=n, broadcast_nodes_max=0))
    pd.testing.assert_frame_equal(bc, jn)
    exp = _brute_counts(edges)
    assert dict(zip(bc["node"], bc["n_triangles"])) == exp


def test_triangles_closure_join_path_equals_broadcast(ray_session, monkeypatch):
    """Force the wedge ⋈ edge hash-join closure (the 10^12 path) and
    pin it to the packed-key broadcast closure + brute force."""
    import file_analyzer_ray.query_utils as qu

    rng = np.random.default_rng(11)
    n = 40
    edges = {
        (int(min(a, b)), int(max(a, b)))
        for a, b in rng.integers(0, n, size=(250, 2))
        if a != b
    }
    e = ray.data.from_items(
        [{"u": u, "v": v} for u, v in sorted(edges)]
    ).repartition(4)
    bc = _counts_df(triangle_counts(e, n_nodes_hint=n))
    monkeypatch.setattr(qu, "_BROADCAST_MAX_BYTES", 0)
    jn = _counts_df(triangle_counts(e, n_nodes_hint=n))
    pd.testing.assert_frame_equal(bc, jn)
    assert dict(zip(bc["node"], bc["n_triangles"])) == _brute_counts(edges)


def test_cooccurrence_edges_dedup_and_order(ray_session):
    # duplicate (basket, item) rows must not fabricate self-loops or
    # duplicate edges; u < v ordering holds
    rows = [
        {"k": 1, "x": 5}, {"k": 1, "x": 3}, {"k": 1, "x": 5},  # dup item
        {"k": 2, "x": 3}, {"k": 2, "x": 5}, {"k": 2, "x": 9},
        {"k": 3, "x": 7},  # singleton basket: no pairs
    ]
    ds = ray.data.from_items(rows).repartition(3)
    got = (
        cooccurrence_edges(ds, "k", "x")
        .to_pandas()
        .sort_values(["u", "v"])
        .reset_index(drop=True)
    )
    assert list(map(tuple, got.to_numpy())) == [(3, 5), (3, 9), (5, 9)]


def test_wedge_bound_guard(ray_session):
    """A lowered wedge_bound must raise BEFORE the super-linear wedge
    step (VERDICT r4 item 3: the sparsifier is load-bearing and must
    not silently fail open); one decade under the bound warns."""
    edges = {(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)}
    e = ray.data.from_items([{"u": u, "v": v} for u, v in sorted(edges)])
    # 6 edges -> bound int(6**1.5) = 14 wedges: guard trips at 10
    with pytest.raises(ValueError, match="wedge_bound"):
        triangle_counts(e, n_nodes_hint=6, wedge_bound=10)
    # within 10x of the bound: warns, still computes correctly
    with pytest.warns(RuntimeWarning, match="wedge"):
        got = _counts_df(triangle_counts(e, n_nodes_hint=6, wedge_bound=100))
    assert dict(zip(got["node"], got["n_triangles"])) == _brute_counts(edges)
