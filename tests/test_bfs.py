"""BFS hop layers: broadcast-vs-distributed path equality (the
pagerank-style auto-switch pin, VERDICT r4 item 2) + brute-force
equality on adversarial small graphs. The DuckDB recursive-CTE oracle
equality runs via RETIRED_QUERIES in test_queries.py."""

from __future__ import annotations

import pandas as pd
import pytest

import ray.data

from file_analyzer_ray.stages.graph import (
    bfs_layers,
    bfs_source_and_count,
)


def _brute_bfs(edges: set[tuple[int, int]], source: int, max_hops: int):
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    hop = {source: 0}
    frontier = [source]
    for h in range(1, max_hops + 1):
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in hop:
                    hop[v] = h
                    nxt.append(v)
        frontier = nxt
    return hop


def _df(ds) -> pd.DataFrame:
    return (
        ds.to_pandas()
        .sort_values(["hop", "node"])
        .reset_index(drop=True)
        .astype("int64")
    )


EDGES = {
    # chain 0-1-2-3-4 (tests hop cutoff: 4 is 4 hops from 0),
    # clique 1-5-6 (multiple shortest paths), isolated pair 8-9,
    # hub 1 (highest degree -> auto source)
    (0, 1), (1, 2), (2, 3), (3, 4),
    (1, 5), (1, 6), (5, 6),
    (8, 9),
}


@pytest.mark.parametrize("mode", ["broadcast", "distributed"])
def test_bfs_vs_bruteforce(ray_session, mode):
    e = ray.data.from_items([{"u": u, "v": v} for u, v in sorted(EDGES)])
    got = _df(bfs_layers(e, source=0, max_hops=3, mode=mode))
    exp = _brute_bfs(EDGES, 0, 3)
    assert dict(zip(got["node"], got["hop"])) == exp
    # unreached nodes (8, 9) and beyond-cutoff node (4) are absent
    assert set(got["node"]) == set(exp)


def test_bfs_both_paths_equal_forced_tiny_blocks(ray_session):
    """The distributed hop-propagation path must equal the broadcast
    path bit-for-bit, including when every sort lands key runs across
    block boundaries (the carry-fold regression pattern)."""
    import numpy as np

    rng = np.random.default_rng(7)
    n = 120
    edges = {
        (int(a), int(b))
        for a, b in rng.integers(0, n, size=(300, 2))
        if a != b
    }
    edges = {(min(a, b), max(a, b)) for a, b in edges}
    e = ray.data.from_items(
        [{"u": u, "v": v} for u, v in sorted(edges)]
    ).repartition(37)
    b = _df(bfs_layers(e, source=None, max_hops=3, mode="broadcast"))
    d = _df(bfs_layers(e, source=None, max_hops=3, mode="distributed"))
    pd.testing.assert_frame_equal(b, d)


def test_bfs_source_and_count(ray_session):
    e = ray.data.from_items([{"u": u, "v": v} for u, v in sorted(EDGES)])
    src, n_nodes = bfs_source_and_count(e)
    assert src == 1  # degree 4; min id on ties
    assert n_nodes == 9


def test_bfs_auto_switch_threshold(ray_session, monkeypatch):
    """auto mode picks distributed above BROADCAST_NODES_MAX and the
    result is unchanged (the pagerank auto-switch contract)."""
    import file_analyzer_ray.stages.graph as g

    e = ray.data.from_items([{"u": u, "v": v} for u, v in sorted(EDGES)])
    base = _df(bfs_layers(e, source=0, max_hops=3, mode="broadcast"))
    monkeypatch.setattr(g, "BROADCAST_NODES_MAX", 2)
    auto = _df(g.bfs_layers(e, source=0, max_hops=3, mode="auto"))
    pd.testing.assert_frame_equal(base, auto)


@pytest.mark.parametrize("mode", ["broadcast", "distributed"])
def test_bfs_explicit_source_absent_from_edges(ray_session, mode):
    """An explicit source with no edges is its own only layer in both
    modes; a negative explicit source is rejected."""
    e = ray.data.from_items([{"u": u, "v": v} for u, v in sorted(EDGES)])
    got = _df(bfs_layers(e, source=42, max_hops=3, mode=mode))
    assert got.to_dict("records") == [{"node": 42, "hop": 0}]
    with pytest.raises(ValueError):
        bfs_layers(e, source=-1, max_hops=3, mode=mode)
