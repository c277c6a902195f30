"""Distributed PageRank over an edge list — graph centrality for the
engine's analytics surface.

Shape (the honest 10^12-edge layout): edges are the BIG table and stay
distributed end to end; the rank vector is node-sized and flows as a
dataset through one hash join + one sum-by-key per iteration — never a
driver-side adjacency structure. Degree and contribution sums run as
per-batch combine → ONE sort → run-sum per complete key group (the
engine's unbounded-cardinality aggregation), so no task ever holds the
full node space.

Determinism contract (mirrored by the unrolled-CTE DuckDB oracle in
queries.py): ranks are quantized to ``RANK_DECIMALS`` after init and
after every update — the same cross-engine trick as the k-means
oracle — so float summation-order noise (~1e-15) never reaches the
comparison. Update rule (undirected expansion, so every node has
out-degree ≥ 1 and no dangling-mass term is needed):

    r_{t+1}(v) = round((1-d)/N + d * Σ_{(u,v)∈E} r_t(u)/deg(u), 8)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

RANK_DECIMALS = 8


def _sum_by_key(ds: "ray.data.Dataset", key: str, val: str,
                out_val: str) -> "ray.data.Dataset":
    """Unbounded-cardinality sum: per-batch Arrow hash-combine → one
    sort by key → vectorized run-sum per complete key group. The run-sum
    is also the side-channel precombine, so a hot key sends one row per
    block edge, not its whole run."""
    from ..query_utils import _window_by_key_arrow
    from .banding import run_bounds

    def combine(t: pa.Table) -> pa.Table:
        agg = t.select([key, val]).group_by([key]).aggregate([(val, "sum")])
        return pa.table({key: agg.column(key), out_val: agg.column(f"{val}_sum")})

    pre = ds.map_batches(combine, batch_format="pyarrow")

    def run_sum(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        v = t.column(out_val).to_numpy(zero_copy_only=False)
        keys = t.column(key)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        kv = keys.to_numpy(zero_copy_only=False)
        starts, _ = run_bounds(kv)
        sums = np.add.reduceat(v, starts)
        return pa.Table.from_arrays(
            [keys.take(pa.array(starts)), pa.array(sums)],
            names=[key, out_val],
        )

    return _window_by_key_arrow(pre, [key], [key], run_sum, precombine=run_sum)


#: node-count bound for the broadcast iteration path: the rank + degree
#: vectors ride the object store (8+8 bytes/node — 500k nodes ≈ 8 MB)
#: and each iteration is ONE streaming pass over the edges plus a
#: node-bounded driver reduce (the k-means partial shape). Above the
#: bound the rank vector itself is corpus-scaled and iterations run as
#: hash join + sum-by-key instead (equality-tested against this path).
BROADCAST_NODES_MAX = 500_000


def pagerank(
    edges: "ray.data.Dataset",
    damping: float = 0.85,
    iters: int = 3,
    num_partitions: int = 16,
    mode: str = "auto",
) -> "ray.data.Dataset":
    """``(src, dst)`` DIRECTED edge dataset (pass both directions for
    an undirected graph; every src must appear — i.e. no dangling
    nodes) → ``(v, pagerank)`` after ``iters`` quantized updates."""

    def ones(t: pa.Table) -> pa.Table:
        return t.append_column(
            "one", pa.array(np.ones(t.num_rows, dtype=np.int64))
        )

    # The edge list is loop-invariant: pin its blocks in the object
    # store ONCE (spill-backed at 10^12 edges) so the degree pass and
    # every rank iteration re-read blocks instead of re-executing the
    # upstream plan (join + distinct + expand) per iteration.
    edges = edges.materialize()
    if mode == "broadcast":
        # caller DECLARED the node space bounded (e.g. from parquet
        # footer row counts of the dimension tables) — degrees come
        # from one streaming pass with node-bounded per-batch partials
        # reduced on the driver, skipping the sort-based _sum_by_key.
        node_ids, degs = _degrees_driver(edges)
        return _pagerank_broadcast(edges, node_ids, degs, damping, iters)
    deg = _sum_by_key(
        edges.map_batches(ones, batch_format="pyarrow"), "src", "one", "deg"
    ).materialize()
    n_nodes = deg.count()
    r0 = round(1.0 / n_nodes, RANK_DECIMALS)
    teleport = (1.0 - damping) / n_nodes
    if mode == "auto":
        mode = "broadcast" if n_nodes <= BROADCAST_NODES_MAX else "join"
    if mode == "broadcast":
        rows = deg.take_all()
        node_ids = np.fromiter((r["src"] for r in rows), dtype=np.int64,
                               count=len(rows))
        order = np.argsort(node_ids)
        degs = np.fromiter((r["deg"] for r in rows), dtype=np.float64,
                           count=len(rows))[order]
        return _pagerank_broadcast(
            edges, node_ids[order], degs, damping, iters
        )

    def init_ranks(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column("src"),
             pa.array(np.full(t.num_rows, r0, dtype=np.float64))],
            names=["v", "r"],
        )

    ranks = deg.map_batches(init_ranks, batch_format="pyarrow")

    # weight each edge once: pay the edges ⋈ degree join a single time
    edges_w = edges.join(
        deg, join_type="inner", num_partitions=num_partitions, on=("src",)
    ).materialize()

    for _ in range(iters):
        contrib_in = edges_w.join(
            ranks, join_type="inner", num_partitions=num_partitions,
            on=("src",), right_on=("v",),
        )

        def share(t: pa.Table) -> pa.Table:
            r = t.column("r").to_numpy(zero_copy_only=False)
            d = t.column("deg").to_numpy(zero_copy_only=False)
            return pa.Table.from_arrays(
                [t.column("dst"), pa.array(r / d)], names=["dst", "share"]
            )

        summed = _sum_by_key(
            contrib_in.map_batches(share, batch_format="pyarrow"),
            "dst", "share", "contrib",
        )

        def update(t: pa.Table) -> pa.Table:
            c = t.column("contrib").to_numpy(zero_copy_only=False)
            r = np.round(teleport + damping * c, RANK_DECIMALS)
            return pa.Table.from_arrays(
                [t.column("dst"), pa.array(r)], names=["v", "r"]
            )

        # _pin_blocks: cut the per-iteration rank plan (the window's
        # internal materialize keeps upstream lineage; three iterations
        # of join + union otherwise compound the plan tree — see
        # query_utils._pin_blocks)
        from ..query_utils import _pin_blocks

        ranks = _pin_blocks(summed.map_batches(update, batch_format="pyarrow"))

    def finalize(t: pa.Table) -> pa.Table:
        return t.rename_columns(["v", "pagerank"])

    return ranks.map_batches(finalize, batch_format="pyarrow")


def _degrees_driver(edges) -> tuple[np.ndarray, np.ndarray]:
    """Out-degree per src from ONE streaming pass: per-batch Arrow
    group-count (≤ distinct-src rows per batch leave each task),
    reduced on the driver — valid only when the node space is bounded
    (the k-means-partial shape)."""

    def partial(t: pa.Table) -> pa.Table:
        agg = t.select(["src"]).group_by(["src"]).aggregate([("src", "count")])
        return agg.rename_columns(["src", "n"])

    ids_chunks, cnt_chunks = [], []
    for b in edges.map_batches(
        partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        ids_chunks.append(b.column("src").to_numpy(zero_copy_only=False))
        cnt_chunks.append(b.column("n").to_numpy(zero_copy_only=False))
    allids = np.concatenate(ids_chunks) if ids_chunks else np.empty(0, np.int64)
    allcnt = np.concatenate(cnt_chunks) if cnt_chunks else np.empty(0, np.int64)
    node_ids, inv = np.unique(allids.astype(np.int64), return_inverse=True)
    degs = np.bincount(inv, weights=allcnt.astype(np.float64),
                       minlength=len(node_ids))
    return node_ids, degs


def _pagerank_broadcast(
    edges, node_ids: np.ndarray, degs: np.ndarray,
    damping: float, iters: int,
):
    """Bounded-node iteration: sorted node-id + degree arrays broadcast
    once via ``ray.put``; each iteration is one streaming edge pass
    emitting per-batch (dst, partial-share) combines (searchsorted rank
    lookup — no per-row Python), reduced on the driver into the next
    node-sized rank vector."""
    import ray

    n_nodes = len(node_ids)
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.float64())],
                names=["v", "pagerank"],
            )
        )
    r0 = round(1.0 / n_nodes, RANK_DECIMALS)
    teleport = (1.0 - damping) / n_nodes
    ranks = np.full(n_nodes, r0, dtype=np.float64)

    for _ in range(iters):
        ref = ray.put((node_ids, ranks / degs))

        def partial(t: pa.Table, _ref=ref) -> pa.Table:
            ids, share_of = ray.get(_ref)
            src = t.column("src").to_numpy(zero_copy_only=False)
            shares = share_of[np.searchsorted(ids, src)]
            tbl = pa.Table.from_arrays(
                [t.column("dst"), pa.array(shares)], names=["dst", "share"]
            )
            agg = tbl.group_by(["dst"]).aggregate([("share", "sum")])
            return agg.rename_columns(["dst", "share"])

        contrib = np.zeros(n_nodes, dtype=np.float64)
        for b in edges.map_batches(
            partial, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow"):
            dst = b.column("dst").to_numpy(zero_copy_only=False)
            share = b.column("share").to_numpy(zero_copy_only=False)
            contrib += np.bincount(
                np.searchsorted(node_ids, dst), weights=share,
                minlength=n_nodes,
            )
        ranks = np.round(teleport + damping * contrib, RANK_DECIMALS)

    out = pa.Table.from_arrays(
        [pa.array(node_ids), pa.array(ranks)], names=["v", "pagerank"]
    )
    return ray.data.from_arrow(out)


def pagerank_undirected_pairs(
    pairs: "ray.data.Dataset",
    damping: float = 0.85,
    iters: int = 3,
    cols: "tuple[str, str]" = ("a", "b"),
) -> "ray.data.Dataset":
    """PageRank over an UNDIRECTED graph given each edge ONCE as a
    ``(a, b)`` pair — the broadcast-mode iteration without ever
    materializing the 2× expanded directed edge list: every streaming
    pass reads half the rows and emits both directions' contributions
    in-batch. Bit-identical to ``pagerank(expand(pairs),
    mode='broadcast')`` (pytest-pinned). Node space must be bounded
    (the broadcast-mode contract)."""
    import ray

    ca, cb = cols
    pairs = pairs.materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        # both endpoints of every pair gain a degree
        both = pa.chunked_array(
            [t.column(ca).combine_chunks() if isinstance(t.column(ca), pa.ChunkedArray) else t.column(ca),
             t.column(cb).combine_chunks() if isinstance(t.column(cb), pa.ChunkedArray) else t.column(cb)]
        ).combine_chunks()
        agg = (
            pa.Table.from_arrays([both], names=["src"])
            .group_by(["src"]).aggregate([("src", "count")])
        )
        return agg.rename_columns(["src", "n"])

    ids_chunks, cnt_chunks = [], []
    for b in pairs.map_batches(
        deg_partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        ids_chunks.append(b.column("src").to_numpy(zero_copy_only=False))
        cnt_chunks.append(b.column("n").to_numpy(zero_copy_only=False))
    allids = np.concatenate(ids_chunks) if ids_chunks else np.empty(0, np.int64)
    allcnt = np.concatenate(cnt_chunks) if cnt_chunks else np.empty(0, np.int64)
    node_ids, inv = np.unique(allids.astype(np.int64), return_inverse=True)
    degs = np.bincount(inv, weights=allcnt.astype(np.float64),
                       minlength=len(node_ids))
    n_nodes = len(node_ids)
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.float64())],
                names=["v", "pagerank"],
            )
        )
    r0 = round(1.0 / n_nodes, RANK_DECIMALS)
    teleport = (1.0 - damping) / n_nodes
    ranks = np.full(n_nodes, r0, dtype=np.float64)

    for _ in range(iters):
        ref = ray.put((node_ids, ranks / degs))

        def partial(t: pa.Table, _ref=ref) -> pa.Table:
            ids, share_of = ray.get(_ref)
            a = t.column(ca).to_numpy(zero_copy_only=False)
            b = t.column(cb).to_numpy(zero_copy_only=False)
            # both directions from one pass over the pairs
            dst = np.concatenate([b, a])
            src = np.concatenate([a, b])
            shares = share_of[np.searchsorted(ids, src)]
            tbl = pa.Table.from_arrays(
                [pa.array(dst), pa.array(shares)], names=["dst", "share"]
            )
            agg = tbl.group_by(["dst"]).aggregate([("share", "sum")])
            return agg.rename_columns(["dst", "share"])

        contrib = np.zeros(n_nodes, dtype=np.float64)
        for b in pairs.map_batches(
            partial, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow"):
            dst = b.column("dst").to_numpy(zero_copy_only=False)
            share = b.column("share").to_numpy(zero_copy_only=False)
            contrib += np.bincount(
                np.searchsorted(node_ids, dst), weights=share,
                minlength=n_nodes,
            )
        ranks = np.round(teleport + damping * contrib, RANK_DECIMALS)

    out = pa.Table.from_arrays(
        [pa.array(node_ids), pa.array(ranks)], names=["v", "pagerank"]
    )
    return ray.data.from_arrow(out)


def pagerank_serial(
    edge_pairs: "list[tuple[int, int]]", damping: float = 0.85, iters: int = 3
) -> "dict[int, float]":
    """Single-process oracle (tests): same quantized contract."""
    import collections

    adj: "dict[int, list[int]]" = collections.defaultdict(list)
    for u, v in edge_pairs:
        adj[u].append(v)
    nodes = sorted(adj)
    n = len(nodes)
    rank = {v: round(1.0 / n, RANK_DECIMALS) for v in nodes}
    for _ in range(iters):
        contrib: "dict[int, float]" = collections.defaultdict(float)
        for u in nodes:
            share = rank[u] / len(adj[u])
            for v in adj[u]:
                contrib[v] += share
        rank = {
            v: round((1 - damping) / n + damping * contrib[v], RANK_DECIMALS)
            for v in nodes
        }
    return rank


# ---------------------------------------------------------------------------
# BFS hop layers — the reachability primitive beside pagerank
# ---------------------------------------------------------------------------

#: unreached sentinel for the distributed hop-propagation state; 2^62
#: leaves headroom for the per-round ``hop + 1`` without int64 overflow
BFS_INF = int(2**62)


def bfs_source_and_count(edges: "ray.data.Dataset") -> "tuple[int, int]":
    """Highest-degree node (min id on ties) and node count of an
    undirected unique-pair ``(u, v)`` edge dataset — via the engine's
    unbounded-cardinality ``_sum_by_key`` (per-batch combine → ONE
    sort → run-sum), NOT a driver-side dict fold: degrees stay a
    distributed node-sized dataset; only the single argmax row and the
    scalar count ever land on the driver."""

    def both_ones(t: pa.Table) -> pa.Table:
        node = pa.concat_arrays(
            [
                t.column("u").combine_chunks().cast(pa.int64()),
                t.column("v").combine_chunks().cast(pa.int64()),
            ]
        )
        return pa.table(
            {"src": node, "one": pa.array(np.ones(len(node), dtype=np.int64))}
        )

    deg = _sum_by_key(
        edges.map_batches(both_ones, batch_format="pyarrow"),
        "src", "one", "deg",
    ).materialize()
    n_nodes = deg.count()
    if n_nodes == 0:
        return -1, 0
    top = deg.sort(["deg", "src"], descending=[True, False]).limit(1).take_all()
    return int(top[0]["src"]), n_nodes


def bfs_layers(
    edges: "ray.data.Dataset",
    source: "int | None" = None,
    max_hops: int = 3,
    mode: str = "auto",
) -> "ray.data.Dataset":
    """Hop-distance layers (``hop`` ≤ ``max_hops``) from ``source``
    over an UNDIRECTED unique-pair ``(u, v)`` edge dataset →
    ``(node, hop)`` sorted by (hop, node), source at hop 0.

    Two equality-pinned modes, auto-switched at the SAME node bound as
    pagerank (``BROADCAST_NODES_MAX``):

    - ``broadcast`` (node space bounded, e.g. a part catalog): the
      frontier/visited sets ride the object store as sorted id arrays;
      each round is one streaming edge pass (vectorized searchsorted
      membership) plus a node-bounded collect.
    - ``distributed`` (node space corpus-scaled): hop-propagation on
      the sorted-run primitive (``query_utils._window_by_key_arrow``) —
      state ``(node, hop)`` and the per-round neighbor messages
      ``(nbr, hop+1)`` are datasets; each round co-locates state and
      adjacency rows with ONE sort + run-scan (``max.reduceat``
      recovers the state hop; adjacency rows are tagged −1), then a
      min-per-node sort reduces the messages. Rounds are fixed
      (``max_hops``), nothing node-sized lands on the driver.

    An explicit ``source`` absent from the edge set is its own only
    layer (hop 0) in both modes. Requires nonnegative node ids (the −1
    adjacency tag would alias)."""
    if source is not None and source < 0:
        raise ValueError("bfs_layers requires a nonnegative source id")
    edges = edges.materialize()  # loop-invariant pin, as pagerank
    if source is None or mode == "auto":
        src, n_nodes = bfs_source_and_count(edges)
        if source is None:
            source = src
        if mode == "auto":
            mode = (
                "broadcast" if n_nodes <= BROADCAST_NODES_MAX else "distributed"
            )
    if source < 0:  # no source given and the edge table is empty
        return ray.data.from_arrow(_bfs_empty())
    if mode == "broadcast":
        return ray.data.from_arrow(_bfs_broadcast(edges, source, max_hops))
    return _bfs_distributed(edges, source, max_hops)


def _bfs_empty() -> pa.Table:
    return pa.table(
        {"node": pa.array([], pa.int64()), "hop": pa.array([], pa.int64())}
    )


def _bfs_broadcast(edges, source: int, max_hops: int) -> pa.Table:
    """Node-bounded BFS: frontier broadcast once per round via
    ``ray.put``; each round one streaming edge pass with vectorized
    searchsorted membership + per-batch distinct."""
    import ray

    visited = np.array([source], dtype=np.int64)
    layers = [(source, 0)]
    frontier = visited
    for hop in range(1, max_hops + 1):
        fref = ray.put(np.sort(frontier))

        def neighbors(t: pa.Table, _f=fref) -> pa.Table:
            f = ray.get(_f)
            u = t.column("u").to_numpy(zero_copy_only=False)
            v = t.column("v").to_numpy(zero_copy_only=False)
            # undirected: edges store u < v once; expand both ways
            src = np.concatenate([u, v])
            dst = np.concatenate([v, u])
            idx = np.searchsorted(f, src)
            idx[idx >= len(f)] = 0
            hit = f[idx] == src
            return pa.table({"node": pa.array(np.unique(dst[hit]), pa.int64())})

        # bounded collect: ≤ |nodes| rows per batch after the per-batch
        # distinct, ≤ |nodes| total after the driver-side unique
        parts = edges.map_batches(neighbors, batch_format="pyarrow")
        cand = np.array([r["node"] for r in parts.take_all()], dtype=np.int64)
        new = np.setdiff1d(np.unique(cand), visited, assume_unique=False)
        if len(new) == 0:
            break
        layers.extend((int(n), hop) for n in new)
        visited = np.union1d(visited, new)
        frontier = new

    return pa.table(
        {
            "node": pa.array([n for n, _ in layers], pa.int64()),
            "hop": pa.array([h for _, h in layers], pa.int64()),
        }
    ).sort_by([("hop", "ascending"), ("node", "ascending")])


def _min_per_key(ds: "ray.data.Dataset", key: str, val: str) -> "ray.data.Dataset":
    """Min ``val`` per ``key``: ONE sort by (key, val) + first-row-per-run
    scan on the sorted-run primitive; the same scan is the side-channel
    precombine, so a hot key sends one row per block edge."""
    from ..query_utils import _run_starts_mask_arrow, _window_by_key_arrow

    def first_per_run(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return t.take(pa.array(np.flatnonzero(_run_starts_mask_arrow(t, [key]))))

    return _window_by_key_arrow(
        ds, [key], [key, val], first_per_run, precombine=first_per_run
    )


def _bfs_distributed(edges, source: int, max_hops: int) -> "ray.data.Dataset":
    """Corpus-scaled BFS: hop state and neighbor messages as datasets,
    ``max_hops`` rounds of (one co-locating sort + run-scan forward,
    one min-per-node sort). Per round each finite hop extends exactly
    one edge, so after k rounds state(v) = min(bfs_dist(v), reachable
    within k) — no convergence scalar needed for fixed-depth layers."""
    import pyarrow.compute as pc

    from ..query_utils import _pin_blocks, _window_by_key_arrow
    from .banding import run_bounds

    def endpoints(t: pa.Table) -> "tuple[np.ndarray, np.ndarray]":
        u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = t.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        return u, v

    def init_state(t: pa.Table) -> pa.Table:
        u, v = endpoints(t)
        nodes = np.unique(np.concatenate([u, v]))
        if len(nodes) and nodes[0] < 0:
            raise ValueError("bfs_layers requires nonnegative node ids")
        hop = np.where(nodes == source, 0, BFS_INF).astype(np.int64)
        return pa.table({"node": nodes, "hop": hop})

    # the source row is seeded explicitly, so a source absent from the
    # edge set still lands at hop 0 (as in broadcast mode)
    seed = ray.data.from_arrow(
        pa.table({"node": pa.array([source], pa.int64()),
                  "hop": pa.array([0], pa.int64())})
    )
    state = _min_per_key(
        edges.map_batches(init_state, batch_format="pyarrow").union(seed),
        "node", "hop",
    )

    def adj_rows(t: pa.Table) -> pa.Table:
        u, v = endpoints(t)
        return pa.table({
            "node": np.concatenate([u, v]),
            "nbr": np.concatenate([v, u]),
            "hop": np.full(2 * len(u), -1, dtype=np.int64),
        })

    adj = edges.map_batches(adj_rows, batch_format="pyarrow")

    def tag_state(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t.column("node"),
            "nbr": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
            "hop": t.column("hop"),
        })

    def forward(t: pa.Table) -> pa.Table:
        """Per complete node-run: adjacency rows carry hop = −1 and the
        single state row carries the node's current hop (≥ 0), so
        ``max.reduceat`` recovers the state hop regardless of row order
        within the run. Emit (nbr, hop+1) per adjacency row of a
        REACHED node plus (node, hop) for the node itself."""
        if t.num_rows == 0:
            return _bfs_empty()
        nodes = t.column("node").to_numpy(zero_copy_only=False)
        hops = t.column("hop").to_numpy(zero_copy_only=False)
        nbrs = t.column("nbr").to_numpy(zero_copy_only=False)
        starts, ends = run_bounds(nodes)
        run_hop = np.maximum.reduceat(hops, starts)
        my_hop = np.repeat(run_hop, ends - starts)
        send = (nbrs >= 0) & (my_hop < BFS_INF)
        return pa.table({
            "node": np.concatenate([nbrs[send], nodes[starts]]),
            "hop": np.concatenate([my_hop[send] + 1, run_hop]),
        })

    for _ in range(max_hops):
        msgs = _window_by_key_arrow(
            state.map_batches(tag_state, batch_format="pyarrow").union(adj),
            ["node"], ["node", "hop"], forward,
        )
        # _pin_blocks: cut the loop state's logical plan per round
        # (bare materialize compounds the union tree — see query_utils)
        state = _pin_blocks(_min_per_key(msgs, "node", "hop"))

    def finish(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t.column("hop"), BFS_INF)).select(["node", "hop"])

    return state.map_batches(finish, batch_format="pyarrow").sort(
        ["hop", "node"]
    )
