"""Distributed triangle counting over a co-occurrence graph.

Graph-analytics sibling of :mod:`stages.graph` (PageRank): where the
reference ships per-file duplicate *clusters* (rdfind analog,
src/core/analyzer.py dedup surface), a training-data engine also wants
*structural* affinity — triangles / clustering coefficients over a
co-occurrence graph (items sharing a basket, documents sharing a
domain) locate tightly-knit near-duplicate communities that pairwise
similarity misses.

Algorithm: the classic degree-ordered wedge join (Suri &
Vassilvitskii '11 MapReduce triangle counting; same orientation trick
as Chiba–Nishizeki). Orient every undirected edge from its
lower-``(degree, id)`` endpoint to the higher one; each out-degree is
then O(√m), so the only super-linear step — emitting the out-neighbor
pairs ("wedges") of every node — is bounded by Σ C(deg⁺, 2) ≤ O(m^1.5)
instead of Σ C(deg, 2), which a hub node would blow up quadratically.
A triangle {u, v, w} with rank(u) < rank(v) < rank(w) is found exactly
once: as the wedge (v, w) emitted at u, matched against the oriented
edge (v, w).

Physical plan (everything streams; the one pin is the distinct edge
list, reused by three passes — the PageRank "edges pinned
loop-invariant" shape; at 10^12 edges checkpoint it to parquet and
read it three times instead):

1. distinct (basket, item) → per-basket sorted runs → vectorized
   all-pairs emission → distinct (u, v) edges  (``_distinct_native``:
   per-batch Arrow hash-dedup, ONE sort, run-scan)
2. degrees: per-batch ``np.unique`` partials over both endpoints →
   sort + run-sum merge (no per-key aggregate machinery)
3. orient + attach deg(dst): broadcast the (node, degree) table when
   the node space is bounded (sorted arrays + ``searchsorted``, the J2
   pattern) else a ZERO-JOIN doubled-edge two-sort pass (degree = run
   length under each endpoint; see ``_orient_distributed``) —
   auto-switched on a FREE static hint (parquet footer row count of
   the id-space table), never a materialize-and-count barrier
4. wedges: ONE sort by (src, deg_dst, dst) → per-run out-neighbor
   pair emission (run-length-grouped ``np.triu_indices`` gather — no
   Python loop over rows)
5. match: ``query_utils.key_join`` left_semi of the wedges onto the
   oriented edges, (v, w) packed into one int64 key → triangles
6. per-node counts: per-batch unique-count partials over the three
   corners → sort + run-sum merge

Skew note: after orientation the largest wedge emission per node is
C(O(√m), 2) = O(m) — bounded by the graph, not by a hub's raw degree.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..query_utils import (
    _distinct_native,
    _run_starts_mask_arrow,
    _window_by_key_arrow,
    gather,
    key_join,
)

#: above this id-space size the degree attach switches from an
#: object-store broadcast (~16 bytes/node) to the zero-join two-sort
#: pass (``_orient_distributed``)
BROADCAST_NODES_MAX = 2_000_000

#: transient-peak bound for one length-group gather during pair
#: emission (rows × C(L,2) index matrices are sliced to ≤ this many
#: pairs at a time)
_EMIT_CHUNK_PAIRS = 8_000_000

#: guard on the super-linear wedge step: degree-ordered emission is
#: bounded by m^1.5 wedges (Suri & Vassilvitskii), so a FREE count of
#: the (already support-thresholded, already materialized) edge table
#: bounds the job before committing to it. The ``min_support``
#: sparsifier usually keeps m tiny (1.2M → 3.6k at sf0.1), but a skewed
#: corpus where support-k edges stay dense would otherwise silently
#: enter the quadratic regime the threshold exists to prevent — this
#: raises instead. 10^10 wedges ≈ 240 GB of (a, b, wit) rows streamed
#: through the closure step: hours of cluster work, the intend-it
#: boundary. Warn (via ``warnings``) one decade earlier.
WEDGE_BOUND = 10_000_000_000

_PAIR_SCHEMA = pa.schema([("u", pa.int64()), ("v", pa.int64())])
_WEDGE_SCHEMA = pa.schema(
    [("a", pa.int64()), ("b", pa.int64()), ("wit", pa.int64())]
)
_COUNT_SCHEMA = pa.schema([("node", pa.int64()), ("n_triangles", pa.int64())])


def _np_col(t: pa.Table, name: str) -> np.ndarray:
    return t.column(name).to_numpy(zero_copy_only=False)


def _identity(t: pa.Table) -> pa.Table:
    return t


def _compact(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Make a dataset safe to feed ``Dataset.join``: Ray's sort emits a
    zero-COLUMN empty table for an output partition that received no
    rows, ``map_batches(batch_size=None)`` forwards such blocks without
    calling the UDF (so downstream per-batch fns never get a chance to
    restate the schema), and the join's Acero finalize then fails with
    ``No match or multiple matches for key field reference``. A bundled
    identity map (row-count batch_size) rewrites block boundaries,
    absorbing the schema-less empties; it fuses with the upstream stage
    and moves no data across the cluster."""
    return ds.map_batches(_identity, batch_format="pyarrow", batch_size=65536)


def _runs(t: pa.Table, keys: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of key runs in an already-sorted table."""
    mask = _run_starts_mask_arrow(t, keys)
    starts = np.flatnonzero(mask)
    lengths = np.diff(np.append(starts, t.num_rows))
    return starts, lengths


def _emit_run_pairs(
    keys: np.ndarray, vals: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ordered pairs (vals[i], vals[j]), i < j, within each run,
    plus the run's key as witness. Vectorized per distinct run length:
    one ``np.triu_indices`` template gathered across every run of that
    length at once (runs sliced so a single gather stays ≤
    ``_EMIT_CHUNK_PAIRS`` pairs)."""
    outs_w: list[np.ndarray] = []
    outs_u: list[np.ndarray] = []
    outs_v: list[np.ndarray] = []
    for length in np.unique(lengths):
        n = int(length)
        if n < 2:
            continue
        run_starts = starts[lengths == length]
        i_idx, j_idx = np.triu_indices(n, 1)
        per_run = len(i_idx)
        step = max(1, _EMIT_CHUNK_PAIRS // per_run)
        for c in range(0, len(run_starts), step):
            s = run_starts[c : c + step]
            rows_i = (s[:, None] + i_idx[None, :]).ravel()
            rows_j = (s[:, None] + j_idx[None, :]).ravel()
            outs_w.append(keys[rows_i])
            outs_u.append(vals[rows_i])
            outs_v.append(vals[rows_j])
    if not outs_w:
        z = np.empty(0, dtype=np.int64)
        return z, z, z
    return (
        np.concatenate(outs_w),
        np.concatenate(outs_u),
        np.concatenate(outs_v),
    )


def cooccurrence_edges(
    ds: "ray.data.Dataset", key: str, val: str, min_support: int = 1
) -> "ray.data.Dataset":
    """Distinct undirected edges ``(u, v)``, ``u < v``, between values
    co-occurring under the same key (items sharing a basket), kept
    only when they co-occur under at least ``min_support`` distinct
    keys. Input may carry duplicate (key, val) rows; they are deduped
    first so a repeated item never fabricates a self-loop.

    ``min_support=2`` is the frequent-itemset sparsifier that makes
    triangle counting tractable on dense co-occurrence data: random
    one-off co-purchases dominate the raw pair set (1.2M edges over
    20k parts at sf0.1 → avg degree ~120 → O(m^1.5) wedge explosion),
    while repeated pairs are the actual affinity signal (3.6k edges
    at the same tier)."""
    dv = _distinct_native(ds, [key, val])

    def emit(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PAIR_SCHEMA.empty_table()
        starts, lengths = _runs(t, [key])
        # vals ascend within each run (sort is by [key, val] and the
        # rows are distinct), so u < v holds pairwise by construction
        _, u, v = _emit_run_pairs(
            _np_col(t, key), _np_col(t, val), starts, lengths
        )
        return pa.Table.from_arrays(
            [pa.array(u, pa.int64()), pa.array(v, pa.int64())], names=["u", "v"]
        )

    pairs = _window_by_key_arrow(dv, [key], [key, val], emit)
    if min_support <= 1:
        return _distinct_native(pairs, ["u", "v"])

    def support(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _PAIR_SCHEMA.empty_table()
        # one (u, v) row per qualifying pair: runs are per-basket
        # emissions (one per distinct basket containing both), so the
        # run length IS the pair's support
        starts, lengths = _runs(t, ["u", "v"])
        keep = starts[lengths >= min_support]
        return t.take(pa.array(keep)).select(["u", "v"])

    return _window_by_key_arrow(pairs, ["u", "v"], ["u", "v"], support)


def _sum_by_node(part: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """Merge (node, partial) rows into one exact sum per node: ONE sort
    by node + ``np.add.reduceat`` over runs. Unbounded node cardinality
    — no task ever holds the full node space."""

    def sum_runs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("node", pa.int64()), (col, pa.int64())]).empty_table()
        starts, _ = _runs(t, ["node"])
        sums = np.add.reduceat(_np_col(t, col), starts)
        return pa.Table.from_arrays(
            [
                pa.array(_np_col(t, "node")[starts], pa.int64()),
                pa.array(sums.astype(np.int64), pa.int64()),
            ],
            names=["node", col],
        )

    return _window_by_key_arrow(part, ["node"], ["node"], sum_runs)


def _degrees(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(node, deg) over distinct undirected edges."""

    def partial(t: pa.Table) -> pa.Table:
        nodes = np.concatenate([_np_col(t, "u"), _np_col(t, "v")])
        un, cnt = np.unique(nodes, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(un, pa.int64()), pa.array(cnt.astype(np.int64), pa.int64())],
            names=["node", "deg"],
        )

    return _sum_by_node(
        edges.map_batches(partial, batch_format="pyarrow", batch_size=65536), "deg"
    )


def _orient_broadcast(edges, deg) -> "ray.data.Dataset":
    # bounded: ≤ the caller-attested node count
    t = gather(deg, pa.schema([("node", pa.int64()), ("deg", pa.int64())]))
    nodes = t.column("node").to_numpy().astype(np.int64)
    degs = t.column("deg").to_numpy().astype(np.int64)
    order = np.argsort(nodes)
    ref = ray.put((nodes[order], degs[order]))

    def orient(t: pa.Table) -> pa.Table:
        lut_nodes, lut_degs = ray.get(ref)
        u, v = _np_col(t, "u"), _np_col(t, "v")
        du = lut_degs[np.searchsorted(lut_nodes, u)]
        dv = lut_degs[np.searchsorted(lut_nodes, v)]
        return _orient_arrays(u, v, du, dv)

    return edges.map_batches(orient, batch_format="pyarrow")


def _orient_arrays(u, v, du, dv) -> pa.Table:
    """src = lower-(deg, id) endpoint; carries deg(dst) for the wedge
    rank sort."""
    swap = (dv < du) | ((dv == du) & (v < u))
    src = np.where(swap, v, u)
    dst = np.where(swap, u, v)
    ddst = np.where(swap, du, dv)
    return pa.Table.from_arrays(
        [
            pa.array(src.astype(np.int64), pa.int64()),
            pa.array(dst.astype(np.int64), pa.int64()),
            pa.array(ddst.astype(np.int64), pa.int64()),
        ],
        names=["src", "dst", "ddst"],
    )


_SIDED_SCHEMA = pa.schema(
    [
        ("u", pa.int64()),
        ("v", pa.int64()),
        ("side", pa.int64()),
        ("deg", pa.int64()),
    ]
)


def _orient_distributed(edges) -> "ray.data.Dataset":
    """Unbounded-node-space orient: ZERO joins. Two chained
    degree-attach joins would be two full exchanges. Instead:
    double every distinct edge into one row per endpoint and sort by
    endpoint — the RUN LENGTH under an endpoint IS its degree (edges
    are distinct), so the degree table never exists; then one more
    sort by (u, v) re-pairs each edge's two sided rows and orients.
    Two sort passes, no join, no driver state."""

    def double(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _SIDED_SCHEMA.empty_table()
        u, v = _np_col(t, "u"), _np_col(t, "v")
        n = len(u)
        side = np.concatenate(
            [np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)]
        )
        return pa.Table.from_arrays(
            [
                pa.array(np.concatenate([u, u]), pa.int64()),
                pa.array(np.concatenate([v, v]), pa.int64()),
                pa.array(side, pa.int64()),
                pa.array(np.concatenate([u, v]), pa.int64()),
            ],
            names=["u", "v", "side", "node"],
        )

    sided = edges.map_batches(double, batch_format="pyarrow", batch_size=65536)

    def attach_deg(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _SIDED_SCHEMA.empty_table()
        starts, lengths = _runs(t, ["node"])
        deg = np.repeat(lengths, lengths).astype(np.int64)
        return pa.Table.from_arrays(
            [
                t.column("u"),
                t.column("v"),
                t.column("side"),
                pa.array(deg, pa.int64()),
            ],
            names=["u", "v", "side", "deg"],
        )

    with_deg = _window_by_key_arrow(
        sided, ["node"], ["node", "u", "v", "side"], attach_deg
    )

    def pair_orient(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema(
                [
                    ("src", pa.int64()),
                    ("dst", pa.int64()),
                    ("ddst", pa.int64()),
                ]
            ).empty_table()
        # sorted by (u, v, side): rows alternate side 0 (deg(u)) then
        # side 1 (deg(v)) — every (u, v) run has exactly length 2
        deg = _np_col(t, "deg")
        starts = np.arange(0, t.num_rows, 2)
        return _orient_arrays(
            _np_col(t, "u")[starts],
            _np_col(t, "v")[starts],
            deg[starts],
            deg[starts + 1],
        )

    return _window_by_key_arrow(
        with_deg, ["u", "v"], ["u", "v", "side"], pair_orient
    )


def triangle_counts(
    edges: "ray.data.Dataset",
    n_nodes_hint: "int | None" = None,
    broadcast_nodes_max: int = BROADCAST_NODES_MAX,
    wedge_bound: int = WEDGE_BOUND,
) -> "ray.data.Dataset":
    """Per-node triangle counts ``(node, n_triangles)`` over distinct
    undirected ``(u, v)`` edges (``u < v``); nodes in no triangle are
    absent. ``n_nodes_hint`` is a FREE static upper bound on the id
    space (e.g. a parquet footer row count) choosing broadcast vs join
    degree attach; ``None`` counts the small degree table instead.
    Raises ``ValueError`` when the m^1.5 wedge bound of the (post-
    sparsifier) edge table exceeds ``wedge_bound`` — see WEDGE_BOUND."""
    # _compact: edges built via _distinct_native carry sort-produced
    # schema-less empty blocks that would poison the hash join below
    edges = _compact(edges).materialize()  # reused by 3 passes (PageRank shape)
    n_edges = edges.count()  # materialized: metadata-cheap
    est_wedges = int(n_edges**1.5)
    if est_wedges > wedge_bound:
        raise ValueError(
            f"triangle_counts: {n_edges} post-threshold edges bound "
            f"{est_wedges} wedges > wedge_bound={wedge_bound}; the "
            "support sparsifier did not tame this graph — raise "
            "min_support (or wedge_bound if the cluster can take it)"
        )
    if est_wedges > wedge_bound // 10:
        import warnings

        warnings.warn(
            f"triangle_counts: {n_edges} edges bound {est_wedges} wedges "
            f"(within 10x of wedge_bound={wedge_bound}); the wedge step "
            "will dominate this job",
            RuntimeWarning,
            stacklevel=2,
        )
    if n_nodes_hint is None:
        n_nodes_hint = _degrees(edges).count()
    if n_nodes_hint <= broadcast_nodes_max:
        oriented = _orient_broadcast(edges, _degrees(edges))
    else:
        # oriented is consumed twice below (wedge side + edge side);
        # pin the two-sort product once instead of replaying both sorts
        oriented = _orient_distributed(edges).materialize()

    def emit_wedges(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _WEDGE_SCHEMA.empty_table()
        starts, lengths = _runs(t, ["src"])
        # dst ascends in rank (deg, id) within each run — the pair
        # (a, b) therefore matches the oriented edge's (src, dst) order
        wit, a, b = _emit_run_pairs(
            _np_col(t, "src"), _np_col(t, "dst"), starts, lengths
        )
        return pa.Table.from_arrays(
            [
                pa.array(a, pa.int64()),
                pa.array(b, pa.int64()),
                pa.array(wit, pa.int64()),
            ],
            names=["a", "b", "wit"],
        )

    wedges = _compact(
        _window_by_key_arrow(oriented, ["src"], ["src", "ddst", "dst"], emit_wedges)
    )

    def tri_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _COUNT_SCHEMA.empty_table()
        corners = np.concatenate(
            [_np_col(t, c) for c in ("a", "b", "wit")]
        )
        un, cnt = np.unique(corners, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(un, pa.int64()), pa.array(cnt.astype(np.int64), pa.int64())],
            names=["node", "n_triangles"],
        )

    # Closure check: a wedge (a, b) closes iff (a, b) is an oriented
    # edge. Both sides pack (src, dst) into one int64 key (ids < 2³¹);
    # the oriented edges are distinct, so the semi join keeps each
    # closing wedge once. 8 bytes per edge: below key_join's bound the
    # packed edge keys broadcast and no exchange runs.
    def pack_wedge(t: pa.Table) -> pa.Table:
        return t.append_column(
            "k", pa.array(_np_col(t, "a") * (1 << 32) + _np_col(t, "b"), pa.int64())
        )

    def pack_edge(t: pa.Table) -> pa.Table:
        k = _np_col(t, "src") * (1 << 32) + _np_col(t, "dst")
        return pa.Table.from_arrays([pa.array(k, pa.int64())], ["k"])

    tri = key_join(
        wedges.map_batches(pack_wedge, batch_format="pyarrow"),
        oriented.map_batches(pack_edge, batch_format="pyarrow"),
        on="k", how="left_semi", broadcast_bytes=8 * n_edges,
    )

    part = tri.map_batches(tri_partial, batch_format="pyarrow", batch_size=65536)
    return _sum_by_node(part, "n_triangles")
