"""graph-family queries (pagerank, components, BFS layers) over
the part co-occurrence graph — split from queries.py r5 (VERDICT r4
item 5); registry assembly stays in queries.py."""

from __future__ import annotations

import json as _json  # noqa: F401

import numpy as np  # noqa: F401
import pandas as pd  # noqa: F401
import pyarrow as pa  # noqa: F401
import pyarrow.compute as pc  # noqa: F401

import ray  # noqa: F401
import ray.data  # noqa: F401

from .query_utils import (_cents, _preagg_native, _read,  # noqa: F401
                          _read_coalesced, _small_pdf,
                          read_parquet_clean)


def q_graph_pagerank(sf_dir: str):
    """Distributed PageRank (graph centrality) over the customer↔
    supplier trade graph: orders ⋈ lineitem gives DISTINCT (custkey,
    suppkey) edges (suppliers offset by 1_000_000 into the shared node
    id space), expanded undirected so no node dangles; 3 quantized
    iterations (stages/graph.py — rank vector flows as a dataset, one
    hash join + one sum-by-key per iteration, never a driver adjacency
    structure). The edge build auto-switches on the orders row count
    (parquet footer, free): below the broadcast bound the orderkey→
    custkey map rides the object store once (sorted arrays +
    searchsorted, the J2 pattern) and lineitem streams map-side; above
    it, a hash-partitioned Dataset.join. The DuckDB oracle replays the
    SAME quantized updates as unrolled CTEs."""
    from .query_utils import _distinct_native, _meta_rows
    from .stages.graph import pagerank

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    # ~16 bytes/row broadcast: 5M orders ≈ 80 MB, comfortably object-store
    if _meta_rows(sf_dir, "orders") <= 5_000_000:
        o = _small_pdf(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        okey = o["o_orderkey"].to_numpy()
        order = np.argsort(okey)
        ref = ray.put((okey[order], o["o_custkey"].to_numpy()[order]))

        def to_edge(t: pa.Table) -> pa.Table:
            keys, custs = ray.get(ref)
            lkey = t.column("l_orderkey").to_numpy(zero_copy_only=False)
            supp = t.column("l_suppkey").to_numpy(zero_copy_only=False)
            cust = custs[np.searchsorted(keys, lkey)]
            return pa.Table.from_arrays(
                [pa.array(cust.astype(np.int64)),
                 pa.array((supp + 1_000_000).astype(np.int64))],
                names=["c", "s"],
            )

        pairs = li.map_batches(to_edge, batch_format="pyarrow")
    else:
        orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        joined = orders.join(
            li, join_type="inner", num_partitions=16,
            on=("o_orderkey",), right_on=("l_orderkey",),
        )

        def to_edge_joined(t: pa.Table) -> pa.Table:
            supp = t.column("l_suppkey").to_numpy(zero_copy_only=False)
            return pa.Table.from_arrays(
                [t.column("o_custkey"),
                 pa.array((supp + 1_000_000).astype(np.int64))],
                names=["c", "s"],
            )

        pairs = joined.map_batches(to_edge_joined, batch_format="pyarrow")

    base = _distinct_native(pairs, ["c", "s"])
    # node space = customers + suppliers, bounded and KNOWN from footer
    # metadata — below the broadcast bound, iterate the UNDIRECTED
    # pairs directly (each pass reads half the rows; no expanded edge
    # list is ever materialized; bit-equality with the expanded
    # broadcast path is pytest-pinned)
    n_nodes_max = _meta_rows(sf_dir, "customer") + _meta_rows(sf_dir, "supplier")
    if n_nodes_max <= 500_000:
        from .stages.graph import pagerank_undirected_pairs

        return pagerank_undirected_pairs(
            base, damping=0.85, iters=3, cols=("c", "s")
        )

    def expand(t: pa.Table) -> pa.Table:
        c, s = t.column("c"), t.column("s")
        return pa.Table.from_arrays(
            [
                pa.chunked_array([c, s]).combine_chunks(),
                pa.chunked_array([s, c]).combine_chunks(),
            ],
            names=["src", "dst"],
        )

    edges = base.map_batches(expand, batch_format="pyarrow")
    return pagerank(edges, damping=0.85, iters=3, mode="auto")

def _build_sql_graph_pagerank(damping: float = 0.85, iters: int = 3) -> str:
    """Unrolled-iteration PageRank oracle; quantization contract shared
    with stages/graph.py (round 8 after init and every update)."""
    parts = [f"""WITH e0 AS (
  SELECT DISTINCT o.o_custkey AS c, 1000000 + l.l_suppkey AS s
  FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
),
edges AS (
  SELECT c AS src, s AS dst FROM e0
  UNION ALL SELECT s AS src, c AS dst FROM e0
),
deg AS (SELECT src, count(*) AS d FROM edges GROUP BY src),
nn AS (SELECT count(*) AS n FROM deg),
r0 AS (SELECT src AS v, round(1.0 / (SELECT n FROM nn), 8) AS r FROM deg)"""]
    for i in range(1, iters + 1):
        parts.append(f"""r{i} AS (
  SELECT v, round((SELECT (1 - {damping}) / n FROM nn)
                  + {damping} * contrib, 8) AS r
  FROM (
    SELECT e.dst AS v, sum(p.r / d.d) AS contrib
    FROM edges e
    JOIN r{i - 1} p ON p.v = e.src
    JOIN deg d ON d.src = e.src
    GROUP BY e.dst
  )
)""")
    return ",\n".join(parts) + f"\nSELECT v, r AS pagerank FROM r{iters}\n"

SQL_GRAPH_PAGERANK = _build_sql_graph_pagerank()

def q_graph_components(sf_dir: str):
    """Weakly connected components of the part co-occurrence graph
    (same support-≥2 edge set as graph_triangles) — the graph family's
    third member beside pagerank (influence) and triangles (cohesion):
    components answer "which catalog regions are one connected market".
    Ray shape: alternating large-star/small-star contraction
    (stages/text_dedup.py cc_star_contraction, Kiveris et al. SoCC'14
    — per round ONE adjacency sort + run-scan rewiring + a global edge
    dedup, O(log) rounds; nothing corpus-sized ever lands on the
    driver). The part co-occurrence giant component is sparse and
    HIGH-DIAMETER (~50 at sf0.01), where min-label propagation pays
    rounds ∝ diameter — measured 11 min vs tens of seconds for this
    form (pinned against brute-force union-find in pytest). Output: one row per component (label = min
    part id), size DESC. The DuckDB oracle runs min-label propagation
    as a pruned recursive CTE (labels travel only while smaller than
    the receiving node — node×labels-bounded, never full reach)."""
    from .stages.text_dedup import cc_star_contraction
    from .stages.triangles import cooccurrence_edges

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey", min_support=2)

    def as_pairs(t: pa.Table) -> pa.Table:
        return t.rename_columns(["doc_id_a", "doc_id_b"])

    labels = cc_star_contraction(
        edges.select_columns(["u", "v"]).map_batches(
            as_pairs, batch_format="pyarrow"
        )
    )

    def partial_sizes(t: pa.Table) -> pa.Table:
        g = t.group_by(["label"]).aggregate([([], "count_all")])
        return g.rename_columns(["component", "n_nodes"])

    sizes = (
        labels.map_batches(partial_sizes, batch_format="pyarrow")
        .groupby("component")
        .aggregate(ray.data.aggregate.Sum("n_nodes", alias_name="n_nodes"))
    )
    return sizes.sort(["n_nodes", "component"], descending=[True, False])

SQL_GRAPH_COMPONENTS = """
WITH RECURSIVE op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e0 AS (
  SELECT a.l_partkey AS u, b.l_partkey AS v
  FROM op a JOIN op b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
  HAVING count(*) >= 2
),
edges AS (SELECT u, v FROM e0 UNION SELECT v, u FROM e0),
-- min-label propagation, not transitive closure: a label travels to a
-- neighbor only while smaller than it (the component min m < every
-- other member, so m still reaches all of them), keeping the fixpoint
-- node x labels-bounded where full reach(a, b) is quadratic in
-- component size (the r4 artifact run ground >10 min on it at sf0.01;
-- this form: ~1.4 s)
lp(node, label) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, lp.label FROM lp JOIN edges e ON lp.node = e.u
  WHERE lp.label < e.v
),
labels AS (SELECT node, min(label) AS label FROM lp GROUP BY node)
SELECT label AS component, count(*) AS n_nodes
FROM labels GROUP BY label
ORDER BY n_nodes DESC, component
"""

def q_graph_bfs_layers(sf_dir: str):
    """Multi-source-free BFS: hop-distance layers (≤ 3 hops) from the
    highest-degree hub of the part co-occurrence graph — the reachability
    primitive beside pagerank (influence), triangles (cohesion) and
    components (partition). Ray shape (stages/graph.py:bfs_layers): the
    corpus-sized edge table is materialized ONCE and re-scanned per
    round (pagerank's loop-invariant pin); source selection folds
    degrees through the engine's sort-based ``_sum_by_key`` (a
    distributed node-sized dataset — only the argmax row lands on the
    driver); the iteration auto-switches at ``BROADCAST_NODES_MAX``
    exactly like pagerank: node-bounded catalogs ride the object store
    as sorted frontier arrays (one streaming edge pass per round),
    corpus-scaled node spaces run hop-propagation on the engine's
    sorted-run primitive (state and messages as datasets, one
    co-locating sort + run-scan per round; equality-pinned against
    the broadcast path in pytest). Rounds are fixed (3), not
    data-driven. The DuckDB oracle walks the same graph with a
    recursive CTE (dedup-union keeps it node×hop bounded)."""
    from .stages.graph import bfs_layers
    from .stages.triangles import cooccurrence_edges

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey", min_support=2)
    return bfs_layers(edges, source=None, max_hops=3, mode="auto")

SQL_GRAPH_BFS_LAYERS = """
WITH RECURSIVE op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e0 AS (
  SELECT a.l_partkey AS u, b.l_partkey AS v
  FROM op a JOIN op b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
  HAVING count(*) >= 2
),
edges AS (SELECT u, v FROM e0 UNION SELECT v, u FROM e0),
src AS (
  SELECT u AS s FROM edges GROUP BY u
  ORDER BY count(*) DESC, u LIMIT 1
),
walk(node, hop) AS (
  SELECT s, 0 FROM src
  UNION
  SELECT e.v, w.hop + 1 FROM walk w JOIN edges e ON e.u = w.node
  WHERE w.hop < 3
)
SELECT node, CAST(min(hop) AS BIGINT) AS hop
FROM walk GROUP BY node ORDER BY hop, node
"""
