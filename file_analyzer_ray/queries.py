"""Driver-facing query registry: one entry per implemented operator
family from SURVEY.md §2, each exercised over the driver's parquet
tables (TESTDATA.md) with a DuckDB-equivalent oracle where SQL can
express the semantics.

Cross-engine float discipline (so the driver's value-hash matches):

- per-row arithmetic on identical inputs (ratios, products) is left
  UNROUNDED — both engines produce bit-identical doubles;
- sums over 2-decimal money columns go through an integer-cents cast
  (``CAST(round(x*100) AS BIGINT)``) so the aggregate is exact and
  order-independent, then divide by 100.0 at the end (identical double
  both sides); integer-valued doubles (quantities) sum exactly as-is;
- only genuinely order-dependent float aggregates (e.g. mean of
  irrational norms) are rounded, to 4 decimals.

Every Ray implementation is a streaming Dataset plan: column-pruned
reads, vectorized batch kernels, partial aggregation before the
shuffle, equi-joins through ``query_utils.key_join`` (small right sides
broadcast once, lookup per block).
"""

from __future__ import annotations

import json as _json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .query_utils import (_cents, _meta_rows, _preagg_native,  # noqa: F401
                          _read, gather, key_join, read_parquet_clean)

# family modules (split r5): star-import re-exposes every public q_* /
# SQL_* name so the registries below and external imports
# (`from .queries import q_...`) keep working unchanged
from .queries_events import *  # noqa: F401,F403
from .queries_docs import *  # noqa: F401,F403
from .queries_embeddings import *  # noqa: F401,F403
from .queries_extract import *  # noqa: F401,F403
from .queries_graph import *  # noqa: F401,F403
from .queries_docs import _sql_langid_case, _sql_langid_scores  # noqa: F401

# ---------------------------------------------------------------------------
# helpers


# ---------------------------------------------------------------------------
# TPC-H-ish relational operators (filters / projections / aggregates /
# sorts / joins) — A1-A6, S2, O1-O2, J1-J2 analogs


def q_lineitem_pricing_summary(sf_dir: str):
    """Grouped aggregate with partial pre-aggregation (A1/A5 analog)."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    )
    cutoff = pd.Timestamp("1998-09-02")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] <= cutoff]
        if df.empty:
            return pd.DataFrame(
                columns=["l_returnflag", "l_linestatus", "qty", "base_cents",
                         "disc_cents4", "n"]
            )
        out = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "qty": df["l_quantity"],
                "base_cents": _cents(df["l_extendedprice"]),
                "disc_cents4": np.round(
                    (df["l_extendedprice"] * (1 - df["l_discount"])).to_numpy() * 10000
                ).astype(np.int64),
                "n": 1,
            }
        )
        return out.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()

    from ray.data.aggregate import Sum

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        n = df["sum(n)"]
        return pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["sum(qty)"].astype(float),
                "sum_base_price": df["sum(base_cents)"] / 100.0,
                "sum_disc_price": df["sum(disc_cents4)"] / 10000.0,
                "avg_qty": df["sum(qty)"].astype(float) / n,
                "avg_price": df["sum(base_cents)"] / 100.0 / n,
                "count_order": n.astype("int64"),
            }
        )

    return _preagg_native(
        ds,
        ["l_returnflag", "l_linestatus"],
        partial,
        [Sum("qty"), Sum("base_cents"), Sum("disc_cents4"), Sum("n")],
        finalize,
    )


SQL_LINEITEM_PRICING = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_base_price,
       CAST(sum(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)) AS BIGINT) / 10000.0 AS sum_disc_price,
       sum(l_quantity) / count(*) AS avg_qty,
       CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT) / 100.0 / count(*) AS avg_price,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def q_lineitem_filter_project(sf_dir: str):
    """Vectorized filter + projection + computed column (S2/M analog):
    unrounded per-row product is bit-identical across engines."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    )

    def fn(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1997-01-01"))),
                pc.greater(t["l_discount"], pa.scalar(0.05)),
            ),
            pc.less(t["l_quantity"], pa.scalar(25.0)),
        )
        t = t.filter(mask)
        revenue = pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
        return pa.Table.from_arrays(
            [t["l_orderkey"], t["l_linenumber"], revenue],
            names=["l_orderkey", "l_linenumber", "revenue"],
        )

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_LINEITEM_FILTER = """
SELECT l_orderkey, l_linenumber, l_extendedprice * (1 - l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1997-01-01' AND l_discount > 0.05 AND l_quantity < 25
"""


def q_orders_topk(sf_dir: str):
    """Global sort + limit (O1/O2 analog), deterministic tie-break."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


SQL_ORDERS_TOPK = """
SELECT o_orderkey, o_totalprice, o_orderdate
FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def q_customer_order_revenue(sf_dir: str):
    """Dimension join (J2 analog): orders ``key_join`` the customer
    segment (~24 bytes per customer from the parquet footer, so the
    dimension broadcasts below the join bound), then pre-aggregate."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    ds = key_join(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]), cust,
        on="o_custkey", right_on="c_custkey", how="inner",
        broadcast_bytes=24 * _meta_rows(sf_dir, "customer"),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"mktsegment": df["c_mktsegment"], "cents": _cents(df["o_totalprice"]), "n": 1}
        )
        return out.groupby("mktsegment", as_index=False).sum()

    from ray.data.aggregate import Sum

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "mktsegment": df["mktsegment"],
                "n_orders": df["sum(n)"].astype("int64"),
                "total_price": df["sum(cents)"] / 100.0,
            }
        )

    return _preagg_native(ds, ["mktsegment"], partial, [Sum("cents"), Sum("n")], finalize)


SQL_CUSTOMER_ORDER_REVENUE = """
SELECT c.c_mktsegment AS mktsegment, count(*) AS n_orders,
       CAST(sum(CAST(round(o.o_totalprice*100) AS BIGINT)) AS BIGINT) / 100.0 AS total_price
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


def q_supplier_lineitem_agg(sf_dir: str):
    """Per-supplier revenue: pre-aggregated groupby on a fact table key."""
    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_quantity", "l_extendedprice", "l_discount"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "l_suppkey": df["l_suppkey"],
                "qty": df["l_quantity"],
                "rev4": np.round(
                    (df["l_extendedprice"] * (1 - df["l_discount"])).to_numpy() * 10000
                ).astype(np.int64),
                "n": 1,
            }
        )
        return out.groupby("l_suppkey", as_index=False).sum()

    from ray.data.aggregate import Sum

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_suppkey": df["l_suppkey"].astype("int64"),
                "n_items": df["sum(n)"].astype("int64"),
                "sum_qty": df["sum(qty)"].astype(float),
                "revenue": df["sum(rev4)"] / 10000.0,
            }
        )

    from .query_utils import _meta_rows

    return _preagg_native(
        ds, ["l_suppkey"], partial, [Sum("qty"), Sum("rev4"), Sum("n")], finalize,
        input_rows=_meta_rows(sf_dir, "lineitem"),
    )


SQL_SUPPLIER_LINEITEM_AGG = """
SELECT l_suppkey, count(*) AS n_items, sum(l_quantity) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)) AS BIGINT) / 10000.0 AS revenue
FROM lineitem GROUP BY l_suppkey
"""


def q_part_fuzzy_match(sf_dir: str):
    """Blocked fuzzy record linkage over part names (the entity-merge
    primitive of catalog / crawl dedup; reference analog: the tag and
    filename normalization family, src/core/analyzer.py). Ray shape:
    distinct-name compression (bounded-key combiner aggregate) →
    token blocking via ONE sort + vectorized within-run pair gen →
    pairwise Levenshtein DP vectorized ACROSS pairs (numpy cube) →
    integer similarity gate. Blocking (>= 1 shared token) is part of
    the spec; the DuckDB oracle applies the identical predicate, so
    equality is exact (all-integer output)."""
    from .stages.fuzzy import fuzzy_name_matches

    ds = _read(sf_dir, "part", ["p_name"])
    return fuzzy_name_matches(ds, "p_name", threshold_pct=60)


SQL_PART_FUZZY_MATCH = """
WITH names AS (
  SELECT p_name AS name, COUNT(*) AS n_rows FROM part GROUP BY p_name
),
toks AS (
  SELECT name, n_rows, list_distinct(string_split(name, ' ')) AS ts
  FROM names
)
SELECT a.name AS name_a, b.name AS name_b,
       CAST(levenshtein(a.name, b.name) AS BIGINT) AS lev,
       CAST((100 * (greatest(len(a.name), len(b.name))
                    - levenshtein(a.name, b.name)))
            // greatest(len(a.name), len(b.name)) AS BIGINT) AS sim_pct,
       a.n_rows AS n_rows_a, b.n_rows AS n_rows_b
FROM toks a, toks b
WHERE a.name < b.name
  AND len(list_intersect(a.ts, b.ts)) >= 1
  AND 100 * (greatest(len(a.name), len(b.name))
             - levenshtein(a.name, b.name))
      >= 60 * greatest(len(a.name), len(b.name))
"""


def q_bucketed_customer_revenue(sf_dir: str):
    """customer_order_revenue computed THROUGH the bucketed layout
    (state/bucketed.py): both tables hash-bucketed by custkey once into
    a ``guard.build_once`` layout keyed on the input CONTENT (reruns
    reuse it; regenerated parquet under the same sf_dir gets a fresh
    one — a path-only tag silently joined stale bucket data, ADVICE r2),
    then an exchange-free bucket-local join feeds the standard two-level
    aggregation. Same oracle SQL as the broadcast-join variant, so the
    value-hash pins the layout's correctness end-to-end."""
    from ray.data.aggregate import Sum

    from .state.bucketed import bucketed_join, write_bucketed
    from .state.guard import build_once

    nb = 16

    def make(tmp: str) -> None:
        write_bucketed(_read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
                       f"{tmp}/orders", "o_custkey", nb)
        write_bucketed(_read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
                       f"{tmp}/customer", "c_custkey", nb)

    base = build_once(
        "bucketed", [f"{sf_dir}/{t}.parquet" for t in ("orders", "customer")],
        make, extra=(nb,),
    )
    od, cd = base + "/orders", base + "/customer"
    joined = bucketed_join(
        od, cd, "o_custkey", "c_custkey", nb,
        columns_a=["o_custkey", "o_totalprice"],
        columns_b=["c_custkey", "c_mktsegment"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"mktsegment": df["c_mktsegment"], "cents": _cents(df["o_totalprice"]), "n": 1}
        )
        return out.groupby("mktsegment", as_index=False).sum()

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "mktsegment": df["mktsegment"],
                "n_orders": df["sum(n)"].astype("int64"),
                "total_price": df["sum(cents)"] / 100.0,
            }
        )

    return _preagg_native(joined, ["mktsegment"], partial, [Sum("cents"), Sum("n")], finalize)


def q_training_prep(sf_dir: str):
    """Flagship training-data prep composition (pipelines/prep.py):
    quality+language gate -> exact dedup -> minhash near-dup removal ->
    BPE token budget. Oracle-checked end-to-end: the DuckDB oracle
    recomputes the whole composition (token gate, stopword langid,
    md5-of-normalized fingerprint keep-min-doc_id dedup, exact-Jaccard
    char-5-shingle near-dup b-side drop, BPE pre-tokenizer count) —
    the LSH banding stage has exact recall on the driver tiers, which
    the hash equality itself certifies; pytest additionally asserts the
    pipeline invariants at every tier."""
    from .pipelines.prep import training_prep_pipeline

    return training_prep_pipeline(sf_dir)


def _build_sql_training_prep() -> str:
    """The full prep composition in one DuckDB statement, built from
    the same score/case fragments as SQL_DOCS_LANGID (single source of
    truth for the language profiles)."""
    tk, scores = _sql_langid_scores("text")
    bpe = (
        r"len(list_filter(regexp_extract_all(e.text, "
        r"'''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+'), "
        r"x -> NOT regexp_matches(x, '^\s+$')))"
    )
    return f"""
WITH gated AS (
  SELECT doc_id, text,
         lower(trim(regexp_replace(text, '[\t\n\f\r ]+', ' ', 'g'))) AS norm
  FROM documents
  WHERE length(text) > 0
    AND len(regexp_extract_all(text, '[A-Za-z0-9]+')) BETWEEN 5 AND 100000
),
tk AS (
  SELECT doc_id, {tk} FROM gated
),
sc AS (
  SELECT doc_id, _tk,
    {scores}
  FROM tk
),
lp AS (
  SELECT doc_id,
         {_sql_langid_case()} AS lang_pred
  FROM sc
),
g2 AS (
  SELECT g.doc_id, g.text, g.norm, lp.lang_pred, md5(g.norm) AS fingerprint
  FROM gated g JOIN lp USING (doc_id)
  WHERE lp.lang_pred IN ('en', 'und')
),
exact AS (
  SELECT * FROM g2
  QUALIFY row_number() OVER (PARTITION BY fingerprint ORDER BY doc_id) = 1
),
shl AS (
  SELECT doc_id, list(DISTINCT substr(norm, i, 5)) AS sh
  FROM exact, lateral (SELECT unnest(generate_series(1, greatest(length(norm) - 4, 1))) AS i)
  GROUP BY doc_id
),
dropb AS (
  SELECT DISTINCT b.doc_id AS doc_id
  FROM shl a JOIN shl b ON a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
        / (len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh))) >= 0.8
)
SELECT e.doc_id, e.text, e.lang_pred, e.fingerprint,
       {bpe} AS n_bpe_tokens
FROM exact e
WHERE e.doc_id NOT IN (SELECT doc_id FROM dropb)
"""
SQL_TRAINING_PREP = _build_sql_training_prep()


# ---------------------------------------------------------------------------
# registry

QUERIES = {
    "lineitem_pricing_summary": q_lineitem_pricing_summary,
    # lineitem_filter_project retired from the driver registry (50-entry
    # cap): pruned-read + filter + project is exercised inside nearly
    # every other ✓SQL query; the slot funds the dup-span masker below.
    "docs_dup_spans": q_docs_dup_spans,
    # orders_topk retired from the driver registry (50-entry cap): the
    # sort+limit family stays exercised by docs_top_terms_per_lang /
    # the kNN merges and ✓SQL in pytest via RETIRED_QUERIES; the slot
    # funds the cross-source overlap audit.
    "docs_source_overlap": q_docs_source_overlap,
    # customer_order_revenue retired from the driver registry (50-entry
    # cap): bucketed_customer_revenue pins the IDENTICAL oracle through
    # the richer physical path (write-once bucketing + exchange-free
    # join); ✓SQL in pytest via RETIRED_QUERIES. The slot funds
    # PageRank — a graph-centrality family the registry lacked.
    "graph_pagerank": q_graph_pagerank,
    # supplier_lineitem_agg retired from the driver registry (50-entry
    # cap): the join+groupby family keeps pricing_summary /
    # customer_order_revenue / orders_lineitem_join_agg green; ✓SQL in
    # pytest via RETIRED_QUERIES. The slot funds the north-rule
    # layout parser.
    "docs_layout_parse": q_docs_layout_parse,
    "events_type_stats": q_events_type_stats,
    "events_hourly_rollup": q_events_hourly_rollup,
    # events_hopping_rollup retired from the driver registry (50-entry
    # cap): the windowed-rollup family keeps four green entries (hourly,
    # rolling-1h, sessionize, as-of); the slot funds incremental dedup.
    "docs_incremental_dedup": q_docs_incremental_dedup,
    # events_clicks_before_purchase retired from the driver registry
    # (50-entry cap): the temporal-join family keeps events_asof_purchase
    # and events_sessionize green; ✓SQL in pytest via RETIRED_QUERIES.
    # The slot funds the PII scrubber.
    "docs_pii_scrub": q_docs_pii_scrub,
    "events_dow_type_cube": q_events_dow_type_cube,
    "events_sessionize": q_events_sessionize,
    "events_props_extract": q_events_props_extract,
    # exact + sketch percentiles verify through ONE entry: the
    # self-verifying query emits the exact per-group quantiles (from
    # q_events_value_percentiles) plus the sketch-in-bound flag, so a
    # single driver row covers both operators (50-entry driver cap).
    "events_value_percentiles": q_events_value_percentiles_approx,
    "events_approx_users": q_events_approx_users,
    # docs_token_stats retired from the driver registry (50-entry cap):
    # token counting is pinned inside docs_bpe_tokens / docs_top_terms
    # and stays ✓SQL in pytest via RETIRED_QUERIES; the slot funds the
    # learned quality classifier.
    "docs_quality_classifier": q_docs_quality_classifier,
    # docs_quality (heuristic ratios) retired from the driver registry
    # (50-entry cap): the quality family keeps the learned classifier
    # entry; ratios stay ✓SQL in pytest via RETIRED_QUERIES. The slot
    # funds the north-rule main-content extractor.
    "docs_main_content": q_docs_main_content,
    "docs_length_by_lang": q_docs_length_by_lang,
    "docs_top_terms_per_lang": q_docs_top_terms_per_lang,
    "docs_exact_dedup": q_docs_exact_dedup,
    # docs_fingerprint retired from the driver registry (50-entry cap):
    # the md5-of-normalized fingerprint is pinned inside training_prep's
    # oracle; the slot funds the perplexity filter below.
    "docs_perplexity": q_docs_perplexity,
    "docs_signature_scan": q_docs_signature_scan,
    "docs_langid": q_docs_langid,
    "docs_bpe_tokens": q_docs_bpe_tokens,
    "bucketed_customer_revenue": q_bucketed_customer_revenue,
    "training_prep": q_training_prep,
    "docs_minhash_near_dup": q_docs_minhash_near_dup,
    "docs_ngram_dedup": q_docs_ngram_dedup,
    "embeddings_knn": q_embeddings_knn,
    "embeddings_label_stats": q_embeddings_label_stats,
    "embeddings_knn_ivf": q_embeddings_knn_ivf,
    "embeddings_cosine_near_dup": q_embeddings_cosine_near_dup,
    # embeddings_lsh_near_dup retired from the driver registry (50-entry
    # cap): the LSH code path is exercised by embeddings_cosine_near_dup's
    # auto-switch above EXACT_PAIRS_MAX_ROWS and stays ✓SQL in pytest via
    # RETIRED_QUERIES; the slot funds SemDeDup below.
    "embeddings_semdedup": q_embeddings_semdedup,
    "docs_simhash_near_dup": q_docs_simhash_near_dup,
    "docs_decontaminate": q_docs_decontaminate,
    "media_features": q_media_features,
    "extract_spans": q_extract_spans,
    "extract_dedup_clusters": q_extract_dedup_clusters,
    "extract_carve": q_extract_carve,
    "extract_pairwise_compare": q_extract_pairwise_compare,
}

def _merge_registries() -> None:
    """Fold in the join/window/set-op registry (queries_joins.py) —
    kept in a sibling module so each file stays reviewable."""
    from . import queries_joins as qj

    QUERIES.update(qj.JOIN_QUERIES)
    ORACLE_SQL.update(qj.JOIN_ORACLE_SQL)


def q_lineitem_small_order_revenue(sf_dir: str):
    """TPC-H Q17 analog (correlated aggregate subquery, decorrelated):
    revenue from line items whose quantity is below HALF the average
    quantity of their own part. The textbook plan is agg + self-join;
    here BOTH the per-part average and the qualifying rollup come out
    of ONE sort by partkey — each complete part run computes its sum
    and its below-threshold members in the same vectorized pass, so
    the corpus crosses the exchange exactly once and there is no join
    at all. The threshold test is exact integer arithmetic
    (2·n·qty < Σqty — quantities are integer-valued, sums < 2⁵³), so
    no float-ulp row can flip between engines; revenue folds in cents."""
    from .query_utils import _run_starts_mask_arrow, _window_by_key_arrow

    ds = _read(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]
    )

    def fold(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "l_partkey": pa.array([], pa.int64()),
                "n_small": pa.array([], pa.int64()),
                "small_revenue": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["l_partkey"]))
        n = t.num_rows
        lens = np.diff(np.append(starts, n))
        run_of = np.searchsorted(starts, np.arange(n), side="right") - 1
        qty = t.column("l_quantity").to_numpy()
        cents = np.rint(t.column("l_extendedprice").to_numpy() * 100.0)
        qsum = np.bincount(run_of, weights=qty, minlength=len(starts))
        small = 2.0 * lens[run_of] * qty < qsum[run_of]
        n_small = np.bincount(
            run_of, weights=small.astype(np.float64), minlength=len(starts)
        ).astype(np.int64)
        rev = np.bincount(
            run_of, weights=np.where(small, cents, 0.0), minlength=len(starts)
        )
        keep = n_small > 0
        idx = pa.array(starts[keep])
        return pa.table(
            {
                "l_partkey": t.column("l_partkey").take(idx),
                "n_small": pa.array(n_small[keep], pa.int64()),
                "small_revenue": pa.array(rev[keep] / 100.0, pa.float64()),
            }
        )

    return _window_by_key_arrow(
        ds, ["l_partkey"], ["l_partkey"], fold
    ).sort("l_partkey")


SQL_LINEITEM_SMALL_ORDER_REVENUE = """
WITH a AS (
  SELECT l_partkey, count(*) AS n, sum(l_quantity) AS s
  FROM lineitem GROUP BY 1
)
SELECT l.l_partkey, count(*) AS n_small,
       sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)) / 100.0
         AS small_revenue
FROM lineitem l JOIN a USING (l_partkey)
WHERE 2 * a.n * l.l_quantity < a.s
GROUP BY 1 ORDER BY 1
"""


# Entries retired from the 50-entry driver registry to fund newer
# operator demonstrations. They remain fully implemented AND oracle-
# tested in-repo (tests/test_queries.py checks this dict alongside the
# live registry), so retiring never reduces verified coverage.
RETIRED_QUERIES: dict = {}
RETIRED_ORACLE_SQL: dict = {}


ORACLE_SQL = {
    "lineitem_pricing_summary": SQL_LINEITEM_PRICING,
    "docs_dup_spans": SQL_DOCS_DUP_SPANS,
    "docs_source_overlap": SQL_DOCS_SOURCE_OVERLAP,
    "graph_pagerank": SQL_GRAPH_PAGERANK,
    "docs_layout_parse": SQL_DOCS_LAYOUT_PARSE,
    "events_type_stats": SQL_EVENTS_TYPE_STATS,
    "events_hourly_rollup": SQL_EVENTS_HOURLY,
    "docs_incremental_dedup": SQL_DOCS_INCREMENTAL_DEDUP,
    "docs_pii_scrub": SQL_DOCS_PII_SCRUB,
    "events_dow_type_cube": SQL_EVENTS_DOW_TYPE_CUBE,
    "events_sessionize": SQL_EVENTS_SESSIONIZE,
    "events_props_extract": SQL_EVENTS_PROPS,
    "events_value_percentiles": SQL_EVENTS_VALUE_PERCENTILES_APPROX,
    "docs_langid": SQL_DOCS_LANGID,
    "training_prep": SQL_TRAINING_PREP,
    "docs_quality_classifier": SQL_DOCS_QUALITY_CLASSIFIER,
    "docs_main_content": SQL_DOCS_MAIN_CONTENT,
    "docs_length_by_lang": SQL_DOCS_LENGTH_BY_LANG,
    "docs_top_terms_per_lang": SQL_DOCS_TOP_TERMS_PER_LANG,
    "docs_exact_dedup": SQL_DOCS_EXACT_DEDUP,
    "docs_perplexity": SQL_DOCS_PERPLEXITY,
    "docs_signature_scan": SQL_DOCS_SIGNATURE_SCAN,
    "embeddings_knn": SQL_EMBEDDINGS_KNN,
    "embeddings_label_stats": SQL_EMBEDDINGS_LABEL_STATS,
    "embeddings_cosine_near_dup": SQL_EMBEDDINGS_COSINE_NEAR_DUP,
    "embeddings_semdedup": SQL_EMBEDDINGS_SEMDEDUP,
    "events_approx_users": SQL_EVENTS_APPROX_USERS,
    "docs_simhash_near_dup": SQL_DOCS_SIMHASH_NEAR_DUP,
    "docs_decontaminate": SQL_DOCS_DECONTAMINATE,
    "docs_minhash_near_dup": SQL_DOCS_MINHASH_NEAR_DUP,
    "docs_ngram_dedup": SQL_DOCS_NGRAM_DEDUP,
    "docs_bpe_tokens": SQL_DOCS_BPE_TOKENS,
    "bucketed_customer_revenue": SQL_CUSTOMER_ORDER_REVENUE,
    # r4: the flagship extraction family + multimodal + IVF go
    # driver-green via the harness wrap / self-verifying doctrine
    "extract_spans": SQL_EXTRACT_SPANS,
    "extract_carve": SQL_EXTRACT_CARVE,
    "extract_dedup_clusters": SQL_EXTRACT_DEDUP_CLUSTERS,
    "media_features": SQL_MEDIA_FEATURES,
    "embeddings_knn_ivf": SQL_EMBEDDINGS_KNN_IVF,
    "extract_pairwise_compare": SQL_EXTRACT_PAIRWISE_COMPARE,
}

_merge_registries()

RETIRED_QUERIES.update(
    {
        "lineitem_filter_project": q_lineitem_filter_project,
        "docs_fingerprint": q_docs_fingerprint,
        "events_hopping_rollup": q_events_hopping_rollup,
        "embeddings_lsh_near_dup": q_embeddings_lsh_near_dup,
        "docs_token_stats": q_docs_token_stats,
        "docs_quality": q_docs_quality,
        "orders_topk": q_orders_topk,
        "supplier_lineitem_agg": q_supplier_lineitem_agg,
        "events_clicks_before_purchase": q_events_clicks_before_purchase,
        "customer_order_revenue": q_customer_order_revenue,
        "docs_crawl_frontier": q_docs_crawl_frontier,
        "docs_train_val_split": q_docs_train_val_split,
        "docs_dsir": q_docs_dsir,
        "docs_inverted_index": q_docs_inverted_index,
        "docs_gopher_rules": q_docs_gopher_rules,
        "docs_cms_top_terms": q_docs_cms_top_terms,
        "docs_chunk_windows": q_docs_chunk_windows,
        "events_range_pruned": q_events_range_pruned,
        "events_interval_join": q_events_interval_join,
        "events_upsert_compact": q_events_upsert_compact,
        "docs_shuffle_export": q_docs_shuffle_export,
        "embeddings_knn_pq": q_embeddings_knn_pq,
        "docs_bm25_search": q_docs_bm25_search,
        "docs_hybrid_search": q_docs_hybrid_search,
        "events_users_by_type_approx": q_events_users_by_type_approx,
        "events_late_arrivals": q_events_late_arrivals,
        "events_zorder_pruned": q_events_zorder_pruned,
        "docs_length_deciles": q_docs_length_deciles,
        "events_burst_suppress": q_events_burst_suppress,
        "events_value_zscore": q_events_value_zscore,
        "events_table_profile": q_events_table_profile,
        "part_fuzzy_match": q_part_fuzzy_match,
        "events_skyline": q_events_skyline,
        "events_markov": q_events_markov,
        "events_rolling_active_users": q_events_rolling_active_users,
        "events_hourly_regression": q_events_hourly_regression,
        "events_user_entropy": q_events_user_entropy,
        "embeddings_gram": q_embeddings_gram,
        "events_chi2_independence": q_events_chi2_independence,
        "graph_components": q_graph_components,
        "docs_naive_bayes": q_docs_naive_bayes,
        "docs_pmi_collocations": q_docs_pmi_collocations,
        "events_dp_counts": q_events_dp_counts,
        "embeddings_hard_negatives": q_embeddings_hard_negatives,
        "docs_dedup_keep_best": q_docs_dedup_keep_best,
        "graph_bfs_layers": q_graph_bfs_layers,
        "events_user_ewma": q_events_user_ewma,
        "docs_winnow_fingerprints": q_docs_winnow_fingerprints,
        "lineitem_small_order_revenue": q_lineitem_small_order_revenue,
        "events_user_gini": q_events_user_gini,
        "events_winsorize": q_events_winsorize,
        "embeddings_jl_project": q_embeddings_jl_project,
        "docs_langid_calibration": q_docs_langid_calibration,
        "events_welch_ttest": q_events_welch_ttest,
        "docs_negative_sampling_table": q_docs_negative_sampling_table,
    }
)


def _merge_retired_joins() -> None:
    from . import queries_joins as qj

    RETIRED_QUERIES["events_funnel"] = qj.q_events_funnel
    RETIRED_ORACLE_SQL["events_funnel"] = qj.SQL_EVENTS_FUNNEL
    RETIRED_QUERIES["events_retention"] = qj.q_events_retention
    RETIRED_ORACLE_SQL["events_retention"] = qj.SQL_EVENTS_RETENTION
    RETIRED_QUERIES["graph_triangles"] = qj.q_graph_triangles
    RETIRED_ORACLE_SQL["graph_triangles"] = qj.SQL_GRAPH_TRIANGLES
    RETIRED_QUERIES["docs_crawl_diff"] = qj.q_docs_crawl_diff
    RETIRED_ORACLE_SQL["docs_crawl_diff"] = qj.SQL_DOCS_CRAWL_DIFF
    RETIRED_QUERIES["events_weighted_sample"] = qj.q_events_weighted_sample
    RETIRED_ORACLE_SQL["events_weighted_sample"] = qj.SQL_EVENTS_WEIGHTED_SAMPLE
    RETIRED_QUERIES["orders_shipping_priority"] = qj.q_orders_shipping_priority
    RETIRED_ORACLE_SQL["orders_shipping_priority"] = qj.SQL_ORDERS_SHIPPING_PRIORITY


_merge_retired_joins()
RETIRED_ORACLE_SQL.update(
    {
        "lineitem_filter_project": SQL_LINEITEM_FILTER,
        "docs_fingerprint": SQL_DOCS_FINGERPRINT,
        "events_hopping_rollup": SQL_EVENTS_HOPPING,
        "embeddings_lsh_near_dup": SQL_EMBEDDINGS_LSH_NEAR_DUP,
        "docs_token_stats": SQL_DOCS_TOKEN_STATS,
        "docs_quality": SQL_DOCS_QUALITY,
        "orders_topk": SQL_ORDERS_TOPK,
        "supplier_lineitem_agg": SQL_SUPPLIER_LINEITEM_AGG,
        "events_clicks_before_purchase": SQL_EVENTS_CLICKS_BEFORE_PURCHASE,
        "customer_order_revenue": SQL_CUSTOMER_ORDER_REVENUE,
        "docs_crawl_frontier": SQL_DOCS_CRAWL_FRONTIER,
        "docs_train_val_split": SQL_DOCS_TRAIN_VAL_SPLIT,
        "docs_dsir": SQL_DOCS_DSIR,
        "docs_inverted_index": SQL_DOCS_INVERTED_INDEX,
        "docs_gopher_rules": SQL_DOCS_GOPHER_RULES,
        "docs_cms_top_terms": SQL_DOCS_CMS_TOP_TERMS,
        "docs_chunk_windows": SQL_DOCS_CHUNK_WINDOWS,
        "events_range_pruned": SQL_EVENTS_RANGE_PRUNED,
        "events_interval_join": SQL_EVENTS_INTERVAL_JOIN,
        "events_upsert_compact": SQL_EVENTS_UPSERT_COMPACT,
        "embeddings_knn_pq": SQL_EMBEDDINGS_KNN_PQ,
        "docs_bm25_search": SQL_DOCS_BM25_SEARCH,
        "docs_hybrid_search": SQL_DOCS_HYBRID_SEARCH,
        "events_users_by_type_approx": SQL_EVENTS_USERS_BY_TYPE_APPROX,
        "events_late_arrivals": SQL_EVENTS_LATE_ARRIVALS,
        "events_zorder_pruned": SQL_EVENTS_ZORDER_PRUNED,
        "docs_length_deciles": SQL_DOCS_LENGTH_DECILES,
        "events_burst_suppress": SQL_EVENTS_BURST_SUPPRESS,
        "events_value_zscore": SQL_EVENTS_VALUE_ZSCORE,
        "events_table_profile": SQL_EVENTS_TABLE_PROFILE,
        "docs_shuffle_export": SQL_DOCS_SHUFFLE_EXPORT,
        "part_fuzzy_match": SQL_PART_FUZZY_MATCH,
        "events_skyline": SQL_EVENTS_SKYLINE,
        "events_markov": SQL_EVENTS_MARKOV,
        "events_rolling_active_users": SQL_EVENTS_ROLLING_ACTIVE_USERS,
        "events_hourly_regression": SQL_EVENTS_HOURLY_REGRESSION,
        "events_user_entropy": SQL_EVENTS_USER_ENTROPY,
        "embeddings_gram": SQL_EMBEDDINGS_GRAM,
        "events_chi2_independence": SQL_EVENTS_CHI2_INDEPENDENCE,
        "graph_components": SQL_GRAPH_COMPONENTS,
        "docs_naive_bayes": SQL_DOCS_NAIVE_BAYES,
        "docs_pmi_collocations": SQL_DOCS_PMI_COLLOCATIONS,
        "events_dp_counts": SQL_EVENTS_DP_COUNTS,
        "embeddings_hard_negatives": SQL_EMBEDDINGS_HARD_NEGATIVES,
        "docs_dedup_keep_best": SQL_DOCS_DEDUP_KEEP_BEST,
        "graph_bfs_layers": SQL_GRAPH_BFS_LAYERS,
        "events_user_ewma": SQL_EVENTS_USER_EWMA,
        "docs_winnow_fingerprints": SQL_DOCS_WINNOW_FINGERPRINTS,
        "lineitem_small_order_revenue": SQL_LINEITEM_SMALL_ORDER_REVENUE,
        "events_user_gini": SQL_EVENTS_USER_GINI,
        "events_winsorize": SQL_EVENTS_WINSORIZE,
        "embeddings_jl_project": SQL_EMBEDDINGS_JL_PROJECT,
        "docs_langid_calibration": SQL_DOCS_LANGID_CALIBRATION,
        "events_welch_ttest": SQL_EVENTS_WELCH_TTEST,
        "docs_negative_sampling_table": SQL_DOCS_NEGATIVE_SAMPLING_TABLE,
    }
)

# ---------------------------------------------------------------------------
# r5 driver-slot rotation (VERDICT r4 item 8): rotate long-stable green
# entries out for high-value retired ones, so the driver's own per-round
# hash record progressively touches the whole query surface. Every
# rotated-out entry keeps its in-repo DuckDB oracle + pytest coverage
# (test_queries falls back to RETIRED_QUERIES) and its per-round
# RETIRED_CORRECTNESS_r{N}.json row — retiring never reduces verified
# coverage. The registry stays at exactly 50.
_ROTATE_OUT = ("events_type_stats", "docs_length_by_lang", "orders_status_pivot")
_ROTATE_IN = ("docs_bm25_search", "events_interval_join", "graph_triangles")
for _n in _ROTATE_OUT:
    RETIRED_QUERIES[_n] = QUERIES.pop(_n)
    RETIRED_ORACLE_SQL[_n] = ORACLE_SQL.pop(_n)
for _n in _ROTATE_IN:
    QUERIES[_n] = RETIRED_QUERIES.pop(_n)
    ORACLE_SQL[_n] = RETIRED_ORACLE_SQL.pop(_n)
del _ROTATE_OUT, _ROTATE_IN, _n
