"""Distributed joins, window functions, as-of joins, distinct and set
operations over the driver's parquet tables — widening the operator
surface beyond what the reference needs (it has no relational joins,
SURVEY.md §2.4) to what a training-data engine must provide.

Scale notes (each query documents its shuffle strategy):

- every equi-join is ``query_utils.key_join``: the right side
  broadcasts via ``ray.put`` while its footer-estimated size fits the
  one byte bound, else a hash-partitioned ``Dataset.join`` sized to the
  cluster; the FACT side is pre-aggregated per key inside
  ``map_batches`` first so only narrow (key, partial) rows cross the
  wire;
- semi/anti joins push the filter below the join and dedup per batch
  so the build side carries distinct keys only;
- window functions (rank-per-key, rolling aggregates, session windows,
  as-of matches) run on ``query_utils._window_by_key_arrow``: ONE global
  sort by (key, order cols) + vectorized run-boundary kernels per
  block, boundary-straddling key groups via a small side-channel —
  no per-group Python dispatch at any key cardinality. The remaining
  ``map_groups`` uses (top-customer-per-nation, percentiles) have
  BOUNDED group counts (25 nations / 5 event types) where per-group
  dispatch is free; a skewed super-group would be salted into
  sub-windows first (stages/skew.py pattern).

Cross-engine float discipline follows queries.py: money sums through
integer cents, per-row products left unrounded.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .query_utils import _cents, _meta_rows, _preagg_native, _read, gather, key_join

# ---------------------------------------------------------------------------
# distributed equi-joins (query_utils.key_join)

# Key-producing map_batches stages must return TYPED Arrow (the
# explicit cast below): an empty pandas frame converts to a schema-less
# Arrow block and a hash join then fails to resolve the key column
# ("No match ... on right side of the join").


def q_orders_lineitem_join_agg(sf_dir: str):
    """Large ⋈ large inner join (orders ⋈ lineitem) → revenue per
    order priority. The lineitem side is pre-aggregated to one narrow
    row per l_orderkey BEFORE the join, so the exchange moves
    (key, int64) pairs, not raw lineitems; at most one 16-byte row per
    order, so below ``key_join``'s bound the per-order revenue table
    broadcasts and no exchange runs."""

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def li_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "l_orderkey": df["l_orderkey"],
                "rev4": np.round(
                    (df["l_extendedprice"] * (1 - df["l_discount"])).to_numpy() * 10000
                ).astype(np.int64),
            }
        )
        return out.groupby("l_orderkey", as_index=False).sum()

    from ray.data.aggregate import Sum

    def li_finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"], "rev4": df["sum(rev4)"].astype("int64")}
        )

    per_order = _preagg_native(li, ["l_orderkey"], li_partial, [Sum("rev4")], li_finalize,
                               input_rows=_meta_rows(sf_dir, "lineitem"))
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = key_join(
        orders, per_order, on="o_orderkey", right_on="l_orderkey", how="inner",
        broadcast_bytes=16 * _meta_rows(sf_dir, "orders"),
    )

    def pr_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"o_orderpriority": df["o_orderpriority"], "rev4": df["rev4"], "n": 1}
        )
        return out.groupby("o_orderpriority", as_index=False).sum()

    def pr_finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderpriority": df["o_orderpriority"],
                "n_orders": df["sum(n)"].astype("int64"),
                "revenue": df["sum(rev4)"] / 10000.0,
            }
        )

    return _preagg_native(
        joined, ["o_orderpriority"], pr_partial, [Sum("rev4"), Sum("n")], pr_finalize
    )


SQL_ORDERS_LINEITEM_JOIN_AGG = """
SELECT o.o_orderpriority, count(*) AS n_orders,
       CAST(sum(CAST(l.rev4 AS BIGINT)) AS BIGINT) / 10000.0 AS revenue
FROM orders o
JOIN (
  SELECT l_orderkey,
         sum(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT)) AS rev4
  FROM lineitem GROUP BY l_orderkey
) l ON o.o_orderkey = l.l_orderkey
GROUP BY o.o_orderpriority
"""


def q_orders_semi_lineitem_returns(sf_dir: str):
    """Semi-join: orders having at least one returned lineitem
    (l_returnflag = 'R') → count per priority. Filter is pushed below
    the join; the build side is per-batch deduped to distinct keys
    before the ``left_semi`` ``key_join``."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def returned_keys(t: pa.Table) -> pa.Table:
        keys = pc.unique(
            t.filter(pc.equal(t.column("l_returnflag"), "R")).column("l_orderkey")
        )
        return pa.Table.from_arrays([keys.cast(pa.int64())], names=["l_orderkey"])

    keys = li.map_batches(returned_keys, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    # distinct returned orderkeys ≤ #orders
    semi = key_join(
        orders, keys, on="o_orderkey", right_on="l_orderkey", how="left_semi",
        broadcast_bytes=8 * _meta_rows(sf_dir, "orders"),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"o_orderpriority": df["o_orderpriority"], "n": 1})
        return out.groupby("o_orderpriority", as_index=False).sum()

    from ray.data.aggregate import Sum

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderpriority": df["o_orderpriority"],
                "n_orders": df["sum(n)"].astype("int64"),
            }
        )

    return _preagg_native(semi, ["o_orderpriority"], partial, [Sum("n")], finalize)


SQL_ORDERS_SEMI_LINEITEM_RETURNS = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R')
GROUP BY o_orderpriority
"""


def q_customers_without_orders(sf_dir: str):
    """Anti-join: customers with no finalized ('F') order → count +
    balance per market segment (``left_anti`` ``key_join``; the status
    filter is pushed below the join and keys are per-batch deduped
    so only distinct custkeys cross the wire)."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus"])

    def dedup(t: pa.Table) -> pa.Table:
        keys = pc.unique(
            t.filter(pc.equal(t.column("o_orderstatus"), "F")).column("o_custkey")
        )
        return pa.Table.from_arrays([keys.cast(pa.int64())], names=["o_custkey"])

    keys = orders.map_batches(dedup, batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])
    # distinct F-custkeys ≤ #orders
    anti = key_join(
        cust, keys, on="c_custkey", right_on="o_custkey", how="left_anti",
        broadcast_bytes=8 * _meta_rows(sf_dir, "orders"),
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"c_mktsegment": df["c_mktsegment"], "cents": _cents(df["c_acctbal"]), "n": 1}
        )
        return out.groupby("c_mktsegment", as_index=False).sum()

    from ray.data.aggregate import Sum

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_mktsegment": df["c_mktsegment"],
                "n_customers": df["sum(n)"].astype("int64"),
                "total_acctbal": df["sum(cents)"] / 100.0,
            }
        )

    return _preagg_native(anti, ["c_mktsegment"], partial, [Sum("cents"), Sum("n")], finalize)


SQL_CUSTOMERS_WITHOUT_ORDERS = """
SELECT c_mktsegment, count(*) AS n_customers,
       CAST(sum(CAST(round(c_acctbal*100) AS BIGINT)) AS BIGINT) / 100.0 AS total_acctbal
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey AND o.o_orderstatus = 'F')
GROUP BY c_mktsegment
"""


# ---------------------------------------------------------------------------
# window functions


def q_top_customer_per_nation(sf_dir: str):
    """Rank-per-group window (row_number = 1): richest customer per
    nation; groupby(nation).map_groups with an in-group sort and
    deterministic (−acctbal, custkey) tie-break."""
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_custkey", "c_name", "c_acctbal"])

    def top1(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["c_acctbal", "c_custkey"], ascending=[False, True])
        r = g.iloc[0]
        return pd.DataFrame(
            [
                {
                    "c_nationkey": int(r["c_nationkey"]),
                    "c_custkey": int(r["c_custkey"]),
                    "c_name": r["c_name"],
                    "c_acctbal": float(r["c_acctbal"]),
                }
            ]
        )

    return cust.groupby("c_nationkey").map_groups(top1, batch_format="pandas")


SQL_TOP_CUSTOMER_PER_NATION = """
SELECT c_nationkey, c_custkey, c_name, c_acctbal
FROM (
  SELECT c_nationkey, c_custkey, c_name, c_acctbal,
         row_number() OVER (PARTITION BY c_nationkey
                            ORDER BY c_acctbal DESC, c_custkey) AS rn
  FROM customer
) WHERE rn = 1
"""


def q_events_user_rolling_1h(sf_dir: str):
    """Rolling window aggregate: per user, events and value-sum in the
    trailing 1-hour window [ts−1h, ts] (RANGE semantics incl. ts
    peers). One sort by (user_id, ts, event_id), then per-user-run
    prefix sums + searchsorted inside each block (``_window_by_key_arrow``
    — no Ray per-group dispatch; the inner loop is over user RUNS
    with vectorized ops, ~µs each)."""
    from .query_utils import _window_by_key_arrow

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    def rolling(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.float64())],
                names=["event_id", "n_1h", "sum_1h"],
            )
        u = t.column("user_id").to_numpy()
        ts = (
            t.column("ts").to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        cents = np.round(t.column("value").to_numpy() * 100).astype(np.int64)
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        ends = np.r_[starts[1:], len(u)]
        n_1h = np.empty(len(u), dtype=np.int64)
        sum_1h = np.empty(len(u), dtype=np.float64)
        for s, e in zip(starts, ends):
            w = ts[s:e]
            csum = np.concatenate(([0], np.cumsum(cents[s:e])))
            lo = np.searchsorted(w, w - 3_600_000_000, side="left")
            hi = np.searchsorted(w, w, side="right")
            n_1h[s:e] = hi - lo
            sum_1h[s:e] = (csum[hi] - csum[lo]) / 100.0
        return pa.Table.from_arrays(
            [t.column("event_id"), pa.array(n_1h), pa.array(sum_1h)],
            names=["event_id", "n_1h", "sum_1h"],
        )

    return _window_by_key_arrow(ds, ["user_id"], ["user_id", "ts", "event_id"], rolling)


SQL_EVENTS_USER_ROLLING_1H = """
SELECT event_id,
       count(*) OVER w AS n_1h,
       CAST(sum(CAST(round(value*100) AS BIGINT)) OVER w AS BIGINT) / 100.0 AS sum_1h
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


def q_events_asof_purchase(sf_dir: str):
    """As-of join: each click matched to the user's most recent
    purchase at-or-before it. Composition per SURVEY §custom-operators:
    ONE sort co-partitioning both sides by (user_id, ts, event_id),
    then per-user-run searchsorted inside each block
    (``_window_by_key_arrow`` — both sides ride the same sorted stream, so
    co-partitioning is by construction, with no per-user dispatch).
    Purchases are pre-deduped to one row per (user, ts) (max event_id,
    i.e. the last row of each ts run) so tie-handling is
    engine-independent."""
    from .query_utils import _window_by_key_arrow

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    ds = ds.filter(
        expr="event_type == 'click' or event_type == 'purchase'"
    )

    def asof(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        out_click: list = []
        out_buy: list = []
        out_gap: list = []
        if t.num_rows:
            u = t.column("user_id").to_numpy()
            ts = (
                t.column("ts").to_numpy(zero_copy_only=False)
                .astype("datetime64[us]").astype(np.int64)
            )
            eid = t.column("event_id").to_numpy()
            is_click = pc.equal(t.column("event_type"), "click").to_numpy(
                zero_copy_only=False
            ).astype(bool)
            starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
            ends = np.r_[starts[1:], len(u)]
            for s, e in zip(starts, ends):
                cm = is_click[s:e]
                bt, bi = ts[s:e][~cm], eid[s:e][~cm]
                ct, ci = ts[s:e][cm], eid[s:e][cm]
                if not len(bt) or not len(ct):
                    continue
                # one purchase per ts: last (max event_id) of each ts run
                keep = np.r_[bt[1:] != bt[:-1], True]
                bt, bi = bt[keep], bi[keep]
                idx = np.searchsorted(bt, ct, side="right") - 1
                ok = idx >= 0
                out_click.extend(ci[ok])
                out_buy.extend(bi[idx[ok]])
                out_gap.extend(ct[ok] - bt[idx[ok]])
        return pa.Table.from_arrays(
            [
                pa.array(np.asarray(out_click, dtype=np.int64)),
                pa.array(np.asarray(out_buy, dtype=np.int64)),
                pa.array(np.asarray(out_gap, dtype=np.int64)),
            ],
            names=["event_id", "purchase_event_id", "gap_us"],
        )

    return _window_by_key_arrow(ds, ["user_id"], ["user_id", "ts", "event_id"], asof)


SQL_EVENTS_ASOF_PURCHASE = """
WITH clicks AS (
  SELECT user_id, event_id, ts FROM events WHERE event_type = 'click'
), buys AS (
  SELECT user_id, max(event_id) AS purchase_event_id, ts
  FROM events WHERE event_type = 'purchase' GROUP BY user_id, ts
)
SELECT c.event_id, b.purchase_event_id,
       CAST(epoch_us(c.ts) - epoch_us(b.ts) AS BIGINT) AS gap_us
FROM clicks c ASOF JOIN buys b ON c.user_id = b.user_id AND c.ts >= b.ts
"""


# ---------------------------------------------------------------------------
# distinct / set ops


def q_events_union_split(sf_dir: str):
    """Set op: union of two filtered streams (high-value purchases ∪
    error events) → count per type (``Dataset.union`` keeps both sides
    streaming; no shuffle until the final small groupby)."""
    purchases = _read(sf_dir, "events", ["event_type", "value"]).filter(
        expr="event_type == 'purchase' and value > 50.0"
    )
    errors = _read(sf_dir, "events", ["event_type", "value"]).filter(
        expr="event_type == 'error'"
    )
    ds = purchases.union(errors)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"event_type": df["event_type"], "n": 1})
        return out.groupby("event_type", as_index=False).sum()

    from ray.data.aggregate import Sum

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"event_type": df["event_type"], "n_events": df["sum(n)"].astype("int64")}
        )

    return _preagg_native(ds, ["event_type"], partial, [Sum("n")], finalize)


SQL_EVENTS_UNION_SPLIT = """
SELECT event_type, count(*) AS n_events FROM (
  SELECT event_type FROM events WHERE event_type = 'purchase' AND value > 50.0
  UNION ALL
  SELECT event_type FROM events WHERE event_type = 'error'
) GROUP BY event_type
"""


def q_docs_deterministic_sample(sf_dir: str):
    """Content-addressed deterministic sampling (~25%): keep a doc iff
    the first byte of md5(doc_id) < 64. Unlike seeded random_sample,
    the decision is a pure function of the KEY — identical across
    cluster sizes, resumes and engines (SQL-expressible), which is
    what reproducible corpus subsampling at 10^12 scale needs."""
    import hashlib

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        keep = [
            hashlib.md5(str(d).encode()).digest()[0] < 64 for d in df["doc_id"]
        ]
        return df.loc[keep]

    return ds.map_batches(sample, batch_format="pandas")


SQL_DOCS_DETERMINISTIC_SAMPLE = """
SELECT doc_id, lang, n_chars
FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 2)) AS INTEGER) < 64
"""


def q_orders_status_pivot(sf_dir: str):
    """Conditional aggregation (pivot shape): one row of per-status
    order counts + totals, built from vectorized per-batch
    value_counts partials."""
    ds = _read(sf_dir, "orders", ["o_orderstatus", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"s": df["o_orderstatus"], "cents": _cents(df["o_totalprice"]), "n": 1}
        )
        return out.groupby("s", as_index=False).sum()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("s").sum()
        n = {s: int(g.loc[s, "n"]) if s in g.index else 0 for s in ("F", "O", "P")}
        return pd.DataFrame(
            [
                {
                    "n_f": n["F"],
                    "n_o": n["O"],
                    "n_p": n["P"],
                    "n_total": int(g["n"].sum()),
                    "total_price": g["cents"].sum() / 100.0,
                }
            ]
        )

    part = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    schema = pa.schema(
        [("s", pa.string()), ("cents", pa.int64()), ("n", pa.int64())]
    )
    return ray.data.from_pandas(merge(gather(part, schema).to_pandas()))


SQL_ORDERS_STATUS_PIVOT = """
SELECT CAST(sum(CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END) AS BIGINT) AS n_f,
       CAST(sum(CASE WHEN o_orderstatus = 'O' THEN 1 ELSE 0 END) AS BIGINT) AS n_o,
       CAST(sum(CASE WHEN o_orderstatus = 'P' THEN 1 ELSE 0 END) AS BIGINT) AS n_p,
       count(*) AS n_total,
       CAST(sum(CAST(round(o_totalprice*100) AS BIGINT)) AS BIGINT) / 100.0 AS total_price
FROM orders
"""


def q_lineitem_rank_in_order(sf_dir: str):
    """Rank window at fact-table key cardinality: each lineitem's rank
    by price within its order (ROW_NUMBER semantics, ties broken by
    l_linenumber), keeping the top 2 per order. Executed as ONE sort
    by (l_orderkey, l_extendedprice DESC, l_linenumber) + run-boundary
    arange — rank-per-group over millions of orders with no per-group
    dispatch (``_window_by_key_arrow`` descending support)."""
    from .query_utils import _window_by_key_arrow

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"])

    def rank_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64()),
                 pa.array([], pa.float64()), pa.array([], pa.int64())],
                names=["l_orderkey", "l_linenumber", "l_extendedprice",
                       "price_rank"],
            )
        k = t.column("l_orderkey").to_numpy()
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        run_of = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(k)]))
        rank = np.arange(len(k)) - starts[run_of] + 1
        out = t.append_column("price_rank", pa.array(rank.astype(np.int64)))
        return out.filter(pa.array(rank <= 2))

    return _window_by_key_arrow(
        ds,
        ["l_orderkey"],
        ["l_orderkey", "l_extendedprice", "l_linenumber"],
        rank_fn,
        descending=[False, True, False],
    )


SQL_LINEITEM_RANK_IN_ORDER = """
SELECT l_orderkey, l_linenumber, l_extendedprice, price_rank FROM (
  SELECT l_orderkey, l_linenumber, l_extendedprice,
         row_number() OVER (PARTITION BY l_orderkey
                            ORDER BY l_extendedprice DESC, l_linenumber) AS price_rank
  FROM lineitem
) WHERE price_rank <= 2
"""


def q_users_click_setops(sf_dir: str):
    """INTERSECT + EXCEPT in one tagged result (r2's separate
    users_click_and_purchase / users_click_no_purchase entries fold in
    here so both set ops get one driver row each round):

    - op='intersect' — users who both clicked and purchased;
    - op='except' — users who clicked but never made a high-value
      (>80) purchase (value predicate applied below the exchange).

    Single-key set operations are a membership-flag aggregation, so the
    engine runs them as its sort + run-scan shape: per-batch flag
    rollup (one row per batch-distinct user — the combiner), ONE sort
    by user_id, then a vectorized OR-reduceat per user run decides both
    memberships at once. One narrow exchange total, no per-key
    machinery; the r2 formulation (two 16-partition hash joins + two
    distinct sorts) spent ~6 s of its 7.6 s spinning shuffle aggregator
    actors at sf0.01. Semi/anti hash joins stay first-class via
    orders_semi_lineitem_returns / customers_without_orders."""
    from .query_utils import _window_by_key_arrow

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "user_id": df["user_id"],
                "c": (df["event_type"] == "click").to_numpy(),
                "b": (df["event_type"] == "purchase").to_numpy(),
                "bb": (
                    (df["event_type"] == "purchase") & (df["value"] > 80)
                ).to_numpy(),
            }
        )
        return out.groupby("user_id", as_index=False).max()

    part = ev.map_batches(flags, batch_format="pandas", batch_size=65536)

    def decide(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.string())],
                names=["user_id", "op"],
            )
        u = t.column("user_id").to_numpy()
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        c = np.logical_or.reduceat(
            t.column("c").to_numpy(zero_copy_only=False).astype(bool), starts
        )
        b = np.logical_or.reduceat(
            t.column("b").to_numpy(zero_copy_only=False).astype(bool), starts
        )
        bb = np.logical_or.reduceat(
            t.column("bb").to_numpy(zero_copy_only=False).astype(bool), starts
        )
        users = u[starts]
        inter = c & b
        exc = c & ~bb
        return pa.Table.from_arrays(
            [
                pa.array(
                    np.concatenate([users[inter], users[exc]]).astype(np.int64)
                ),
                pa.array(
                    ["intersect"] * int(inter.sum()) + ["except"] * int(exc.sum()),
                    pa.string(),
                ),
            ],
            names=["user_id", "op"],
        )

    return _window_by_key_arrow(part, ["user_id"], ["user_id"], decide)


SQL_USERS_CLICK_SETOPS = """
SELECT user_id, 'intersect' AS op FROM (
  SELECT user_id FROM events WHERE event_type = 'click'
  INTERSECT
  SELECT user_id FROM events WHERE event_type = 'purchase'
)
UNION ALL
SELECT user_id, 'except' AS op FROM (
  SELECT user_id FROM events WHERE event_type = 'click'
  EXCEPT
  SELECT user_id FROM events WHERE event_type = 'purchase' AND value > 80
)
"""


JOIN_QUERIES = {
    "lineitem_rank_in_order": q_lineitem_rank_in_order,
    "orders_lineitem_join_agg": q_orders_lineitem_join_agg,
    "orders_semi_lineitem_returns": q_orders_semi_lineitem_returns,
    "customers_without_orders": q_customers_without_orders,
    "top_customer_per_nation": q_top_customer_per_nation,
    "events_user_rolling_1h": q_events_user_rolling_1h,
    "events_asof_purchase": q_events_asof_purchase,
    "events_union_split": q_events_union_split,
    "docs_deterministic_sample": q_docs_deterministic_sample,
    "orders_status_pivot": q_orders_status_pivot,
    "users_click_setops": q_users_click_setops,
}


def q_events_funnel(sf_dir: str, window_hours: int = 24):
    """Conversion-window funnel analysis (view → click within 24 h →
    purchase within 24 h of that click, strictly increasing
    (ts, event_id) per user): how many users reach each stage. ONE sort
    by (user_id, ts, event_id), then a fully vectorized per-user-run
    pass — first-view / first-qualifying-click / first-qualifying-
    purchase are each a where + minimum.reduceat, no per-user Python.
    Blocks emit 3-count partials; the driver sums them. Exact
    integer microsecond semantics throughout (no float thresholds —
    the ADVICE r3 split-threshold class is designed out)."""
    from .query_utils import _window_by_key_arrow

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    win_us = np.int64(window_hours) * 3_600_000_000

    _EMPTY = pa.schema(
        [("n_view", pa.int64()), ("n_view_click", pa.int64()),
         ("n_view_click_purchase", pa.int64())]
    )

    def funnel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY.empty_table()
        u = t.column("user_id").to_numpy()
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        ts = (
            t.column("ts").to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        n = len(u)
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        run_of = np.repeat(
            np.arange(len(starts)), np.diff(np.r_[starts, n])
        )
        pos = np.arange(n)
        _NEVER = np.int64(-(1 << 62))  # missing stage: no deadline qualifies

        def stage_ts(idx: np.ndarray) -> np.ndarray:
            return np.where(idx < n, ts[np.minimum(idx, n - 1)], _NEVER)

        is_view = et == "view"
        is_click = et == "click"
        is_purchase = et == "purchase"
        # first view per user (sentinel n when absent)
        fv = np.minimum.reduceat(np.where(is_view, pos, n), starts)
        t1 = stage_ts(fv)
        # first click strictly after the first view, within the window
        fc = np.minimum.reduceat(
            np.where(
                is_click & (pos > fv[run_of]) & (ts <= t1[run_of] + win_us),
                pos, n,
            ),
            starts,
        )
        t2 = stage_ts(fc)
        # first purchase strictly after that click, within the window
        fp = np.minimum.reduceat(
            np.where(
                is_purchase & (pos > fc[run_of]) & (ts <= t2[run_of] + win_us),
                pos, n,
            ),
            starts,
        )
        return pa.Table.from_arrays(
            [pa.array([int((fv < n).sum())]), pa.array([int((fc < n).sum())]),
             pa.array([int((fp < n).sum())])],
            schema=_EMPTY,
        )

    partials = _window_by_key_arrow(
        ds, ["user_id"], ["user_id", "ts", "event_id"], funnel
    )

    def merge(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.array([pc.sum(t.column(c)).as_py() or 0]) for c in t.column_names],
            schema=_EMPTY,
        )

    return ray.data.from_arrow(merge(gather(partials, _EMPTY)))


def q_events_retention(sf_dir: str):
    """Cohort retention: users grouped by their first active DATE; for
    each cohort, how many users are active again exactly 0/1/7 days
    later. Per-batch distinct (user, date) combiner → ONE sort by
    (user_id, d) → run-scan per user (consecutive-dup drop makes the
    distinct global, first date is the run head, offsets are one
    vectorized subtract) → bounded-key (≤ days × 3) native count.
    Exact integer-day semantics."""
    from ray.data.aggregate import Sum

    from .query_utils import _window_by_key_arrow

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def day_pairs(t: pa.Table) -> pa.Table:
        d = pc.cast(t.column("ts"), pa.date32())
        pairs = pa.Table.from_arrays(
            [t.column("user_id"), d], names=["user_id", "d"]
        )
        return pairs.group_by(["user_id", "d"]).aggregate([])

    pairs = ds.map_batches(day_pairs, batch_format="pyarrow")

    _OUT = pa.schema([("cohort_date", pa.date32()), ("day_offset", pa.int32())])

    def offsets(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _OUT.empty_table()
        u = t.column("user_id").to_numpy()
        d = t.column("d").to_numpy(zero_copy_only=False).astype("datetime64[D]").astype(np.int32)
        # global distinct: per-batch combiners leave cross-batch dups
        # adjacent after the sort — drop consecutive equals
        keep = np.r_[True, (u[1:] != u[:-1]) | (d[1:] != d[:-1])]
        u, d = u[keep], d[keep]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        run_of = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(u)]))
        d0 = d[starts]
        off = d - d0[run_of]
        m = (off == 0) | (off == 1) | (off == 7)
        return pa.Table.from_arrays(
            [pa.array(d0[run_of][m], pa.date32()),
             pa.array(off[m].astype(np.int32))],
            schema=_OUT,
        )

    rows = _window_by_key_arrow(pairs, ["user_id"], ["user_id", "d"], offsets)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"cohort_date": df["cohort_date"], "day_offset": df["day_offset"],
             "n": 1}
        )
        return out.groupby(["cohort_date", "day_offset"], as_index=False).sum()

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "cohort_date": df["cohort_date"],
                "day_offset": df["day_offset"].astype("int32"),
                "n_users": df["sum(n)"].astype("int64"),
            }
        )

    return _preagg_native(
        rows, ["cohort_date", "day_offset"], partial, [Sum("n")], finalize
    )


SQL_EVENTS_RETENTION = """
WITH ud AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS d FROM events),
fu AS (SELECT user_id, min(d) AS d0 FROM ud GROUP BY user_id)
SELECT d0 AS cohort_date,
       CAST(datediff('day', d0, d) AS INTEGER) AS day_offset,
       count(*) AS n_users
FROM ud JOIN fu USING (user_id)
WHERE datediff('day', d0, d) IN (0, 1, 7)
GROUP BY 1, 2
"""


SQL_EVENTS_FUNNEL = """
WITH ordered AS (
  SELECT user_id, event_type, ts,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
),
fv AS (SELECT user_id, min(rn) AS r1 FROM ordered
       WHERE event_type = 'view' GROUP BY user_id),
fvt AS (SELECT f.user_id, r1, o.ts AS t1 FROM fv f
        JOIN ordered o ON o.user_id = f.user_id AND o.rn = f.r1),
fc AS (SELECT o.user_id, min(rn) AS r2 FROM ordered o JOIN fvt USING (user_id)
       WHERE event_type = 'click' AND rn > r1
         AND ts <= t1 + INTERVAL 24 HOUR GROUP BY o.user_id),
fct AS (SELECT f.user_id, r2, o.ts AS t2 FROM fc f
        JOIN ordered o ON o.user_id = f.user_id AND o.rn = f.r2),
fp AS (SELECT DISTINCT o.user_id FROM ordered o JOIN fct USING (user_id)
       WHERE event_type = 'purchase' AND rn > r2
         AND ts <= t2 + INTERVAL 24 HOUR)
SELECT (SELECT count(*) FROM fv) AS n_view,
       (SELECT count(*) FROM fc) AS n_view_click,
       (SELECT count(*) FROM fp) AS n_view_click_purchase
"""

def q_graph_triangles(sf_dir: str):
    """Per-node triangle counts over the part co-occurrence graph
    (parts repeatedly bought together: co-occurrence support >= 2, the
    frequent-itemset sparsifier — one-off co-purchases are noise and
    their raw pair set is quadratically dense), top 100 nodes by count —
    the structural-affinity sibling of graph_pagerank. Degree-ordered
    wedge join (stages/triangles.py): orient edges low→high by
    (degree, id) so every out-degree is O(√m), ONE sort per super-
    linear step, wedges matched against the edge set with one hash
    join. The broadcast-vs-join degree attach is chosen statically
    from the part table's parquet footer row count (free, no
    materialize-and-count barrier)."""
    from .stages.triangles import cooccurrence_edges, triangle_counts

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = cooccurrence_edges(li, "l_orderkey", "l_partkey", min_support=2)
    counts = triangle_counts(
        edges, n_nodes_hint=_meta_rows(sf_dir, "part")
    )
    return counts.sort(
        ["n_triangles", "node"], descending=[True, False]
    ).limit(100)


def q_orders_shipping_priority(sf_dir: str):
    """TPC-H Q3 analog (shipping priority): revenue of not-yet-shipped
    lineitems for BUILDING-segment customers' orders placed before the
    cutoff, top 10 orders by revenue. Three tables, two ``key_join``
    calls: the BUILDING custkeys semi-filter the date-filtered orders,
    then the per-order revenue (lineitem pre-aggregated to one narrow
    int row per orderkey BEFORE the join) attaches each surviving
    order's date. Both join sides are key-unique, so every joined row
    IS one result group — no second aggregate, just top-k. The filtered
    orders are the right side of the second join: at most one 16-byte
    row per order, broadcast below ``key_join``'s bound."""
    cutoff = pd.Timestamp("1998-01-01")

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def seg_keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t.column("c_mktsegment"), "BUILDING")
        return t.filter(m).select(["c_custkey"])

    cust_keys = cust.map_batches(seg_keys, batch_format="pyarrow")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cutoff_us = np.int64(pd.Timestamp("1998-01-01").value // 1000)

    def date_filter(t: pa.Table) -> pa.Table:
        od = (
            t.column("o_orderdate")
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return t.filter(pa.array(od < cutoff_us))

    ord_f = key_join(
        orders.map_batches(date_filter, batch_format="pyarrow"),
        cust_keys, on="o_custkey", right_on="c_custkey", how="left_semi",
        broadcast_bytes=8 * _meta_rows(sf_dir, "customer"),
    ).select_columns(["o_orderkey", "o_orderdate"])

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def li_partial(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["l_shipdate"] > cutoff
        df = df[keep]
        out = pd.DataFrame(
            {
                "l_orderkey": df["l_orderkey"],
                "rev4": np.round(
                    (df["l_extendedprice"] * (1 - df["l_discount"])).to_numpy()
                    * 10000
                ).astype(np.int64),
            }
        )
        return out.groupby("l_orderkey", as_index=False).sum()

    from ray.data.aggregate import Sum

    def li_finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"l_orderkey": df["l_orderkey"], "rev4": df["sum(rev4)"].astype("int64")}
        )

    per_order = _preagg_native(
        li, ["l_orderkey"], li_partial, [Sum("rev4")], li_finalize,
        input_rows=_meta_rows(sf_dir, "lineitem"),
    )
    joined = key_join(
        per_order, ord_f, on="l_orderkey", right_on="o_orderkey", how="inner",
        broadcast_bytes=16 * _meta_rows(sf_dir, "orders"),
    )

    def finalize(t: pa.Table) -> pa.Table:
        rev = t.column("rev4").to_numpy(zero_copy_only=False) / 10000.0
        return pa.Table.from_arrays(
            [
                t.column("l_orderkey").cast(pa.int64()),
                pa.array(rev, pa.float64()),
                t.column("o_orderdate").cast(pa.timestamp("us")),
            ],
            names=["o_orderkey", "revenue", "o_orderdate"],
        )

    return (
        joined.map_batches(finalize, batch_format="pyarrow")
        .sort(["revenue", "o_orderkey"], descending=[True, False])
        .limit(10)
    )


SQL_ORDERS_SHIPPING_PRIORITY = """
SELECT o.o_orderkey,
       CAST(sum(CAST(round(l.l_extendedprice*(1-l.l_discount)*10000) AS BIGINT)) AS BIGINT) / 10000.0 AS revenue,
       o.o_orderdate
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '1998-01-01'
  AND l.l_shipdate > TIMESTAMP '1998-01-01'
GROUP BY o.o_orderkey, o.o_orderdate
ORDER BY revenue DESC, o.o_orderkey
LIMIT 10
"""


def q_docs_crawl_diff(sf_dir: str):
    """Two-crawl snapshot delta (added / removed / changed / unchanged
    per doc) via the zero-join sort-merge diff in stages/snapshot.py.
    The two snapshots derive deterministically from the documents
    table: the old crawl misses ids ending in 7, the new crawl misses
    ids ending in 3, and every id divisible by 5 was revised between
    crawls (its content fingerprint re-keyed). The repo-wide content
    fingerprint rule (stages/split.py) keys change detection, so the
    DuckDB oracle is a closed-form FULL OUTER JOIN."""
    import hashlib

    from .stages.snapshot import snapshot_diff
    from .stages.split import text_fingerprint

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fp(t: pa.Table) -> pa.Table:
        f = [text_fingerprint(x) for x in t.column("text").to_pylist()]
        return pa.Table.from_arrays(
            [t.column("doc_id"), pa.array(f, pa.string())],
            names=["doc_id", "fingerprint"],
        )

    base = docs.map_batches(fp, batch_format="pyarrow")

    def old_side(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % 10 != 7))

    def new_side(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(ids % 10 != 3))
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        f = t.column("fingerprint").to_pylist()
        out = [
            hashlib.md5((x + "rev2").encode()).hexdigest()
            if i % 5 == 0
            else x
            for i, x in zip(ids, f)
        ]
        return pa.Table.from_arrays(
            [t.column("doc_id"), pa.array(out, pa.string())],
            names=["doc_id", "fingerprint"],
        )

    old_ds = base.map_batches(old_side, batch_format="pyarrow")
    new_ds = base.map_batches(new_side, batch_format="pyarrow")
    return snapshot_diff(old_ds, new_ds).sort("doc_id")


SQL_DOCS_CRAWL_DIFF = r"""
WITH fp AS (
  SELECT doc_id,
         md5(lower(trim(regexp_replace(text, '[\t\n\f\r ]+', ' ', 'g')))) AS f
  FROM documents
),
old_snap AS (SELECT doc_id, f AS fp FROM fp WHERE doc_id % 10 != 7),
new_snap AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0 THEN md5(f || 'rev2') ELSE f END AS fp
  FROM fp WHERE doc_id % 10 != 3
)
SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
       CASE WHEN o.doc_id IS NULL THEN 'added'
            WHEN n.doc_id IS NULL THEN 'removed'
            WHEN o.fp = n.fp THEN 'unchanged'
            ELSE 'changed' END AS status,
       o.fp AS old_fp,
       n.fp AS new_fp
FROM old_snap o FULL OUTER JOIN new_snap n ON o.doc_id = n.doc_id
ORDER BY doc_id
"""


def q_events_weighted_sample(sf_dir: str):
    """Probability-proportional-to-size (Bernoulli PPS) sample of
    events: include each event with probability min(1, value / theta),
    decided by a deterministic md5 coin on the event id — the weighted
    down-sampling primitive a training pipeline uses to thin
    low-importance rows while keeping estimates unbiased. Each sampled
    row carries ``inv_p`` (the Horvitz–Thompson reweight 1/p), so
    ``sum(value * inv_p)`` over the sample estimates the population
    total. Integer coin vs value*scale comparison uses only IEEE
    multiply (no pow/log), so the DuckDB oracle reproduces the
    selection bit-for-bit. Row-local map_batches: no shuffle, no
    state; the coin rule is the same md5 doctrine as
    docs_deterministic_sample / stages/split.py."""
    import hashlib

    theta = 2450.0
    scale = 4294967296.0 / theta  # 2^32 / theta, one rounding in both engines

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def sample(t: pa.Table) -> pa.Table:
        ids = t.column("event_id").to_numpy(zero_copy_only=False)
        vals = t.column("value").to_numpy(zero_copy_only=False)
        coins = np.fromiter(
            (
                int(hashlib.md5(str(int(i)).encode()).hexdigest()[:8], 16)
                for i in ids
            ),
            dtype=np.float64,
            count=len(ids),
        )
        keep = coins < vals * scale
        inv_p = np.maximum(theta / vals, 1.0)
        out = t.append_column("inv_p", pa.array(inv_p, pa.float64()))
        return out.filter(pa.array(keep))

    return ds.map_batches(sample, batch_format="pyarrow").sort("event_id")


SQL_EVENTS_WEIGHTED_SAMPLE = """
SELECT event_id, event_type, value,
       greatest(2450.0 / value, 1.0) AS inv_p
FROM events
WHERE CAST(CAST(('0x' || substr(md5(CAST(event_id AS VARCHAR)), 1, 8)) AS UBIGINT) AS DOUBLE)
      < value * (4294967296.0 / 2450.0)
ORDER BY event_id
"""


SQL_GRAPH_TRIANGLES = """
WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (
  SELECT a.l_partkey AS u, b.l_partkey AS v
  FROM op a JOIN op b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2
  HAVING count(*) >= 2
),
tri AS (
  SELECT e1.u AS a, e1.v AS b, e2.v AS c
  FROM e e1
  JOIN e e2 ON e2.u = e1.v
  JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v
),
corners AS (
  SELECT a AS node FROM tri
  UNION ALL SELECT b FROM tri
  UNION ALL SELECT c FROM tri
)
SELECT node, count(*) AS n_triangles
FROM corners GROUP BY node
ORDER BY n_triangles DESC, node
LIMIT 100
"""


JOIN_ORACLE_SQL = {
    "lineitem_rank_in_order": SQL_LINEITEM_RANK_IN_ORDER,
    "orders_lineitem_join_agg": SQL_ORDERS_LINEITEM_JOIN_AGG,
    "orders_semi_lineitem_returns": SQL_ORDERS_SEMI_LINEITEM_RETURNS,
    "customers_without_orders": SQL_CUSTOMERS_WITHOUT_ORDERS,
    "top_customer_per_nation": SQL_TOP_CUSTOMER_PER_NATION,
    "events_user_rolling_1h": SQL_EVENTS_USER_ROLLING_1H,
    "events_asof_purchase": SQL_EVENTS_ASOF_PURCHASE,
    "events_union_split": SQL_EVENTS_UNION_SPLIT,
    "docs_deterministic_sample": SQL_DOCS_DETERMINISTIC_SAMPLE,
    "orders_status_pivot": SQL_ORDERS_STATUS_PIVOT,
    "users_click_setops": SQL_USERS_CLICK_SETOPS,
}
