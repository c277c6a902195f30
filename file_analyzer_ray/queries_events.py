"""events-table queries (rollups, windows, sessionization,
stats tests, sketches, lakehouse ops) — split from queries.py r5
(VERDICT r4 item 5); registry assembly stays in queries.py."""

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


def q_events_type_stats(sf_dir: str):
    """Grouped sums/min/max plus exact distinct users per type. The
    distinct side stays NARROW end-to-end and never converges on one
    task: per-batch (event_type, user_id) dedup → native
    groupby([event_type, user_id]).count() (the vectorized exchange —
    global distinct pairs) → per-block partial counts per type → tiny
    bounded-cardinality merge. No ID lists ride inside aggregate rows
    and no single task ever holds all distinct pairs."""
    ds = _read(sf_dir, "events", ["event_type", "user_id", "value"])

    from ray.data.aggregate import Max, Min, Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "cents": _cents(df["value"]),
                "vmin": df["value"],
                "vmax": df["value"],
                "n": 1,
            }
        )
        return out.groupby("event_type", as_index=False).agg(
            cents=("cents", "sum"), vmin=("vmin", "min"), vmax=("vmax", "max"), n=("n", "sum")
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "n_events": df["sum(n)"].astype("int64"),
                "sum_value": df["sum(cents)"] / 100.0,
                "min_value": df["min(vmin)"].astype("float64"),
                "max_value": df["max(vmax)"].astype("float64"),
            }
        )

    stats = _preagg_native(
        ds, ["event_type"], partial,
        [Sum("cents"), Min("vmin"), Max("vmax"), Sum("n")], finalize,
    ).to_pandas()

    from .query_utils import _distinct_native

    pairs = _distinct_native(ds, ["event_type", "user_id"])

    def partial_count(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("event_type", as_index=False).agg(n_users=("user_id", "count"))

    def merge_count(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("event_type", as_index=False).agg(n_users=("n_users", "sum"))

    users = (
        pairs.map_batches(partial_count, batch_format="pandas")
        .repartition(1)
        .map_batches(merge_count, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    out = stats.merge(users, on="event_type", how="left")
    out["n_users"] = out["n_users"].fillna(0).astype("int64")
    return ray.data.from_pandas(out)

SQL_EVENTS_TYPE_STATS = """
SELECT event_type, count(*) AS n_events,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_value,
       min(value) AS min_value, max(value) AS max_value,
       count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""

def q_events_hourly_rollup(sf_dir: str):
    """Tumbling window as a grouped aggregate on the truncated timestamp
    (streaming-shaped workload per the Ray guide: windows = groupby)."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "hour": df["ts"].dt.floor("h"),
                "event_type": df["event_type"],
                "cents": _cents(df["value"]),
                "n": 1,
            }
        )
        return out.groupby(["hour", "event_type"], as_index=False).sum()

    from ray.data.aggregate import Sum

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "hour": df["hour"],
                "event_type": df["event_type"],
                "n_events": df["sum(n)"].astype("int64"),
                "sum_value": df["sum(cents)"] / 100.0,
            }
        )

    from .query_utils import _meta_rows

    return _preagg_native(
        ds, ["hour", "event_type"], partial, [Sum("cents"), Sum("n")], finalize,
        input_rows=_meta_rows(sf_dir, "events"),
    )

SQL_EVENTS_HOURLY = """
SELECT date_trunc('hour', ts) AS hour, event_type, count(*) AS n_events,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_value
FROM events GROUP BY date_trunc('hour', ts), event_type
"""

def q_events_hopping_rollup(sf_dir: str):
    """Hopping window aggregate (1h window, 30min hop — each event
    lands in exactly 2 overlapping windows): the window-start explode
    is a vectorized per-batch flat map (no per-row Python), then the
    standard two-level aggregation. Completes the window family
    (tumbling=hourly, session, rolling RANGE, hopping)."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        epoch = df["ts"].to_numpy().astype("datetime64[s]").astype(np.int64)
        base = (epoch // 1800) * 1800
        starts = np.concatenate([base, base - 1800])
        out = pd.DataFrame(
            {
                "window_start": pd.to_datetime(
                    np.tile(starts, 1), unit="s"
                ).astype("datetime64[us]"),
                "event_type": np.tile(df["event_type"].to_numpy(), 2),
                "cents": np.tile(_cents(df["value"]), 2),
                "n": 1,
            }
        )
        return out.groupby(["window_start", "event_type"], as_index=False).sum()

    from ray.data.aggregate import Sum

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "window_start": df["window_start"],
                "event_type": df["event_type"],
                "n_events": df["sum(n)"].astype("int64"),
                "sum_value": df["sum(cents)"] / 100.0,
            }
        )

    from .query_utils import _meta_rows

    return _preagg_native(
        ds, ["window_start", "event_type"], partial, [Sum("cents"), Sum("n")], finalize,
        input_rows=_meta_rows(sf_dir, "events"),
    )

SQL_EVENTS_HOPPING = """
SELECT to_timestamp((CAST(floor(epoch(ts) / 1800) AS BIGINT) - k.k) * 1800)::TIMESTAMP AS window_start,
       event_type, count(*) AS n_events,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_value
FROM events, (SELECT unnest(generate_series(0, 1)) AS k) k
GROUP BY 1, 2
"""

def q_events_sessionize(sf_dir: str):
    """Session windows (30-min inactivity gap) per user — the engine's
    session-window operator (new vs reference; SURVEY.md §2.9).
    Executed as ONE sort by (user_id, ts, event_id) + run-boundary
    numpy aggregation vectorized ACROSS users (``_window_by_key_arrow``
    — zero-copy Arrow blocks, no per-user Python dispatch), so user
    cardinality scaling is free."""
    from .query_utils import _window_by_key_arrow

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def sessions(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64())] * 3,
                names=["user_id", "n_sessions", "n_events"],
            )
        u = t.column("user_id").to_numpy()
        ts = (
            t.column("ts").to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        new_user = np.r_[True, u[1:] != u[:-1]]
        gap_us = np.r_[np.int64(0), ts[1:] - ts[:-1]]
        new_session = new_user | (gap_us > 1800 * 1_000_000)
        starts = np.flatnonzero(new_user)
        ends = np.r_[starts[1:], len(u)]
        return pa.Table.from_arrays(
            [
                pa.array(u[starts].astype(np.int64)),
                pa.array(np.add.reduceat(new_session.astype(np.int64), starts)),
                pa.array((ends - starts).astype(np.int64)),
            ],
            names=["user_id", "n_sessions", "n_events"],
        )

    return _window_by_key_arrow(ds, ["user_id"], ["user_id", "ts", "event_id"], sessions)

SQL_EVENTS_SESSIONIZE = """
WITH o AS (
  SELECT user_id, ts,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
), f AS (
  SELECT user_id,
         CASE WHEN prev IS NULL OR epoch(ts - prev) > 1800 THEN 1 ELSE 0 END AS new_s
  FROM o
)
SELECT user_id, CAST(sum(new_s) AS BIGINT) AS n_sessions, count(*) AS n_events
FROM f GROUP BY user_id
"""

def q_events_value_percentiles(sf_dir: str):
    """Median / p90 per event type (A5 benchmark-statistics analog).
    Exact percentiles need the full value set per group co-located, so
    this is a real ``groupby.map_groups`` (few groups, each bounded);
    at extreme group sizes swap in a t-digest sketch."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def pct(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["value"].to_numpy().astype(np.float64))
        return pd.DataFrame(
            [
                {
                    "event_type": g["event_type"].iloc[0],
                    "median_value": float(np.quantile(v, 0.5)),
                    "p90_value": float(np.quantile(v, 0.9)),
                }
            ]
        )

    return ds.groupby("event_type").map_groups(pct, batch_format="pandas")

SQL_EVENTS_VALUE_PERCENTILES = """
SELECT event_type,
       quantile_cont(value, 0.5) AS median_value,
       quantile_cont(value, 0.9) AS p90_value
FROM events GROUP BY event_type
"""

def q_events_approx_users(sf_dir: str):
    """HyperLogLog approximate distinct users, SELF-VERIFYING so the
    driver can oracle-check it: emits the exact distinct count (native
    two-level distinct path — no per-group Python) plus a flag that the
    HLL estimate landed within its 3-sigma theoretical error bound
    (sigma = 1.04/√(2^p), Flajolet et al. 2007). The DuckDB oracle
    returns the exact count and TRUE, so the value-hash matches iff the
    exact side agrees AND the sketch is in-bound. The raw estimate is
    available via stages.sketches.approx_distinct (pytest-bounded)."""
    from .query_utils import _distinct_native
    from .stages.sketches import approx_distinct

    ds = _read(sf_dir, "events", ["user_id"])
    est = int(approx_distinct(ds, "user_id", p=12)["n_distinct_approx"].iloc[0])
    exact = int(_distinct_native(ds, ["user_id"]).count())
    sigma = 1.04 / (1 << 12) ** 0.5
    ok = abs(est - exact) <= 3 * sigma * max(exact, 1)
    return ray.data.from_pandas(
        pd.DataFrame([{"n_users": exact, "within_bound": bool(ok)}])
    )

SQL_EVENTS_APPROX_USERS = """
SELECT count(DISTINCT user_id) AS n_users, TRUE AS within_bound FROM events
"""

def q_events_users_by_type_approx(sf_dir: str):
    """Per-group HyperLogLog distinct (one mergeable 2^p-byte sketch
    per event type), SELF-VERIFYING under the HLL doctrine
    (events_approx_users): emits the exact per-type distinct user
    count (native two-level distinct + run-scan count) plus a flag
    that every group's HLL estimate landed within its 3-sigma bound.
    The oracle states the exact counts and TRUE."""
    from .query_utils import _distinct_native, _window_by_key_arrow
    from .stages.sketches import approx_distinct_by

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    est = approx_distinct_by(ds, "event_type", "user_id", p=12)
    est_of = dict(zip(est["event_type"], est["n_distinct_approx"]))

    dv = _distinct_native(ds, ["event_type", "user_id"])

    def count_runs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema(
                [("event_type", pa.string()), ("n_users", pa.int64())]
            ).empty_table()
        from .query_utils import _run_starts_mask_arrow

        mask = _run_starts_mask_arrow(t, ["event_type"])
        starts = np.flatnonzero(mask)
        lens = np.diff(np.append(starts, t.num_rows))
        return pa.Table.from_arrays(
            [
                t.column("event_type").take(pa.array(starts)),
                pa.array(lens.astype(np.int64), pa.int64()),
            ],
            names=["event_type", "n_users"],
        )

    exact = (
        _window_by_key_arrow(dv, ["event_type"], ["event_type", "user_id"], count_runs)
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    sigma = 1.04 / (1 << 12) ** 0.5
    ok = all(
        abs(est_of[t] - n) <= 3 * sigma * max(n, 1)
        for t, n in zip(exact["event_type"], exact["n_users"])
    )
    exact["within_bound"] = bool(ok)
    return exact

SQL_EVENTS_USERS_BY_TYPE_APPROX = """
SELECT event_type, count(DISTINCT user_id) AS n_users, TRUE AS within_bound
FROM events GROUP BY event_type ORDER BY event_type
"""

def q_events_late_arrivals(sf_dir: str):
    """Streaming-ingest late-data audit via a distributed prefix scan
    (stages/scan.py, the two-phase Blelloch shape): watermark_i =
    running max event-time over everything that ARRIVED before row i;
    a row is LATE when it lands more than 1 hour behind the watermark
    — the event-time skew check that decides whether a streaming
    window's results can be trusted. The synthetic events table is
    already time-ordered (zero skew — the audit would be degenerate),
    so arrival order is a deterministic shuffle: arr = (event_id ·
    2654435761) mod 2^32, an odd-multiplier bijection both engines
    compute exactly. All integer arithmetic (epoch microseconds), so
    the DuckDB window-function twin matches bit-for-bit."""
    from .stages.scan import prefix_scan

    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def to_us(t: pa.Table) -> pa.Table:
        ids = t.column("event_id").cast(pa.int64()).to_numpy(zero_copy_only=False)
        arr = (ids * 2654435761) % 4294967296
        return pa.Table.from_arrays(
            [
                pa.array(arr, pa.int64()),
                pa.array(ids, pa.int64()),
                t.column("ts").cast(pa.timestamp("us")).cast(pa.int64()),
            ],
            names=["arr", "event_id", "ts_us"],
        )

    scanned = prefix_scan(
        ds.map_batches(to_us, batch_format="pyarrow"),
        ["arr"],
        "ts_us",
        op="max",
        out_col="wm_us",
    )
    lateness_us = 3_600_000_000  # 1 hour

    def classify(t: pa.Table) -> pa.Table:
        wm = t.column("wm_us").to_numpy(zero_copy_only=False)
        ts = t.column("ts_us").to_numpy(zero_copy_only=False)
        # the scan identity (int64 min) marks the global first row;
        # guard it BEFORE subtracting (int64 min - ts would wrap)
        first = wm == np.iinfo(np.int64).min
        lag = np.maximum(np.where(first, ts, wm) - ts, 0)
        return pa.Table.from_arrays(
            [
                t.column("event_id"),
                pa.array(lag, pa.int64()),
                pa.array(lag > lateness_us),
            ],
            names=["event_id", "lag_us", "is_late"],
        )

    return scanned.map_batches(classify, batch_format="pyarrow").sort("event_id")

SQL_EVENTS_LATE_ARRIVALS = """
WITH arrival AS (
  SELECT event_id, ts, (event_id * 2654435761) % 4294967296 AS arr
  FROM events
)
SELECT event_id,
       GREATEST(COALESCE(
         epoch_us(max(ts) OVER (ORDER BY arr
                                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING))
         - epoch_us(ts), 0), 0) AS lag_us,
       GREATEST(COALESCE(
         epoch_us(max(ts) OVER (ORDER BY arr
                                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING))
         - epoch_us(ts), 0), 0) > 3600000000 AS is_late
FROM arrival
ORDER BY event_id
"""

def q_events_burst_suppress(sf_dir: str):
    """Telemetry burst suppression — the throttling dedup a streaming
    ingest runs before counting: an event is KEPT only when the
    previous event of the same (user, type) is at least the cooldown
    (1 day) older; duplicates inside the window are suppressed (35% of
    rows at sf0.01). One sort co-partitions each (user, type) stream
    (`_window_by_key_arrow`), then a vectorized shifted-diff per run —
    the per-key `lag()` without per-key dispatch. Integer epoch-µs
    arithmetic, so the window-function oracle matches exactly."""
    cooldown_us = 86_400_000_000  # 1 day

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                t.column("event_id").cast(pa.int64()),
                t.column("user_id").cast(pa.int64()),
                t.column("event_type"),
                t.column("ts").cast(pa.timestamp("us")).cast(pa.int64()),
            ],
            names=["event_id", "user_id", "event_type", "ts_us"],
        )

    out_schema = pa.schema([("event_id", pa.int64()), ("kept", pa.bool_())])

    def suppress(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        from .query_utils import _run_starts_mask_arrow

        starts = _run_starts_mask_arrow(t, ["user_id", "event_type"])
        ts = t.column("ts_us").to_numpy(zero_copy_only=False)
        gap = np.empty(len(ts), dtype=np.int64)
        gap[0] = cooldown_us
        gap[1:] = ts[1:] - ts[:-1]
        kept = starts | (gap >= cooldown_us)
        return pa.Table.from_arrays(
            [t.column("event_id"), pa.array(kept)],
            names=["event_id", "kept"],
        )

    from .query_utils import _window_by_key_arrow

    return _window_by_key_arrow(
        ds.map_batches(to_us, batch_format="pyarrow"),
        ["user_id", "event_type"],
        ["user_id", "event_type", "ts_us", "event_id"],
        suppress,
    ).sort("event_id")

SQL_EVENTS_BURST_SUPPRESS = """
SELECT event_id,
       COALESCE(epoch_us(ts) - epoch_us(lag(ts) OVER (
           PARTITION BY user_id, event_type ORDER BY ts, event_id))
         >= 86400000000, TRUE) AS kept
FROM events
ORDER BY event_id
"""

def q_events_value_zscore(sf_dir: str):
    """Per-group z-score outlier flagging — grouped mean/stddev as
    EXACT integer moments (n, Σcents, Σcents², one bounded partial row
    per batch per type), broadcast, then a row-local flag pass:
    |v − mean| > 1.5·σ (sample stddev). The float path (one division,
    one multiply chain, one sqrt — all IEEE-exact ops) mirrors the SQL
    twin expression-for-expression, so the oracle matches bit-for-bit
    without trusting DuckDB's own stddev implementation. Σcents² in
    int64 holds to ~10^9 rows per group; past that the partial fold
    would move to Python ints / two-level split."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        vc = _cents(df["value"]).astype("int64")
        out = pd.DataFrame(
            {"event_type": df["event_type"], "n": 1, "s": vc, "ss": vc * vc}
        )
        return out.groupby("event_type", as_index=False).sum()

    parts = ds.map_batches(
        moments, batch_format="pandas", batch_size=65536
    ).take_all()  # bounded: one row per (block, type)
    agg: dict[str, list[int]] = {}
    for r in parts:
        a = agg.setdefault(r["event_type"], [0, 0, 0])
        a[0] += int(r["n"]); a[1] += int(r["s"]); a[2] += int(r["ss"])
    stats = {
        t: (
            s / n,  # mean (cents, double)
            1.5
            * np.sqrt((float(ss) - float(s) * float(s) / n) / (n - 1)),
        )
        for t, (n, s, ss) in agg.items()
    }
    ref = ray.put(stats)

    def flag(t: pa.Table) -> pa.Table:
        st = ray.get(ref)
        vc = np.round(
            t.column("value").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        types = t.column("event_type").to_pylist()
        mean = np.array([st[x][0] for x in types])
        thr = np.array([st[x][1] for x in types])
        out = np.abs(vc.astype(np.float64) - mean) > thr
        return pa.Table.from_arrays(
            [t.column("event_id").cast(pa.int64()), pa.array(out)],
            names=["event_id", "is_outlier"],
        )

    return ds.map_batches(flag, batch_format="pyarrow").sort("event_id")

SQL_EVENTS_VALUE_ZSCORE = """
WITH c AS (
  SELECT event_id, event_type, CAST(round(value*100) AS BIGINT) AS vc
  FROM events
),
st AS (
  SELECT event_type, count(*) AS n,
         sum(vc) AS s, sum(vc*vc) AS ss
  FROM c GROUP BY event_type
)
SELECT c.event_id,
       abs(CAST(c.vc AS DOUBLE) - CAST(st.s AS DOUBLE) / st.n)
         > 1.5 * sqrt((CAST(st.ss AS DOUBLE)
                       - CAST(st.s AS DOUBLE) * CAST(st.s AS DOUBLE) / st.n)
                      / (st.n - 1)) AS is_outlier
FROM c JOIN st USING (event_type)
ORDER BY c.event_id
"""

def q_events_table_profile(sf_dir: str):
    """Table profiler — the schema-audit pass a pipeline runs before
    trusting a new data drop: per column, null count, EXACT distinct
    count, numeric min/max (timestamps as epoch-µs; the string column
    reports NULL bounds), plus a per-column flag that the mergeable
    HLL sketch (the 10^12-scale path, where the exact pass would be
    one sort per column) landed inside its 3σ bound. Nulls/min/max
    fold into one partial row per batch (bounded driver merge);
    distinct counts run the native two-level distinct per column.
    Numeric bounds ≤ 2^53 stay exact as doubles, so the UNION-ALL
    DuckDB oracle matches bit-for-bit."""
    from .query_utils import _distinct_native
    from .stages.sketches import approx_distinct

    cols = ["event_id", "user_id", "event_type", "value", "ts"]
    ds = _read(sf_dir, "events", cols)

    def to_num(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                t.column("event_id").cast(pa.int64()).cast(pa.float64()),
                t.column("user_id").cast(pa.int64()).cast(pa.float64()),
                t.column("event_type"),
                t.column("value").cast(pa.float64()),
                t.column("ts").cast(pa.timestamp("us")).cast(pa.int64()).cast(pa.float64()),
            ],
            names=cols,
        )

    nds = ds.map_batches(to_num, batch_format="pyarrow").materialize()

    def partial(t: pa.Table) -> pa.Table:
        arrs, names = [], []
        for c in cols:
            col = t.column(c)
            nn = col.null_count
            if c == "event_type":
                mn = mx = None
            else:
                mn = pc.min(col).as_py()
                mx = pc.max(col).as_py()
            arrs += [
                pa.array([nn], pa.int64()),
                pa.array([mn], pa.float64()),
                pa.array([mx], pa.float64()),
            ]
            names += [f"nn_{c}", f"mn_{c}", f"mx_{c}"]
        return pa.Table.from_arrays(arrs, names=names)

    parts = nds.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    ).take_all()  # bounded: one tiny row per block
    sigma3 = 3 * 1.04 / (1 << 12) ** 0.5

    rows = []
    for c in cols:
        nn = sum(r[f"nn_{c}"] for r in parts)
        mns = [r[f"mn_{c}"] for r in parts if r[f"mn_{c}"] is not None]
        mxs = [r[f"mx_{c}"] for r in parts if r[f"mx_{c}"] is not None]
        exact = int(_distinct_native(nds.select_columns([c]), [c]).count())
        est = int(
            approx_distinct(nds.select_columns([c]), c, p=12)[
                "n_distinct_approx"
            ].iloc[0]
        )
        rows.append(
            {
                "column": c,
                "n_nulls": nn,
                "n_distinct": exact,
                "min_num": min(mns) if mns else None,
                "max_num": max(mxs) if mxs else None,
                "hll_ok": abs(est - exact) <= sigma3 * max(exact, 1),
            }
        )
    return pd.DataFrame(rows).sort_values("column").reset_index(drop=True)

SQL_EVENTS_TABLE_PROFILE = """
WITH n AS (
  SELECT event_id, user_id, event_type, value, epoch_us(ts) AS ts
  FROM events
)
SELECT * FROM (
  SELECT 'event_id' AS "column", count(*) - count(event_id) AS n_nulls,
         count(DISTINCT event_id) AS n_distinct,
         CAST(min(event_id) AS DOUBLE) AS min_num,
         CAST(max(event_id) AS DOUBLE) AS max_num, TRUE AS hll_ok FROM n
  UNION ALL
  SELECT 'user_id', count(*) - count(user_id), count(DISTINCT user_id),
         CAST(min(user_id) AS DOUBLE), CAST(max(user_id) AS DOUBLE), TRUE FROM n
  UNION ALL
  SELECT 'event_type', count(*) - count(event_type), count(DISTINCT event_type),
         NULL, NULL, TRUE FROM n
  UNION ALL
  SELECT 'value', count(*) - count(value), count(DISTINCT value),
         min(value), max(value), TRUE FROM n
  UNION ALL
  SELECT 'ts', count(*) - count(ts), count(DISTINCT ts),
         CAST(min(ts) AS DOUBLE), CAST(max(ts) AS DOUBLE), TRUE FROM n
) ORDER BY "column"
"""

def q_events_skyline(sf_dir: str):
    """2-D Pareto skyline of events over (value, ts) minimization —
    the earliest-and-cheapest non-dominated frontier (multi-criteria
    pruning before an expensive downstream stage). Skyline is an
    idempotent associative reduction, so it runs as a combiner
    aggregate: per-batch vectorized frontier (lexsort + run-min +
    prefix-min) kills ~everything at the read, a cascade re-reduce,
    one in-process merge of the O(log n)-sized candidate set — no
    shuffle (stages/skyline.py). Oracle: the NOT EXISTS dominance
    definition verbatim."""
    from .stages.skyline import skyline

    ds = _read(sf_dir, "events", ["event_id", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        tu = pc.cast(t.column("ts"), pa.timestamp("us")).cast(pa.int64())
        out = pa.Table.from_arrays(
            [t.column("event_id"), t.column("value"), tu],
            names=["event_id", "value", "tu"],
        )
        mask = pc.and_(
            pc.is_valid(out.column("value")), pc.is_valid(out.column("tu"))
        )
        return out.filter(mask)

    return skyline(
        ds.map_batches(prep, batch_format="pyarrow"), "value", "tu"
    ).sort("event_id")

def q_events_markov(sf_dir: str):
    """Per-user event-sequence transition counts (the first-order
    Markov matrix over event types — the sequence-mining / next-event-
    model primitive). ONE sort co-partitions each user's stream in
    time order (ties broken by event_id: a total order, so the window
    engine's unstable boundary re-sort is safe); transitions are the
    shifted-slice pairs within user runs — no per-user dispatch, no
    lag() machinery. Counts fold per block (|types|² bounded key
    space) and merge in-process, the `_preagg_native` argument."""
    from .query_utils import _run_starts_mask_arrow, _window_by_key_arrow

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        tu = pc.cast(t.column("ts"), pa.timestamp("us")).cast(pa.int64())
        return pa.Table.from_arrays(
            [t.column("user_id"), tu, t.column("event_id"),
             t.column("event_type")],
            names=["user_id", "tu", "event_id", "event_type"],
        )

    def _counts(pt: pa.Table) -> pa.Table:
        g = pt.group_by(["from_type", "to_type"]).aggregate([("n", "sum")])
        return g.rename_columns(["from_type", "to_type", "n"])

    def transitions(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "from_type": pa.array([], pa.string()),
                "to_type": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if t.num_rows < 2:
            return empty
        starts = _run_starts_mask_arrow(t, ["user_id"])
        et = t.column("event_type").combine_chunks()
        pt = pa.Table.from_arrays(
            [
                et.slice(0, t.num_rows - 1),
                et.slice(1),
                pa.array(np.ones(t.num_rows - 1, dtype=np.int64)),
            ],
            names=["from_type", "to_type", "n"],
        ).filter(pa.array(~starts[1:]))
        return _counts(pt)

    part = _window_by_key_arrow(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["user_id"],
        ["user_id", "tu", "event_id"],
        transitions,
    ).map_batches(_counts, batch_format="pyarrow", batch_size=65536)
    merged = _counts(pa.concat_tables(ray.get(part.to_arrow_refs())))
    return ray.data.from_arrow(merged).sort(["from_type", "to_type"])

def q_events_rolling_active_users(sf_dir: str):
    """Trailing-24h distinct active users per hour bucket (the rolling
    DAU/WAU engagement metric). Sliding-window DISTINCT without any
    window machinery: (hour, user) exact dedup (`_distinct_native` —
    per-batch Arrow dedup, one sort, run-scan) collapses the corpus to
    presence pairs; each pair then FANS OUT to the <=24 window buckets
    it can serve (bounded explode, filtered to observed buckets — the
    observed-hour set is calendar-bounded, merged in-process and
    captured by the filter closure, i.e. broadcast once); a second
    dedup over (bucket, user) kills multi-hour repeats; bounded-key
    counts fold per block and merge in-process. Corpus-sized data
    crosses the exchange exactly twice (the two dedup sorts) — no
    per-window state, no per-user dispatch."""
    from .query_utils import _distinct_native

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    hour_us = 3_600_000_000

    def prep(t: pa.Table) -> pa.Table:
        tu = pc.cast(t.column("ts"), pa.timestamp("us")).cast(pa.int64())
        h = pc.divide(tu, hour_us)
        return pa.Table.from_arrays(
            [h, t.column("user_id")], names=["h", "user_id"]
        )

    # Two consumers (observed-hour scan + fan-out) read the presence
    # table, so it's pinned once; it is the COMPRESSED (hour, user)
    # distinct — far smaller than the event stream — and the object
    # store spills if needed. At 10^12 events the same plan would
    # checkpoint it to parquet and read twice (the compare.py shape).
    pres = _distinct_native(
        ds.map_batches(prep, batch_format="pyarrow"), ["h", "user_id"]
    ).materialize()

    def hours_only(t: pa.Table) -> pa.Table:
        return t.select(["h"]).group_by(["h"]).aggregate([])

    observed = pa.concat_tables(
        ray.get(pres.map_batches(hours_only, batch_format="pyarrow").to_arrow_refs())
    )
    hour_set = np.unique(observed.column("h").to_numpy(zero_copy_only=False))

    def fan_out(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"hour": pa.array([], pa.int64()),
                 "user_id": pa.array([], pa.int64())}
            )
        h = t.column("h").to_numpy(zero_copy_only=False)
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        w = np.repeat(h, 24) + np.tile(np.arange(24, dtype=np.int64), len(h))
        uu = np.repeat(u, 24)
        keep = np.isin(w, hour_set)
        return pa.table(
            {"hour": pa.array(w[keep], pa.int64()),
             "user_id": pa.array(uu[keep], pa.int64())}
        )

    served = _distinct_native(
        pres.map_batches(fan_out, batch_format="pyarrow"),
        ["hour", "user_id"],
    )

    def counts(t: pa.Table) -> pa.Table:
        g = t.group_by(["hour"]).aggregate([("user_id", "count")])
        return g.rename_columns(["hour", "users_24h"])

    def recount(t: pa.Table) -> pa.Table:
        g = t.group_by(["hour"]).aggregate([("users_24h", "sum")])
        return g.rename_columns(["hour", "users_24h"])

    part = served.map_batches(
        counts, batch_format="pyarrow", batch_size=65536
    ).map_batches(recount, batch_format="pyarrow", batch_size=65536)
    merged = recount(pa.concat_tables(ray.get(part.to_arrow_refs())))
    return ray.data.from_arrow(merged).sort("hour")

def q_events_hourly_regression(sf_dir: str):
    """Grouped OLS fit + Pearson correlation of event value against
    hour-of-day — the distributed statistical-model-fit primitive
    (drift detection, seasonality screening). The entire corpus folds
    to SIX moments per group inside map_batches (n, Σx, Σy, Σxy, Σx²,
    Σy²) — sums re-reduce losslessly, so the plan is combiner →
    cascade → one in-process closed-form solve; nothing shuffles, no
    second pass. x = hour-of-day (bounded magnitude, so the moment
    formulas are numerically benign vs the oracle's streaming
    kernels)."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def fold(t: pa.Table) -> pa.Table:
        tu = pc.cast(t.column("ts"), pa.timestamp("us")).cast(pa.int64())
        ok = pc.and_(pc.is_valid(tu), pc.is_valid(t.column("value")))
        hod = (
            tu.to_numpy(zero_copy_only=False) // 3_600_000_000
        ) % 24  # no pc.mod kernel in this pyarrow
        t = pa.Table.from_arrays(
            [t.column("event_type"),
             pa.array(hod.astype(np.float64), pa.float64()),
             t.column("value")],
            names=["event_type", "x", "y"],
        ).filter(ok)
        x = t.column("x")
        y = t.column("y")
        m = pa.Table.from_arrays(
            [t.column("event_type"), x, y,
             pc.multiply(x, y), pc.multiply(x, x), pc.multiply(y, y)],
            names=["event_type", "sx", "sy", "sxy", "sxx", "syy"],
        )
        g = m.group_by(["event_type"]).aggregate(
            [("sx", "count"), ("sx", "sum"), ("sy", "sum"),
             ("sxy", "sum"), ("sxx", "sum"), ("syy", "sum")]
        )
        return g.rename_columns(
            ["event_type", "n", "sx", "sy", "sxy", "sxx", "syy"]
        )

    def refold(t: pa.Table) -> pa.Table:
        g = t.group_by(["event_type"]).aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxy", "sum"), ("sxx", "sum"), ("syy", "sum")]
        )
        return g.rename_columns(
            ["event_type", "n", "sx", "sy", "sxy", "sxx", "syy"]
        )

    part = ds.map_batches(
        fold, batch_format="pyarrow", batch_size=65536
    ).map_batches(refold, batch_format="pyarrow", batch_size=65536)
    m = refold(pa.concat_tables(ray.get(part.to_arrow_refs()))).to_pandas()
    n = m["n"].astype(float)
    cov = n * m["sxy"] - m["sx"] * m["sy"]
    varx = n * m["sxx"] - m["sx"] ** 2
    vary = n * m["syy"] - m["sy"] ** 2
    slope = cov / varx
    out = pd.DataFrame(
        {
            "event_type": m["event_type"],
            "n": m["n"].astype(np.int64),
            "slope": slope,
            "intercept": (m["sy"] - slope * m["sx"]) / n,
            "r": cov / np.sqrt(varx * vary),
        }
    ).sort_values("event_type").reset_index(drop=True)
    return ray.data.from_pandas(out)

def q_events_user_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type mix (behavioral-
    diversity scoring — the bot/spam screening analog of the docs
    quality family, and a per-entity DISTRIBUTION aggregate rather
    than a scalar one). ONE sort by (user, type) yields complete user
    groups; per-(user,type) counts AND per-user entropy both fall out
    of the same run-boundary masks via np.bincount/reduceat — no
    joins, no second pass, no per-user dispatch. User cardinality
    scales with the corpus, so the group engine is the windowed
    sort + side-channel path, never a driver fold."""
    from .query_utils import _run_starts_mask_arrow, _window_by_key_arrow

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def ent(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "entropy": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        ut_starts = np.flatnonzero(
            _run_starts_mask_arrow(t, ["user_id", "event_type"])
        )
        u_starts = np.flatnonzero(_run_starts_mask_arrow(t, ["user_id"]))
        counts = np.diff(np.append(ut_starts, t.num_rows)).astype(np.float64)
        urid = np.searchsorted(u_starts, ut_starts, side="right") - 1
        tot = np.bincount(urid, weights=counts)
        p = counts / tot[urid]
        entropy = np.bincount(urid, weights=-p * np.log(p))
        uids = t.column("user_id").take(pa.array(u_starts))
        return pa.table(
            {
                "user_id": uids,
                "n_events": pa.array(tot.astype(np.int64), pa.int64()),
                "entropy": pa.array(entropy, pa.float64()),
            }
        )

    return _window_by_key_arrow(
        ds, ["user_id"], ["user_id", "event_type"], ent
    ).sort("user_id")

def q_events_chi2_independence(sf_dir: str):
    """Chi-square independence screen over the (isodow × event_type)
    contingency table — the feature-relevance / drift hypothesis test
    a monitoring pipeline runs per dimension pair. The corpus folds to
    bounded-cardinality cell counts inside map_batches (the combiner);
    marginals, expected counts and per-cell χ² contributions are
    closed-form on the merged 35-cell table in-process. One scan, no
    shuffle. Emits per-cell rows (observed, expected, chi2_term) so
    the oracle hash pins every contribution, not just the statistic."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "dow": df["ts"].dt.isocalendar().day.astype("int64"),
                "event_type": df["event_type"],
                "n": 1,
            }
        )
        return out.groupby(["dow", "event_type"], as_index=False).sum()

    part = ds.map_batches(
        partial, batch_format="pandas", batch_size=65536
    ).map_batches(partial_merge := (
        lambda df: df.groupby(["dow", "event_type"], as_index=False).sum()
    ), batch_format="pandas", batch_size=65536)
    fine = partial_merge(part.to_pandas())
    nn = float(fine["n"].sum())
    rn = fine.groupby("event_type")["n"].transform("sum").astype(float)
    cn = fine.groupby("dow")["n"].transform("sum").astype(float)
    exp = rn * cn / nn
    out = pd.DataFrame(
        {
            "event_type": fine["event_type"],
            "dow": fine["dow"].astype(np.int64),
            "n": fine["n"].astype(np.int64),
            "expected": exp,
            "chi2_term": (fine["n"] - exp) ** 2 / exp,
        }
    ).sort_values(["event_type", "dow"]).reset_index(drop=True)
    return ray.data.from_pandas(out)

SQL_EVENTS_CHI2_INDEPENDENCE = """
WITH c AS (
  SELECT event_type, CAST(isodow(ts) AS BIGINT) AS dow, count(*) AS n
  FROM events GROUP BY 1, 2
),
tot AS (SELECT CAST(sum(n) AS DOUBLE) AS nn FROM c),
rt AS (SELECT event_type, CAST(sum(n) AS DOUBLE) AS rn FROM c GROUP BY 1),
ct AS (SELECT dow, CAST(sum(n) AS DOUBLE) AS cn FROM c GROUP BY 1)
SELECT c.event_type, c.dow, c.n,
       rn * cn / nn AS expected,
       (c.n - rn * cn / nn) * (c.n - rn * cn / nn) / (rn * cn / nn)
         AS chi2_term
FROM c JOIN rt USING (event_type) JOIN ct USING (dow) CROSS JOIN tot
ORDER BY event_type, dow
"""

SQL_EVENTS_USER_ENTROPY = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n FROM events GROUP BY 1, 2
),
u AS (SELECT user_id, sum(n) AS tot FROM c GROUP BY 1)
SELECT c.user_id, CAST(u.tot AS BIGINT) AS n_events,
       -sum((n / tot) * ln(n / tot)) AS entropy
FROM c JOIN u USING (user_id)
GROUP BY c.user_id, u.tot
ORDER BY user_id
"""

SQL_EVENTS_HOURLY_REGRESSION = """
WITH t AS (
  SELECT event_type,
         CAST((epoch_us(ts) // 3600000000) % 24 AS DOUBLE) AS x,
         value AS y
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
)
SELECT event_type, COUNT(*) AS n, regr_slope(y, x) AS slope,
       regr_intercept(y, x) AS intercept, corr(y, x) AS r
FROM t GROUP BY event_type ORDER BY event_type
"""

SQL_EVENTS_ROLLING_ACTIVE_USERS = """
WITH du AS (
  SELECT DISTINCT CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS h, user_id
  FROM events
),
hrs AS (SELECT DISTINCT h FROM du)
SELECT hrs.h AS hour, COUNT(DISTINCT du.user_id) AS users_24h
FROM hrs JOIN du ON du.h BETWEEN hrs.h - 23 AND hrs.h
GROUP BY hrs.h
ORDER BY hour
"""

SQL_EVENTS_MARKOV = """
WITH s AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS prev
  FROM events
)
SELECT prev AS from_type, event_type AS to_type, COUNT(*) AS n
FROM s WHERE prev IS NOT NULL
GROUP BY prev, event_type
ORDER BY from_type, to_type
"""

SQL_EVENTS_SKYLINE = """
WITH t AS (
  SELECT event_id, value, epoch_us(ts) AS tu
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
)
SELECT a.event_id, a.value, a.tu
FROM t a
WHERE NOT EXISTS (
  SELECT 1 FROM t b
  WHERE b.value <= a.value AND b.tu <= a.tu
    AND (b.value < a.value OR b.tu < a.tu)
)
ORDER BY event_id
"""

def q_events_value_percentiles_approx(sf_dir: str):
    """Histogram-sketch approximate percentiles per event type,
    SELF-VERIFYING so the driver can oracle-check it (same pattern as
    events_approx_users/HLL): emits the exact per-group quantiles plus
    a flag that each sketch estimate landed within its deterministic
    error bound (2 bin widths = 2·(max−min)/4096 — the interpolated
    estimate mixes two order statistics, each inside its true bin).
    The DuckDB oracle returns the exact quantiles and TRUE, so the
    value-hash matches iff the exact side agrees AND the sketch is
    in-bound. The scale path for events_value_percentiles — per-batch
    histograms merge by sum, nothing sorts."""
    from .stages.sketches import approx_quantiles

    ds = _read(sf_dir, "events", ["event_type", "value"])
    approx = approx_quantiles(ds, "value", by="event_type", qs=(0.5, 0.9))
    exact = q_events_value_percentiles(sf_dir).to_pandas()
    m = exact.merge(approx, on="event_type")
    ok = (
        ((m["q50"] - m["median_value"]).abs() <= 2 * m["bin_width"] + 1e-9)
        & ((m["q90"] - m["p90_value"]).abs() <= 2 * m["bin_width"] + 1e-9)
    )
    out = pd.DataFrame(
        {
            "event_type": m["event_type"],
            "median_value": m["median_value"],
            "p90_value": m["p90_value"],
            "approx_within_bound": ok.astype(bool),
        }
    )
    return ray.data.from_pandas(out)

SQL_EVENTS_VALUE_PERCENTILES_APPROX = """
SELECT event_type,
       quantile_cont(value, 0.5) AS median_value,
       quantile_cont(value, 0.9) AS p90_value,
       TRUE AS approx_within_bound
FROM events GROUP BY event_type
"""

def q_events_clicks_before_purchase(sf_dir: str):
    """Interval/range join (self): for every purchase, the number of
    clicks by the same user in the preceding 10 minutes. One sort
    co-partitions both sides by (user_id, ts); inside each user run
    the range lookup is two vectorized searchsorted calls — the
    engine's range-join shape (no per-user dispatch, no quadratic
    pair explosion)."""
    from .query_utils import _window_by_key_arrow

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    ds = ds.filter(expr="event_type == 'click' or event_type == 'purchase'")

    def range_count(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64())] * 2,
                names=["event_id", "n_clicks_10m"],
            )
        import pyarrow.compute as pc

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
        out_id: list = []
        out_n: list = []
        win = 10 * 60 * 1_000_000
        for s, e in zip(starts.tolist(), ends.tolist()):
            cm = is_click[s:e]
            if not (~cm).any():
                continue
            ct = ts[s:e][cm]
            pt = ts[s:e][~cm]
            lo = np.searchsorted(ct, pt - win, side="left")
            hi = np.searchsorted(ct, pt, side="left")  # strictly before
            out_id.extend(eid[s:e][~cm])
            out_n.extend(hi - lo)
        return pa.Table.from_arrays(
            [
                pa.array(np.asarray(out_id, dtype=np.int64)),
                pa.array(np.asarray(out_n, dtype=np.int64)),
            ],
            names=["event_id", "n_clicks_10m"],
        )

    return _window_by_key_arrow(ds, ["user_id"], ["user_id", "ts", "event_id"], range_count)

SQL_EVENTS_CLICKS_BEFORE_PURCHASE = """
SELECT p.event_id,
       CAST(count(c.event_id) AS BIGINT) AS n_clicks_10m
FROM events p
LEFT JOIN events c
  ON c.user_id = p.user_id AND c.event_type = 'click'
 AND c.ts >= p.ts - INTERVAL 10 MINUTE AND c.ts < p.ts
WHERE p.event_type = 'purchase'
GROUP BY p.event_id
"""

def q_events_dow_type_cube(sf_dir: str):
    """CUBE / GROUPING SETS: counts + value sums at every grouping
    level of (isodow, event_type) — (both), (dow), (type), (grand
    total) — derived from ONE set of fine-level partials; the three
    coarser levels are re-aggregations of the merged fine level, so
    the input is scanned exactly once. Subsumes the retired
    events_dow_rollup (= the fine level) and events_rollup_total
    (= the type margin + grand total)."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "dow": df["ts"].dt.isocalendar().day.astype("int64").astype(str),
                "event_type": df["event_type"],
                "cents": _cents(df["value"]),
                "n": 1,
            }
        )
        return out.groupby(["dow", "event_type"], as_index=False).sum()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        agg = {"n": ("n", "sum"), "cents": ("cents", "sum")}
        fine = df.groupby(["dow", "event_type"], as_index=False).agg(**agg)
        by_dow = fine.groupby("dow", as_index=False).agg(**agg)
        by_dow["event_type"] = "ALL"
        by_type = fine.groupby("event_type", as_index=False).agg(**agg)
        by_type["dow"] = "ALL"
        total = pd.DataFrame(
            [{"dow": "ALL", "event_type": "ALL", "n": int(fine["n"].sum()),
              "cents": int(fine["cents"].sum())}]
        )
        out = pd.concat([fine, by_dow, by_type, total], ignore_index=True)
        return pd.DataFrame(
            {
                "dow": out["dow"],
                "event_type": out["event_type"],
                "n_events": out["n"].astype("int64"),
                "sum_value": out["cents"] / 100.0,
            }
        )

    part = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    return part.repartition(1).map_batches(merge, batch_format="pandas", batch_size=None)

SQL_EVENTS_DOW_TYPE_CUBE = """
SELECT coalesce(CAST(isodow(ts) AS VARCHAR), 'ALL') AS dow,
       coalesce(event_type, 'ALL') AS event_type,
       count(*) AS n_events,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_value
FROM events GROUP BY CUBE (isodow(ts), event_type)
"""

def q_events_props_extract(sf_dir: str):
    """Per-row JSON extraction (dot-path getter, M15 analog)."""
    from .functions.paths import get_path

    ds = _read(sf_dir, "events", ["event_id", "props"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ks = [get_path(_json.loads(p), "k") if p else None for p in df["props"]]
        return pd.DataFrame({"event_id": df["event_id"], "k_value": pd.array(ks, dtype="int64")})

    return ds.map_batches(fn, batch_format="pandas")

SQL_EVENTS_PROPS = """
SELECT event_id, CAST(json_extract_string(props, '$.k') AS BIGINT) AS k_value
FROM events
"""

def q_events_range_pruned(sf_dir: str):
    """Time-window analytics THROUGH the range-partitioned zone-map
    layout (state/ranged.py): events written ONCE into day-width
    ``r=<id>/`` partitions (idempotent /tmp cache keyed on the input
    CONTENT fingerprint, atomic rename — the bucketed-layout
    discipline), then the [2024-01-08, 2024-01-15) window opens ONLY
    the 7 overlapping day partitions (directory-name zone map + exact
    residual filter) and aggregates per event type. The oracle is a
    plain WHERE-range over the full table, so the value hash pins
    layout + pruning + residual-filter correctness end-to-end."""
    import hashlib
    import os

    from ray.data.aggregate import Sum

    from .state.ranged import DAY_US, read_range, write_range_partitioned
    from .state.shards import input_file_fingerprint

    fp = sf_dir + "|" + input_file_fingerprint(f"{sf_dir}/events.parquet")
    dest = f"/tmp/fa_ranged_{hashlib.md5(fp.encode()).hexdigest()[:8]}/events"
    if not os.path.isdir(dest):
        import shutil

        tmp = dest + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        write_range_partitioned(
            _read(sf_dir, "events", ["ts", "event_type", "value"]),
            tmp, "ts", DAY_US,
        )
        try:
            os.rename(tmp, dest)
        except OSError:
            # a concurrent run won the rename race: its layout is
            # content-identical (same fingerprint tag) — use it
            if not os.path.isdir(dest):
                raise
            shutil.rmtree(tmp, ignore_errors=True)

    lo = 1_704_672_000_000_000  # 2024-01-08T00:00:00 epoch-us
    hi = 1_705_276_800_000_000  # 2024-01-15T00:00:00
    ds = read_range(dest, "ts", lo, hi, DAY_US, columns=["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"event_type": df["event_type"], "cents": _cents(df["value"]), "n": 1}
        )
        return out.groupby("event_type", as_index=False).agg(
            cents=("cents", "sum"), n=("n", "sum")
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "n_events": df["sum(n)"].astype("int64"),
                "sum_value": df["sum(cents)"] / 100.0,
            }
        )

    return _preagg_native(ds, ["event_type"], partial, [Sum("cents"), Sum("n")], finalize)

SQL_EVENTS_RANGE_PRUNED = """
SELECT event_type, count(*) AS n_events,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_value
FROM events
WHERE ts >= TIMESTAMP '2024-01-08' AND ts < TIMESTAMP '2024-01-15'
GROUP BY event_type
"""

def q_events_zorder_pruned(sf_dir: str):
    """2-D rectangle analytics THROUGH the Z-order (Morton) layout
    (state/zorder.py, the Delta/Iceberg ZORDER BY shape): events
    written ONCE into ``z=<morton>/`` cells interleaving quantized
    (user_id, ts) bits, then the rectangle "first third of users ×
    [2024-01-08, 2024-01-15)" opens ONLY its overlapping cells
    (directory-name pruning + exact residual filter) and aggregates
    per event type. The 1-D range layout (events_range_pruned) prunes
    time but scans every user; Z-ordering makes the read proportional
    to the rectangle's AREA. Oracle = the same predicate over the full
    table, so the hash pins layout + cell enumeration + residual
    filter end-to-end. Layout cache keyed on the input CONTENT
    fingerprint (the bucketed-layout discipline)."""
    import hashlib
    import math
    import os

    from ray.data.aggregate import Sum

    from .state.shards import input_file_fingerprint
    from .state.zorder import _footer_min_max, read_rect, write_zorder

    src = f"{sf_dir}/events.parquet"
    u_lo, u_hi = _footer_min_max(src, "user_id")
    # fixed covering range for the time axis (the corpus is Jan 2024 at
    # every sf tier; out-of-range values would only clamp to edge cells)
    T0 = 1_704_067_200_000_000  # 2024-01-01T00:00:00 epoch-us
    T1 = 1_706_745_600_000_000  # 2024-02-01T00:00:00

    fp = sf_dir + "|z|" + input_file_fingerprint(src)
    dest = f"/tmp/fa_zorder_{hashlib.md5(fp.encode()).hexdigest()[:8]}/events"
    if not os.path.isdir(dest):
        import shutil

        tmp = dest + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(os.path.dirname(dest), exist_ok=True)

        def to_us(t: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [
                    t.column("user_id").cast(pa.int64()),
                    t.column("ts").cast(pa.timestamp("us")).cast(pa.int64()),
                    t.column("event_type"),
                    t.column("value"),
                ],
                names=["user_id", "ts_us", "event_type", "value"],
            )

        write_zorder(
            _read(sf_dir, "events", ["user_id", "ts", "event_type", "value"])
            .map_batches(to_us, batch_format="pyarrow"),
            tmp, "user_id", "ts_us",
            x_range=(u_lo, u_hi), y_range=(T0, T1 - 1),
        )
        try:
            os.rename(tmp, dest)
        except OSError:
            if not os.path.isdir(dest):
                raise
            shutil.rmtree(tmp, ignore_errors=True)

    x_hi = math.ceil((u_hi + 1) / 3.0)  # first third of the user space
    lo = 1_704_672_000_000_000  # 2024-01-08T00:00:00 epoch-us
    hi = 1_705_276_800_000_000  # 2024-01-15T00:00:00
    ds = read_rect(dest, 0, x_hi, lo, hi)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"event_type": df["event_type"], "cents": _cents(df["value"]), "n": 1}
        )
        return out.groupby("event_type", as_index=False).agg(
            cents=("cents", "sum"), n=("n", "sum")
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "n_events": df["sum(n)"].astype("int64"),
                "sum_value": df["sum(cents)"] / 100.0,
            }
        )

    return _preagg_native(ds, ["event_type"], partial, [Sum("cents"), Sum("n")], finalize)

SQL_EVENTS_ZORDER_PRUNED = """
SELECT event_type, count(*) AS n_events,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_value
FROM events
WHERE user_id < CAST(ceil((SELECT max(user_id) + 1 FROM events) / 3.0) AS BIGINT)
  AND ts >= TIMESTAMP '2024-01-08' AND ts < TIMESTAMP '2024-01-15'
GROUP BY event_type
"""

def q_events_interval_join(sf_dir: str):
    """Distributed interval (range) join (stages/interval.py): activity
    attribution — for every purchase by a sampled user cohort
    (user_id % 50 == 0), count ALL events inside the 2-hour window
    starting at the purchase. No equality key exists; the operator
    auto-selects broadcast-searchsorted (small window side, zero
    shuffle — what this cohort triggers) vs bin-overlap sorted runs
    (corpus-sized window side: 4-hour bins tag both sides, ONE sort by
    bin, per-bin searchsorted counts), both ending in a sort+run-scan
    sum that also zero-fills. The oracle is a plain range-predicate LEFT JOIN
    (DuckDB's IEJoin); the paths are equality-tested against each
    other and brute force in tests/test_interval.py."""
    from .stages.interval import interval_join_count

    TWO_H = 7_200_000_000
    FOUR_H = 14_400_000_000
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def windows(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        mask = (et == "purchase") & (uid % 50 == 0)
        kept = t.filter(pa.array(mask))
        ts = kept.column("ts").cast(pa.int64())
        return pa.Table.from_arrays(
            [kept.column("event_id").cast(pa.int64()), ts,
             pc.add(ts, TWO_H)],
            names=["window_id", "w_start", "w_end"],
        )

    w = ev.map_batches(windows, batch_format="pyarrow")
    return interval_join_count(
        ev.select_columns(["ts"]), w,
        ts_col="ts", id_col="window_id",
        start_col="w_start", end_col="w_end", width=FOUR_H,
    )

SQL_EVENTS_INTERVAL_JOIN = """
WITH w AS (
  SELECT event_id AS window_id, ts AS w_start, ts + INTERVAL 2 HOUR AS w_end
  FROM events WHERE event_type = 'purchase' AND user_id % 50 = 0
)
SELECT w.window_id, count(e.event_id) AS n_points
FROM w LEFT JOIN events e ON e.ts >= w.w_start AND e.ts < w.w_end
GROUP BY w.window_id
"""

def q_events_upsert_compact(sf_dir: str):
    """Last-writer-wins compaction (stages/compaction.py): the
    lakehouse MERGE kernel — one row per user, the newest event by
    (ts, event_id). ONE sort + run-scan keep-last; the oracle is the
    classic row_number()=1 window, so the hash pins key grouping,
    order-tuple comparison and the tie-break end-to-end."""
    from .stages.compaction import latest_per_key

    ev = _read(
        sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"]
    )
    return latest_per_key(ev, ["user_id"], ["ts", "event_id"])

SQL_EVENTS_UPSERT_COMPACT = """
SELECT event_id, ts, user_id, event_type, value
FROM (
  SELECT event_id, ts, user_id, event_type, value,
         row_number() OVER (
           PARTITION BY user_id ORDER BY ts DESC, event_id DESC
         ) AS rn
  FROM events
)
WHERE rn = 1
"""

def q_events_welch_ttest(sf_dir: str):
    """Welch two-sample t-test (unequal variances) between the 'click'
    and 'purchase' value distributions — the continuous-outcome A/B
    hypothesis test beside the categorical chi-square screen. The
    corpus folds to SIX scalars (n, Σcents, Σcents² per group) inside
    map_batches — cents are integers so both engines hold EXACT sums
    (Σc² < 2⁵³ through ~10⁹ rows at these magnitudes; shard the fold
    past that) — and the t statistic + Welch–Satterthwaite dof are
    closed forms evaluated with the identical IEEE expression order as
    the SQL twin. One streaming pass, no shuffle."""
    a_type, b_type = "click", "purchase"
    ds = _read(sf_dir, "events", ["event_type", "value"])

    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sel = df[df["event_type"].isin([a_type, b_type]) & df["value"].notna()]
        cents = _cents(sel["value"])
        out = pd.DataFrame(
            {
                "event_type": sel["event_type"].to_numpy(),
                "n": 1,
                "s1": cents,
                "s2": cents.astype(np.float64) ** 2,
            }
        )
        return out.groupby("event_type", as_index=False).sum()

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        stats = {
            et: (int(n), float(s1), float(s2))
            for et, n, s1, s2 in zip(
                df["event_type"], df["sum(n)"], df["sum(s1)"], df["sum(s2)"]
            )
        }
        n1, a1, a2 = stats[a_type]
        n2, b1, b2 = stats[b_type]
        m1 = (a1 / 100.0) / n1
        m2 = (b1 / 100.0) / n2
        v1 = (a2 / 10000.0 - n1 * m1 * m1) / (n1 - 1)
        v2 = (b2 / 10000.0 - n2 * m2 * m2) / (n2 - 1)
        se2 = v1 / n1 + v2 / n2
        t = (m1 - m2) / np.sqrt(se2)
        # explicit x*x (not **2): guaranteed the same correctly-rounded
        # square the SQL twin's (v/n)*(v/n) computes
        dof = se2 * se2 / (
            (v1 / n1) * (v1 / n1) / (n1 - 1)
            + (v2 / n2) * (v2 / n2) / (n2 - 1)
        )
        return pd.DataFrame(
            [
                {
                    "group_a": a_type,
                    "group_b": b_type,
                    "n_a": n1,
                    "n_b": n2,
                    "mean_a": m1,
                    "mean_b": m2,
                    "var_a": v1,
                    "var_b": v2,
                    "t_stat": float(t),
                    "welch_dof": float(dof),
                }
            ]
        )

    return _preagg_native(
        ds, ["event_type"], partial, [Sum("n"), Sum("s1"), Sum("s2")], finalize
    )

SQL_EVENTS_WELCH_TTEST = """
WITH m AS (
  SELECT event_type, count(*) AS n,
         sum(CAST(round(value * 100) AS BIGINT)) AS s1,
         sum(CAST(round(value * 100) AS BIGINT)
             * CAST(round(value * 100) AS BIGINT)) AS s2
  FROM events
  WHERE event_type IN ('click', 'purchase') AND value IS NOT NULL
  GROUP BY 1
),
s AS (
  SELECT event_type, n,
         (s1 / 100.0) / n AS mean,
         (s2 / 10000.0 - n * ((s1 / 100.0) / n) * ((s1 / 100.0) / n))
           / (n - 1) AS var
  FROM m
),
ab AS (
  SELECT a.n AS n1, b.n AS n2, a.mean AS m1, b.mean AS m2,
         a.var AS v1, b.var AS v2,
         a.var / a.n + b.var / b.n AS se2
  FROM (SELECT * FROM s WHERE event_type = 'click') a,
       (SELECT * FROM s WHERE event_type = 'purchase') b
)
SELECT 'click' AS group_a, 'purchase' AS group_b,
       CAST(n1 AS BIGINT) AS n_a, CAST(n2 AS BIGINT) AS n_b,
       m1 AS mean_a, m2 AS mean_b, v1 AS var_a, v2 AS var_b,
       (m1 - m2) / sqrt(se2) AS t_stat,
       se2 * se2 / ((v1 / n1) * (v1 / n1) / (n1 - 1)
                    + (v2 / n2) * (v2 / n2) / (n2 - 1)) AS welch_dof
FROM ab
"""

def q_events_user_gini(sf_dir: str):
    """Gini coefficient of the per-user activity distribution — the
    concentration / skew observability statistic (is the corpus 1%% of
    users?) a pipeline checks before trusting per-user sampling. A
    SECOND-ORDER aggregate: first per-user counts (corpus-scaled keys
    → the windowed sort+run-scan merge), then a statistic over the
    ORDERED count distribution, Σ i·xᵢ with global ascending ranks.
    The rank-weighted sum needs no per-row rank materialization:
    Σ(offset+j)·xⱼ = Σj·xⱼ + offset·Σxⱼ, so each sorted block emits
    three scalars and the driver folds the #blocks-bounded summary in
    order (the prefix-scan shape collapsed to one phase). Every sum is
    integer-exact; the final expression is evaluated with the same
    IEEE op order as the SQL twin."""
    from .query_utils import _run_starts_mask_arrow, _window_by_key_arrow

    ds = _read(sf_dir, "events", ["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["user_id"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "n"])

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["user_id"]))
        sums = np.add.reduceat(t.column("n").to_numpy(), starts)
        return pa.table(
            {
                "user_id": t.column("user_id").take(pa.array(starts)),
                "n": pa.array(sums, pa.int64()),
            }
        )

    counts = _window_by_key_arrow(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"],
        ["user_id"],
        merge,
    )
    s = counts.sort(["n", "user_id"]).materialize()

    def block_summary(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "first_n": pa.array([], pa.int64()),
                    "first_uid": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                    "sum_x": pa.array([], pa.int64()),
                    "sum_jx": pa.array([], pa.int64()),
                }
            )
        x = t.column("n").to_numpy()
        j = np.arange(1, len(x) + 1, dtype=np.int64)
        return pa.table(
            {
                "first_n": pa.array([int(x[0])], pa.int64()),
                "first_uid": pa.array(
                    [int(t.column("user_id")[0].as_py())], pa.int64()
                ),
                "cnt": pa.array([len(x)], pa.int64()),
                "sum_x": pa.array([int(x.sum())], pa.int64()),
                "sum_jx": pa.array([int((j * x).sum())], pa.int64()),
            }
        )

    blocks = s.map_batches(
        block_summary, batch_format="pyarrow", batch_size=None
    ).take_all()  # bounded: one row per block
    blocks.sort(key=lambda b: (b["first_n"], b["first_uid"]))
    S = tot = cnt = 0
    for b in blocks:
        S += b["sum_jx"] + cnt * b["sum_x"]
        cnt += b["cnt"]
        tot += b["sum_x"]
    gini = (2.0 * S) / (cnt * tot) - (cnt + 1.0) / cnt
    return ray.data.from_arrow(
        pa.table(
            {
                "n_users": pa.array([cnt], pa.int64()),
                "n_events": pa.array([tot], pa.int64()),
                "gini": pa.array([gini], pa.float64()),
            }
        )
    )

SQL_EVENTS_USER_GINI = """
WITH c AS (SELECT user_id, count(*) AS n FROM events GROUP BY 1),
r AS (
  SELECT n, row_number() OVER (ORDER BY n, user_id) AS i FROM c
)
SELECT CAST(count(*) AS BIGINT) AS n_users,
       CAST(sum(n) AS BIGINT) AS n_events,
       (2.0 * sum(i * n)) / (count(*) * sum(n))
         - (count(*) + 1.0) / count(*) AS gini
FROM r
"""

def q_events_winsorize(sf_dir: str):
    """Per-group winsorization (robust feature clipping at the exact
    p05/p95 NEAREST-RANK order statistics) — the outlier-taming
    transform run before a model sees heavy-tailed values. The exact
    per-type thresholds come from a distributed rank SELECTION, not a
    per-group materialization: ONE sort by (type, value, id)
    materialized → per-block per-type count summary (#blocks×|types|
    rows) → the driver folds block offsets and addresses each block's
    carry-in by its first sort key → a second streaming pass over the
    SAME blocks picks exactly the rows whose in-type global rank hits
    ceil(q·n) (the prefix-scan two-phase shape, specialised to
    selection). Thresholds (2×|types|) broadcast; the clip pass is
    row-local Arrow min/max."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def drop_null(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t.column("value")))

    clean = ds.map_batches(drop_null, batch_format="pyarrow")
    s = clean.sort(["event_type", "value", "event_id"]).materialize()

    def block_summary(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "first_type": pa.array([], pa.string()),
                "first_value": pa.array([], pa.float64()),
                "first_id": pa.array([], pa.int64()),
                "event_type": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        from .query_utils import _run_starts_mask_arrow

        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["event_type"]))
        lens = np.diff(np.append(starts, t.num_rows))
        k = len(starts)
        return pa.table(
            {
                "first_type": pa.array(
                    [str(t.column("event_type")[0].as_py())] * k, pa.string()
                ),
                "first_value": pa.array(
                    np.full(k, float(t.column("value")[0].as_py())),
                    pa.float64(),
                ),
                "first_id": pa.array(
                    np.full(k, int(t.column("event_id")[0].as_py()), np.int64),
                    pa.int64(),
                ),
                "event_type": t.column("event_type").take(pa.array(starts)),
                "cnt": pa.array(lens, pa.int64()),
            }
        )

    # blocks-bounded: (#blocks × |types|) rows; fold offsets in BLOCK
    # order = the sort order of each block's FULL first sort key
    # (event_type, value, event_id) — event_id alone does NOT order
    # blocks, ids are uncorrelated with the (type, value) sort
    summary = s.map_batches(
        block_summary, batch_format="pyarrow", batch_size=None
    ).take_all()
    order = {}
    for row in summary:
        key = (row["first_type"], row["first_value"], row["first_id"])
        order.setdefault(key, []).append(row)
    n_per_type: dict = {}
    carry_per_block: dict = {}
    for key in sorted(order):
        carry_per_block[key[2]] = dict(n_per_type)
        for row in order[key]:
            n_per_type[row["event_type"]] = (
                n_per_type.get(row["event_type"], 0) + row["cnt"]
            )
    # exact integer ceil((q·n)): (q100·n + 99) // 100 — NOT float
    # ceil(0.05*n), whose binary representation error flips the rank at
    # n multiples of 20 (0.05*300 = 15.000000000000002 → ceil 16)
    targets = {
        et: (
            max(1, (5 * n + 99) // 100),
            max(1, (95 * n + 99) // 100),
        )
        for et, n in n_per_type.items()
    }
    cref = ray.put((carry_per_block, targets))

    def pick(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "which": pa.array([], pa.string()),
                "threshold": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        from .query_utils import _run_starts_mask_arrow

        carry_all, tgt = ray.get(cref)
        carry = carry_all[int(t.column("event_id")[0].as_py())]
        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["event_type"]))
        run_of = (
            np.searchsorted(starts, np.arange(t.num_rows), side="right") - 1
        )
        pos = np.arange(t.num_rows) - starts[run_of] + 1  # 1-based in block
        types = t.column("event_type").to_numpy(zero_copy_only=False)
        vals = t.column("value").to_numpy()
        out_t, out_w, out_v = [], [], []
        for ri, st in enumerate(starts):
            et = types[st]
            off = carry.get(et, 0)
            lo_k, hi_k = tgt[et]
            run = run_of == ri
            grank = pos[run] + off
            for which, k in (("lo", lo_k), ("hi", hi_k)):
                hit = np.flatnonzero(grank == k)
                if len(hit):
                    out_t.append(et)
                    out_w.append(which)
                    out_v.append(float(vals[run][hit[0]]))
        return pa.table(
            {
                "event_type": pa.array(out_t, pa.string()),
                "which": pa.array(out_w, pa.string()),
                "threshold": pa.array(out_v, pa.float64()),
            }
        )

    th_rows = s.map_batches(
        pick, batch_format="pyarrow", batch_size=None
    ).take_all()  # bounded: 2 × |types|
    lo = {r["event_type"]: r["threshold"] for r in th_rows if r["which"] == "lo"}
    hi = {r["event_type"]: r["threshold"] for r in th_rows if r["which"] == "hi"}
    tref = ray.put((lo, hi))

    def clip(t: pa.Table) -> pa.Table:
        lo_, hi_ = ray.get(tref)
        types = t.column("event_type").to_numpy(zero_copy_only=False)
        vals = t.column("value").to_numpy()
        lo_arr = np.array([lo_[et] for et in types])
        hi_arr = np.array([hi_[et] for et in types])
        return t.append_column(
            "value_winsor",
            pa.array(np.minimum(np.maximum(vals, lo_arr), hi_arr)),
        )

    return clean.map_batches(clip, batch_format="pyarrow").sort("event_id")

SQL_EVENTS_WINSORIZE = """
WITH sel AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY value, event_id) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM events WHERE value IS NOT NULL
),
th AS (
  SELECT event_type,
         max(CASE WHEN rn = greatest(1, (5 * n + 99) // 100)
                  THEN value END) AS lo,
         max(CASE WHEN rn = greatest(1, (95 * n + 99) // 100)
                  THEN value END) AS hi
  FROM sel GROUP BY 1
)
SELECT e.event_id, e.event_type, e.value,
       least(greatest(e.value, t.lo), t.hi) AS value_winsor
FROM events e JOIN th t USING (event_type)
WHERE e.value IS NOT NULL
ORDER BY e.event_id
"""

def q_events_user_ewma(sf_dir: str):
    """Per-user exponentially-decayed value sum (decay ½ per event,
    latest weight 1) — the streaming feature-engineering aggregate
    behind recency-weighted user scores (fraud / engagement models).
    ONE sort by (user_id, ts, event_id) yields complete time-ordered
    user runs; the decayed sum is a vectorized 2^-k weighting +
    bincount fold per run — no per-user state, no second pass. Decay
    ½ makes every weight an exact power of two, so both engines scale
    each value EXACTLY and only the summation order differs (~1e-13,
    inside the 1e-9 gate)."""
    from .query_utils import _run_starts_mask_arrow, _window_by_key_arrow

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def drop_nulls(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.and_(
                pc.is_valid(t.column("value")), pc.is_valid(t.column("ts"))
            )
        )

    def fold(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "decayed_sum": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["user_id"]))
        n = t.num_rows
        lens = np.diff(np.append(starts, n))
        run_of = np.searchsorted(starts, np.arange(n), side="right") - 1
        pos = np.arange(n) - starts[run_of]  # 0-based rank in time order
        expo = (lens[run_of] - 1 - pos).astype(np.float64)
        vals = t.column("value").to_numpy()
        decayed = np.bincount(
            run_of, weights=vals * np.exp2(-expo), minlength=len(starts)
        )
        return pa.table(
            {
                "user_id": t.column("user_id").take(pa.array(starts)),
                "n_events": pa.array(lens, pa.int64()),
                "decayed_sum": pa.array(decayed, pa.float64()),
            }
        )

    clean = ds.map_batches(drop_nulls, batch_format="pyarrow")
    return _window_by_key_arrow(
        clean, ["user_id"], ["user_id", "ts", "event_id"], fold
    ).sort("user_id")

SQL_EVENTS_USER_EWMA = """
WITH t AS (
  SELECT user_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
)
SELECT user_id, CAST(max(n) AS BIGINT) AS n_events,
       sum(value * pow(0.5, n - rn)) AS decayed_sum
FROM t GROUP BY user_id ORDER BY user_id
"""

def q_events_dp_counts(sf_dir: str):
    """ε-differentially-private event-type counts via the Laplace
    mechanism (Dwork et al. '06) — the privacy-preserving release
    family the engine lacked. The noise draw is HASH-SEEDED so the
    release is reproducible AND the SQL twin recomputes the identical
    value: u = (h + 0.5) / 2³², h = first 8 md5 hex digits of
    seed‖event_type, noise = −(1/ε)·sign(u−½)·ln(1−2|u−½|) (inverse
    Laplace CDF). Counting is the bounded-cardinality combiner path
    (per-batch groupby partials, cascade merge — no shuffle); a real
    deployment would drop ``n_true`` from the release, it is emitted
    here so the oracle pins both the count and the mechanism."""
    import hashlib
    import math

    eps, seed = 1.0, "dp-r4"
    ds = _read(sf_dir, "events", ["event_type"])

    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"event_type": df["event_type"], "n": 1})
        return out.groupby("event_type", as_index=False).sum()

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        noisy = []
        for et, n in zip(df["event_type"], df["sum(n)"]):
            h = int(hashlib.md5((seed + et).encode()).hexdigest()[:8], 16)
            u = (h + 0.5) / 4294967296.0
            noise = -(1.0 / eps) * math.copysign(1.0, u - 0.5) * math.log(
                1.0 - 2.0 * abs(u - 0.5)
            )
            noisy.append(n + noise)
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "n_true": df["sum(n)"].astype("int64"),
                "epsilon": eps,
                "n_noisy": noisy,
            }
        )

    return _preagg_native(ds, ["event_type"], partial, [Sum("n")], finalize)

SQL_EVENTS_DP_COUNTS = """
WITH c AS (
  SELECT event_type, count(*) AS n FROM events GROUP BY 1
),
d AS (
  SELECT event_type, n,
         (CAST(('0x' || substr(md5('dp-r4' || event_type), 1, 8)) AS UBIGINT)
          + 0.5) / 4294967296.0 AS u
  FROM c
)
SELECT event_type, CAST(n AS BIGINT) AS n_true, 1.0 AS epsilon,
       n + (-1.0 * sign(u - 0.5) * ln(1.0 - 2.0 * abs(u - 0.5))) AS n_noisy
FROM d ORDER BY event_type
"""
