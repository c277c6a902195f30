"""Distributed prefix scan — running aggregates over a global order.

The classic two-phase parallel scan (Blelloch '90), the primitive
behind running totals, high-watermarks and monotone sequence checks —
semantics none of the engine's windows cover (tumbling/session/rolling
are per-key and bounded; a prefix scan is over the WHOLE ordered
stream). Used here for the streaming-ingest late-data audit
(`events_late_arrivals`): watermark_i = max(ts_0..ts_{i-1}) in arrival
order, a row is late when it lands more than the allowed lateness
behind the watermark — the event-time/processing-time skew check a
streaming pipeline runs before windowed aggregation trusts its
watermarks.

Plan shape:

1. ONE sort by the order columns, materialized — block boundaries are
   then STABLE, and ``map_batches(batch_size=None)`` sees exactly one
   block per call (the `_window_by_key_arrow` contract this repo
   already relies on);
2. phase 1: per block emit (first_key, block_aggregate) — one tiny row
   per block;
3. the driver exclusive-scans the blocks-count-bounded summary (bytes
   ∝ #blocks, never rows) and broadcasts (first_key → carry-in);
4. phase 2 re-reads the same materialized blocks, looks up its
   carry-in by searchsorted on its first key, and combines it with the
   in-block running aggregate (``np.maximum.accumulate`` /
   ``np.cumsum``) — row-local, vectorized.

Total cost: one sort + two streaming passes + an O(#blocks) driver
fold. At 10^12 rows the summary is ~#blocks × 16 bytes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..query_utils import gather

_OPS = {
    "max": (np.maximum.accumulate, np.int64(np.iinfo(np.int64).min)),
    "sum": (np.cumsum, np.int64(0)),
}


def prefix_scan(
    ds: "ray.data.Dataset",
    order_cols: "list[str]",
    val_col: str,
    op: str = "max",
    out_col: str = "scan",
) -> "ray.data.Dataset":
    """Sorted-by-``order_cols`` rows + ``out_col`` = EXCLUSIVE running
    ``op`` (max | sum) of ``val_col`` over everything strictly before
    the row in that order. ``val_col`` must be integer-valued (cast
    timestamps to epoch integers first); the identity (int64 min for
    max, 0 for sum) marks "nothing before me" on the first row.
    ``order_cols[0]`` must be duplicate-free (a key): block carry-ins
    are addressed by each block's first key, which needs block ranges
    disjoint in that column."""
    if op not in _OPS:
        raise ValueError(f"op must be one of {sorted(_OPS)}")
    acc_fn, identity = _OPS[op]

    s = ds.sort(order_cols).materialize()

    def summary(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema(
                [("first_key", pa.int64()), ("agg", pa.int64())]
            ).empty_table()
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(np.int64)
        agg = v.max() if op == "max" else v.sum()
        fk = int(t.column(order_cols[0])[0].as_py())
        return pa.Table.from_arrays(
            [pa.array([fk], pa.int64()), pa.array([int(agg)], pa.int64())],
            names=["first_key", "agg"],
        )

    rows = gather(s.map_batches(
        summary, batch_format="pyarrow", batch_size=None
    )).to_pylist()  # bounded: one row per block
    rows.sort(key=lambda r: r["first_key"])
    firsts = np.array([r["first_key"] for r in rows], dtype=np.int64)
    aggs = np.array([r["agg"] for r in rows], dtype=np.int64)
    # exclusive scan of block aggregates = carry-in per block
    if op == "max":
        carry = np.concatenate(([identity], np.maximum.accumulate(aggs)[:-1]))
    else:
        carry = np.concatenate(([identity], np.cumsum(aggs)[:-1]))
    ref = ray.put((firsts, carry))

    def apply(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        fks, carries = ray.get(ref)
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(np.int64)
        fk = int(t.column(order_cols[0])[0].as_py())
        c = carries[np.searchsorted(fks, fk)]
        inc = acc_fn(v)  # inclusive in-block running agg
        if op == "max":
            excl = np.concatenate(([identity], inc[:-1]))
            out = np.maximum(excl, c)
        else:
            excl = np.concatenate(([identity], inc[:-1]))
            out = excl + c
        return t.append_column(out_col, pa.array(out, pa.int64()))

    return s.map_batches(apply, batch_format="pyarrow", batch_size=None)
