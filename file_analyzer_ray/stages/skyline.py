"""Distributed 2-D Pareto skyline (non-dominated frontier).

Point a is DOMINATED iff some b has b.x <= a.x AND b.y <= a.y with at
least one strict inequality (minimization on both axes; exact
duplicates are mutually non-dominated and all survive). The classic
multi-criteria filter (cheapest-and-earliest telemetry frontier,
quality-vs-cost candidate pruning before an expensive downstream
stage).

Scale shape — skyline is an idempotent, associative reduction (the
global skyline is contained in the skyline of any union of local
skylines), so it distributes exactly like a combiner aggregate:

1. per-batch local skyline inside ``map_batches`` (vectorized: one
   lexsort + run-min + prefix-min, no per-row Python) — for random
   data the survivors are O(log n) per batch, so virtually the whole
   corpus dies at the read;
2. a cascade pass re-reducing ~65k candidate rows at a time;
3. ONE final reduction on the driver over the provably tiny
   candidate set (O(blocks/65536 × skyline-size) rows, pulled with
   ``query_utils.gather`` — no AllToAll barrier).

No shuffle anywhere; the only driver-side rows are the cascade
output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _skyline_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the non-dominated points, vectorized:
    lexsort by (x asc, y asc); within an equal-x run only min-y rows
    can survive; across runs a row survives iff its y is STRICTLY
    below the running min y of all smaller-x runs (<= on either axis
    with one strict dominates)."""
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = xs[1:] != xs[:-1]
    run_id = np.cumsum(starts) - 1
    run_min = ys[starts]  # sorted y asc within run -> first is min
    prev_min = np.concatenate(
        ([np.inf], np.minimum.accumulate(run_min)[:-1])
    )
    keep_sorted = (ys == run_min[run_id]) & (ys < prev_min[run_id])
    keep = np.zeros(n, dtype=bool)
    keep[order] = keep_sorted
    return keep


def _local(x_col: str, y_col: str):
    def local(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.float64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.float64)
        return t.filter(pa.array(_skyline_mask(x, y)))

    return local


def skyline(ds, x_col: str, y_col: str):
    """Non-dominated (min, min) frontier of ``ds`` over two numeric
    columns; all other columns ride along. Returns a Dataset of the
    surviving rows (exact duplicates of a frontier point all kept)."""
    import ray.data

    from ..query_utils import gather

    local = _local(x_col, y_col)
    cand = ds.map_batches(
        local, batch_format="pyarrow", batch_size=65536
    ).map_batches(local, batch_format="pyarrow", batch_size=65536)
    # Arrow end to end: pull the tiny candidate blocks (no pandas
    # round trip, no AllToAll) and reduce once in-process.
    merged = local(gather(cand).combine_chunks())
    return ray.data.from_arrow(merged)
