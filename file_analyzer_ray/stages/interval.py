"""Distributed interval (range) join: points ⋈ intervals on
``point.ts ∈ [interval.start, interval.end)``.

A range join has NO equality key, so a naive distributed plan is a
cross join. Two scalable shapes, auto-selected by interval-side size
(the engine's broadcast-vs-join doctrine, same as pagerank / dup-span
grams):

- **broadcast** (interval side ≤ ``BROADCAST_INTERVALS_MAX``): ship
  the (id, lo, hi) vectors once via ``ray.put``; each point batch
  sorts its timestamps and answers EVERY interval with two
  ``searchsorted`` ranks — count in [lo, hi) = rank(hi) − rank(lo).
  Zero shuffle; the only exchange is the bounded per-batch partial
  counts feeding one sum-by-key.
- **bins** (corpus-sized interval side): pick a bin width ``w``, tag
  every point with ``bin = ts // w``, explode every interval into the
  bins it overlaps, and co-locate both kinds of row with ONE sort by
  ``(bin, lo)`` on the sorted-run primitive
  (``query_utils._window_by_key_arrow``). ``bin`` rises with ``ts``,
  so a block's point rows are already in ``ts`` order, and each
  interval-bin row counts its bin's points in ``[lo, hi)`` clipped to
  the bin with two ``searchsorted`` calls — no join, no residual
  filter. With ``w`` chosen near the typical interval length each
  interval lands in O(1) bins.

This is the custom-operator pattern SURVEY.md §2's "operators Ray Data
lacks" clause calls for: composed entirely from ``map_batches`` + the
engine's sorted-run primitive + its sort+run-scan sum — no driver
state, no per-row Python. Partitioning assumption (document per the
survey): bin ids inherit the point time distribution, so a
time-skewed workload concentrates a hot bin in one sorted run (the
primitive's boundary task holds at most 2 runs per block); intervals
MUCH longer than ``w`` should raise ``w`` (or be split upstream) to
bound their bin fan-out.

The reference has no relational joins at all (SURVEY.md §2.4) — this
generalizes its per-file "merge results by path" accumulation to the
time-range lookups an events pipeline needs (maintenance windows,
promo attribution, incident blame)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data


#: interval-count bound for the broadcast path: three int64 vectors
#: (id, lo, hi) ride the object store once — 2M intervals ≈ 48 MB —
#: and every point batch answers ALL intervals with two vectorized
#: searchsorted calls (count in [lo, hi) = rank(hi) - rank(lo) in the
#: batch's sorted timestamps). Zero shuffle, one streaming pass over
#: the points. Above the bound the bin-overlap equi-join runs instead
#: (equality-tested against this path).
BROADCAST_INTERVALS_MAX = 2_000_000


def interval_join_count(
    points: "ray.data.Dataset",
    intervals: "ray.data.Dataset",
    *,
    ts_col: str,
    id_col: str,
    start_col: str,
    end_col: str,
    width: int,
    mode: str = "auto",
) -> "ray.data.Dataset":
    """Count points falling inside each half-open interval
    ``[start, end)``. Timestamps/bounds are taken via their int64 view
    (timestamp[us] keys bin by epoch-microseconds). Intervals that
    contain no point are kept with ``n_points = 0`` (left-outer
    semantics). Returns ``(id_col, n_points)``.

    ``mode``: ``"broadcast"`` (small interval side, no shuffle),
    ``"bins"`` (bin-overlap sorted runs, any interval cardinality), or
    ``"auto"`` — materialize + count the interval side and pick by
    ``BROADCAST_INTERVALS_MAX``. A caller whose interval set is itself
    corpus-sized should pass ``mode="bins"`` to skip auto's
    materialize of that side."""
    from .graph import _sum_by_key

    if mode == "auto":
        intervals = intervals.materialize()
        mode = (
            "broadcast"
            if intervals.count() <= BROADCAST_INTERVALS_MAX
            else "bins"
        )
    cols = dict(ts_col=ts_col, id_col=id_col, start_col=start_col,
                end_col=end_col)
    if mode == "broadcast":
        counts = _broadcast_partials(points, intervals, **cols)
    else:
        counts = _bin_partials(points, intervals, width=width, **cols)
    out = _sum_by_key(counts, "_iid", "n", "n_points")

    def finalize(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:  # all-empty input: a schemaless block
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=[id_col, "n_points"],
            )
        return pa.Table.from_arrays(
            [t.column("_iid"), t.column("n_points")], names=[id_col, "n_points"]
        )

    return out.map_batches(finalize, batch_format="pyarrow")


def _bin_partials(
    points: "ray.data.Dataset",
    intervals: "ray.data.Dataset",
    *,
    ts_col: str,
    id_col: str,
    start_col: str,
    end_col: str,
    width: int,
) -> "ray.data.Dataset":
    """Corpus-sized interval side: ``(_iid, n)`` per (interval, bin) it
    overlaps. Point rows (``_tag`` 0, ``_lo = _hi = ts``) and
    interval-bin rows (``_tag`` 1) are sorted together by
    ``(_bin, _lo)``; inside a block of complete bin runs the point
    ``ts`` values are sorted, and a bin-``b`` row counts the points in
    ``[max(lo, b·w), min(hi, (b+1)·w))`` — exactly its bin's points in
    ``[lo, hi)``. Every interval emits at least one row (an empty
    interval lands in its start bin with count 0), so the caller's
    sum-by-key also zero-fills."""
    from ..query_utils import _window_by_key_arrow

    def tag_points(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(np.floor_divide(ts, width)), pa.array(ts), pa.array(ts),
             pa.array(np.zeros(len(ts), dtype=np.int64)),
             pa.array(np.zeros(len(ts), dtype=np.int8))],
            names=["_bin", "_lo", "_hi", "_iid", "_tag"],
        )

    def explode_intervals(t: pa.Table) -> pa.Table:
        lo = t.column(start_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        hi = t.column(end_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        ids = t.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        b0 = np.floor_divide(lo, width)
        # last bin overlapped by the half-open interval; an empty
        # interval (hi <= lo) still lands in its start bin so the
        # zero-fill can see it
        b1 = np.floor_divide(np.maximum(hi, lo + 1) - 1, width)
        n = (b1 - b0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(ids)), n)
        offs = np.zeros(len(ids), dtype=np.int64)
        np.cumsum(n[:-1], out=offs[1:])
        bins = b0[idx] + (np.arange(len(idx), dtype=np.int64) - offs[idx])
        return pa.Table.from_arrays(
            [pa.array(bins, pa.int64()), pa.array(lo[idx], pa.int64()),
             pa.array(hi[idx], pa.int64()), pa.array(ids[idx], pa.int64()),
             pa.array(np.ones(len(idx), dtype=np.int8))],
            names=["_bin", "_lo", "_hi", "_iid", "_tag"],
        )

    def count_in_bins(t: pa.Table) -> pa.Table:
        tag = t.column("_tag").to_numpy(zero_copy_only=False)
        lo = t.column("_lo").to_numpy(zero_copy_only=False)
        iv = tag == 1
        pts = lo[~iv]  # sorted: bin = ts // width rises with ts
        b_lo = t.column("_bin").to_numpy(zero_copy_only=False)[iv] * width
        lo_c = np.maximum(lo[iv], b_lo)
        hi_c = np.minimum(t.column("_hi").to_numpy(zero_copy_only=False)[iv],
                          b_lo + width)
        n = np.searchsorted(pts, hi_c) - np.searchsorted(pts, lo_c)
        return pa.Table.from_arrays(
            [pa.array(t.column("_iid").to_numpy(zero_copy_only=False)[iv],
                      pa.int64()),
             pa.array(np.maximum(n, 0).astype(np.int64))],
            names=["_iid", "n"],
        )

    rows = points.map_batches(tag_points, batch_format="pyarrow").union(
        intervals.map_batches(explode_intervals, batch_format="pyarrow")
    )
    return _window_by_key_arrow(rows, ["_bin"], ["_bin", "_lo"], count_in_bins)


def _broadcast_partials(
    points: "ray.data.Dataset",
    intervals: "ray.data.Dataset",
    *,
    ts_col: str,
    id_col: str,
    start_col: str,
    end_col: str,
) -> "ray.data.Dataset":
    """Small-interval-side path: broadcast (id, lo, hi) once via
    ``ray.put``; each point batch sorts its timestamps and answers
    every interval with two ``searchsorted`` ranks. Per-batch output is
    only the intervals the batch actually hit, plus one (id, 0)
    zero-fill row per interval for the caller's sum-by-key."""
    import ray

    from ..query_utils import gather

    rows = gather(intervals).to_pylist()
    ids = np.fromiter((r[id_col] for r in rows), dtype=np.int64,
                      count=len(rows))
    lo = np.fromiter((_as_i64(r[start_col]) for r in rows), dtype=np.int64,
                     count=len(rows))
    hi = np.fromiter((_as_i64(r[end_col]) for r in rows), dtype=np.int64,
                     count=len(rows))
    ref = ray.put((ids, lo, hi))

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64())],
            names=["_iid", "n"],
        )
        if t.num_rows == 0 or t.num_columns == 0:
            return empty
        i, l, h = ray.get(ref)
        if len(i) == 0:
            return empty
        ts = np.sort(
            t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        cnt = np.searchsorted(ts, h, side="left") - np.searchsorted(
            ts, l, side="left"
        )
        nz = cnt > 0
        return pa.Table.from_arrays(
            [pa.array(i[nz]), pa.array(cnt[nz].astype(np.int64))],
            names=["_iid", "n"],
        )

    def zeros(t: pa.Table) -> pa.Table:
        iv = t.column(id_col).cast(pa.int64())
        return pa.Table.from_arrays(
            [iv, pa.array(np.zeros(len(iv), dtype=np.int64))],
            names=["_iid", "n"],
        )

    return points.map_batches(partial, batch_format="pyarrow").union(
        intervals.map_batches(zeros, batch_format="pyarrow")
    )


def _as_i64(v) -> int:
    """int64 view of an int or a datetime-like bound (epoch-us)."""
    if isinstance(v, (int, np.integer)):
        return int(v)
    return int(pa.scalar(v).cast(pa.timestamp("us")).cast(pa.int64()).as_py())
