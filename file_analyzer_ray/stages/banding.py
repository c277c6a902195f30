"""Generic LSH-band co-grouping via sort + vectorized run-scan.

Every banded near-dup operator in the engine (minhash signatures,
simhash fingerprints, payload phash) needs the same shape: explode
each item into (band_key, doc_id, value) rows, co-locate equal band
keys, and generate candidate/verified pairs inside each bucket. Ray's
``groupby(band).map_groups`` costs ~0.1 ms of per-group dispatch and
empty-frame construction — with b bands per doc nearly every bucket
is a singleton, so at N docs that is N×b wasted Python calls
(measured: 10 s of a 12 s minhash run at 5k docs).

This module provides the engine-wide replacement: the band-key
co-grouping runs on the sorted-run primitive
(``query_utils._window_by_key_arrow``) — ONE sort by the band key,
then each sorted block processes its complete bucket runs with a
caller-supplied VECTORIZED pair kernel; buckets straddling a block
boundary ride the primitive's boundary side-channel. Cross-band
duplicate pairs are deduped by the caller (``_distinct_native`` or a
verify step).

Arrow end to end (VERDICT r2 #4): the kernels read columns as numpy
views and emit ``pa.Table.from_arrays`` directly, never paying a
pandas BlockManager construction per block.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..query_utils import _window_by_key_arrow


def _col_np(t: pa.Table, name: str) -> np.ndarray:
    return t.column(name).to_numpy(zero_copy_only=False)


def banded_pairs(
    bands: "ray.data.Dataset",
    pair_kernel,
    out_schema: "pa.Schema | dict",
) -> "ray.data.Dataset":
    """bands(band, doc_id, <value cols>) → pair dataset.

    ``pair_kernel(t)`` receives a ``pa.Table`` of one or more COMPLETE
    buckets sorted by band and must return a ``pa.Table`` with
    ``out_schema`` (used for empty blocks). It must be vectorized over
    bucket runs (use :func:`run_bounds`)."""
    if isinstance(out_schema, dict):  # legacy name→dtype-string spec
        out_schema = pa.schema(
            [(c, pa.from_numpy_dtype(np.dtype(d))) for c, d in out_schema.items()]
        )

    def kernel(t: pa.Table) -> pa.Table:
        return pair_kernel(t) if t.num_rows else out_schema.empty_table()

    return _window_by_key_arrow(bands, ["band"], ["band"], kernel)


def run_bounds(bvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/end indices of equal-value runs in a sorted array."""
    starts = np.flatnonzero(np.r_[True, bvals[1:] != bvals[:-1]])
    ends = np.r_[starts[1:], len(bvals)]
    return starts, ends


def hamming_pair_kernel(value_col: str, max_hamming: int, out_val: str = "hamming"):
    """Pair kernel: all in-bucket pairs of 64-bit values within
    ``max_hamming`` (vectorized XOR popcount per run)."""

    def kernel(t: pa.Table) -> pa.Table:
        ids = _col_np(t, "doc_id")
        raw = _col_np(t, value_col)
        if raw.dtype.kind == "f":
            # A float-typed hash column means an upstream stage let
            # uint64 fingerprints decay through object→float64 Arrow
            # inference — low bits are already gone and hamming would
            # silently undercount. Fail loudly instead.
            raise TypeError(
                f"{value_col} arrived as {raw.dtype}; emit an explicit "
                "uint64 column upstream (lossy float inference)"
            )
        vals = raw.astype(np.uint64)
        starts, ends = run_bounds(_col_np(t, "band"))
        multi = (ends - starts) >= 2  # vectorized singleton skip: a
        # Python loop over every run costs ~16 µs/iteration on numpy
        # scalars — at b bands/doc that's O(N·b) wasted iterations
        out_a, out_b, out_d = [], [], []
        for s, e in zip(starts[multi].tolist(), ends[multi].tolist()):
            order = np.argsort(ids[s:e], kind="stable") + s
            rid, rv = ids[order], vals[order]
            x = rv[:, None] ^ rv[None, :]
            # vectorized 64-bit popcount via unpackbits on the byte view
            d = np.unpackbits(
                x.view(np.uint8).reshape(len(rv), len(rv), 8), axis=2
            ).sum(axis=2)
            keep = np.triu(d <= max_hamming, k=1)
            r, c = np.nonzero(keep)
            out_a.extend(rid[r])
            out_b.extend(rid[c])
            out_d.extend(d[r, c])
        id_type = t.schema.field("doc_id").type
        return pa.Table.from_arrays(
            [
                pa.array(out_a, id_type),
                pa.array(out_b, id_type),
                pa.array(np.asarray(out_d, dtype=np.int64)),
            ],
            names=["doc_id_a", "doc_id_b", out_val],
        )

    return kernel
