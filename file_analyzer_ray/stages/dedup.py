"""Dedup operators over extracted documents.

- :func:`exact_dedup_clusters` — rdfind analog (reference
  src/core/analyzer.py:315-364): the content hash IS the shuffle key;
  only the narrow ``(doc_id, content_hash)`` projection moves through
  the groupby, never payload bytes (SURVEY.md §4 "shuffle only narrow
  columns").
- :func:`phash_near_dup_pairs` — perceptual-hash near-dup (analog of
  reference pixel/phash/SSIM validators, src/cli/validate/main.py:275-418)
  via LSH banding: 64-bit robust payload hash → ``max_hamming + 1``
  bands → ``groupby(band)`` → within-bucket Hamming verify. Pigeonhole
  guarantees every pair within the verify threshold shares a band
  (recall 1.0 vs brute force, pinned by pytest).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from ..corpus import parse_frames
from ..functions.hashing import phash64, phash_bands
from ..query_utils import _merge_partials

CLUSTER_SCHEMA = pa.schema(
    [
        ("content_hash", pa.string()),
        ("canonical_doc_id", pa.string()),
        ("cluster_size", pa.int64()),
        ("member_ids", pa.list_(pa.string())),
    ]
)


def exact_dedup_clusters(
    extracted: "ray.data.Dataset", merge_threshold: int = 2_000_000,
    input_rows: "int | None" = None,
) -> "ray.data.Dataset":
    """(doc_id, content_hash, …) → one row per content-hash cluster.

    Two-level aggregation: per-batch partial clusters (one vectorized
    pandas groupby each), then the merge switch
    ``query_utils._merge_partials``, chosen STATICALLY from
    ``input_rows`` (the corpus row count, an upper bound on partial
    rows): above ``merge_threshold`` the engine's sorted-run primitive
    over content_hash, so no single task ever holds the full hash
    space; otherwise, or with ``input_rows`` unknown, the partials are
    merged in-process on the driver. Member-list concatenation is a
    per-run loop either way, but in-process pandas/python
    (~µs/cluster), never Ray per-group dispatch."""
    import itertools

    import pandas as pd

    narrow = extracted.select_columns(["doc_id", "content_hash"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("content_hash", as_index=False).agg(
            canonical_doc_id=("doc_id", "min"),
            cluster_size=("doc_id", "count"),
            member_ids=("doc_id", list),
        )

    def merge(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return CLUSTER_SCHEMA.empty_table()
        g = df.groupby("content_hash", as_index=False).agg(
            canonical_doc_id=("canonical_doc_id", "min"),
            cluster_size=("cluster_size", "sum"),
            # partial member lists arrive as Python lists or, after an
            # Arrow round trip, as numpy arrays — chain handles both
            member_ids=("member_ids",
                        lambda s: sorted(itertools.chain.from_iterable(s))),
        )
        return pa.Table.from_pydict(
            {
                "content_hash": g["content_hash"],
                "canonical_doc_id": g["canonical_doc_id"],
                "cluster_size": g["cluster_size"].astype("int64"),
                "member_ids": g["member_ids"],
            },
            schema=CLUSTER_SCHEMA,
        )

    part = narrow.map_batches(partial, batch_format="pandas", batch_size=65536)
    return _merge_partials(
        part, ["content_hash"], merge,
        input_rows=input_rows, threshold=merge_threshold,
    )


def add_phash(batch: pa.Table) -> pa.Table:
    """doc-level perceptual hash over concatenated payload bodies
    (stateless map_batches stage)."""
    bins = batch.column("binary").to_pylist()
    hashes = []
    for b in bins:
        bodies = parse_frames(b or b"")
        hashes.append(phash64(b"".join(bodies)) if bodies else 0)
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(hashes, pa.uint64())],
        names=["doc_id", "phash"],
    )


def _explode_bands(batch: pa.Table, n_bands: int = 4) -> pa.Table:
    """Band rows: key = (band index, band value) packed into int64 by
    shifting the band index past the WIDEST band (not a fixed 16 bits —
    ADVICE r2: with n_bands ≤ 3 band values exceed 16 bits and a fixed
    shift collides keys across band positions, inflating candidate pair
    counts). Fully vectorized: all bands of the whole batch come from
    numpy shifts on the uint64 hash array (no per-row dicts; semantics
    identical to ``phash_bands``)."""
    import numpy as np

    h_all = batch.column("phash").to_numpy(zero_copy_only=False).astype(np.uint64)
    keep = h_all != 0  # docs with no payload can't be payload-near-dups
    h = h_all[keep]
    ids = batch.column("doc_id").filter(pa.array(keep))
    base, extra = divmod(64, n_bands)
    max_width = base + (1 if extra else 0)
    # n_bands == 1 → single 64-bit band; index shift degenerates to 0.
    idx_shift = np.int64(max_width if n_bands > 1 else 0)
    band_cols = []
    shift = 0
    for i in range(n_bands):
        width = base + (1 if i < extra else 0)
        bv = (h >> np.uint64(shift)) & np.uint64((1 << width) - 1)
        band_cols.append((np.int64(i) << idx_shift) | bv.astype(np.int64))
        shift += width
    n = len(h)
    if n == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.string()),
             pa.array([], pa.uint64())],
            names=["band", "doc_id", "phash"],
        )
    import pyarrow.compute as pc

    idx = pa.array(np.tile(np.arange(n), n_bands))
    return pa.Table.from_arrays(
        [
            pa.array(np.concatenate(band_cols)),
            pc.take(ids, idx),
            pa.array(np.tile(h, n_bands), pa.uint64()),
        ],
        names=["band", "doc_id", "phash"],
    )


def phash_near_dup_pairs(
    docs: "ray.data.Dataset", max_hamming: int = 6
) -> "ray.data.Dataset":
    """docs(doc_id, binary, …) → (doc_id_a, doc_id_b, hamming) pairs.

    Stages: phash (stateless) → band explode (flat) → sorted-band
    run-scan pairs (stages/banding.py: no per-bucket Python dispatch)
    → sort-based pair dedup across bands.

    Band count = ``max_hamming + 1`` (pigeonhole): every pair within
    the verify threshold shares at least one band, so recall vs brute
    force is exactly 1.0 — round 1 used a fixed 4-band layout whose
    guarantee stopped at hamming 3 while the default threshold was 6
    (silent recall loss; brute-force-equality pytest now pins this).
    """
    from ..query_utils import _distinct_native
    from .banding import banded_pairs, hamming_pair_kernel

    n_bands = max_hamming + 1
    hashed = docs.map_batches(add_phash, batch_format="pyarrow")
    bands = hashed.map_batches(
        lambda b: _explode_bands(b, n_bands), batch_format="pyarrow"
    )
    pairs = banded_pairs(
        bands,
        hamming_pair_kernel("phash", max_hamming),
        pa.schema([("doc_id_a", pa.string()), ("doc_id_b", pa.string()),
                   ("hamming", pa.int64())]),
    )
    return _distinct_native(pairs, ["doc_id_a", "doc_id_b", "hamming"])
