"""Cross-source n-gram overlap matrix — dataset contamination audit.

Before mixing corpora a training pipeline measures how much content the
sources share (cross-dataset dedup / contamination auditing — the
between-corpus counterpart of stages/decontaminate.py's benchmark
check). Output: one row per source pair (a < b by string order) with
the count of DISTINCT word n-grams present in both.

Scale shape (10^12 rows, unbounded gram cardinality, bounded sources):

1. per-batch: explode per-doc distinct gram HASHES (the vectorized
   splitmix window fold from stages/dupspans.py — no per-gram Python)
   tagged with the doc's source, hash-dedup (gram, source) within the
   batch (Arrow group_by);
2. ONE global sort by (gram, source) through the sorted-run window
   engine; per complete gram run, OR together one bit per LOCAL source
   (``np.bitwise_or.reduceat``) — each block then reduces to at most
   ``m·(m-1)/2`` pair-count rows (m = sources seen in the block), no
   matter how many grams it holds;
3. the driver gathers and sums the bounded-key pair counts.

Gram identity is engine-internal 64-bit (the DuckDB oracle compares
gram STRINGS; a 2⁻⁶⁴ collision can only add a shared gram). Source
pairs are ordered by STRING comparison on both engines.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data


def _pair_counts_from_masks(
    masks: np.ndarray, counts: np.ndarray, n_src: int
) -> np.ndarray:
    """Dense (n_src × n_src) upper-triangular pair-count matrix from
    per-gram source bitmasks: the loop runs over DISTINCT masks (tiny —
    bounded by the observed source-combination vocabulary), never over
    grams."""
    mat = np.zeros((n_src, n_src), dtype=np.int64)
    for mask, c in zip(masks.tolist(), counts.tolist()):
        bits = [i for i in range(n_src) if (mask >> i) & 1]
        for ai in range(len(bits)):
            for bi in range(ai + 1, len(bits)):
                mat[bits[ai], bits[bi]] += c
    return mat


def source_overlap(
    docs: "ray.data.Dataset", n: int = 3
) -> "ray.data.Dataset":
    """``(doc — any schema with source:string, text:string)`` →
    ``(source_a, source_b, n_shared)``. Assumes ≤ 64 distinct sources
    per block (one uint64 bitmask lane); wider source sets should be
    audited in ≤64-source groups — the per-block assert makes the
    boundary explicit rather than silently wrong."""
    from ..query_utils import _window_by_key_arrow, gather
    from .banding import run_bounds
    from .dupspans import _batch_gram_hashes

    def explode(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        flat, n_grams = _batch_gram_hashes(texts, n)
        srcs = t.column("source")
        if isinstance(srcs, pa.ChunkedArray):
            srcs = srcs.combine_chunks()
        src_rep = pa.Array.from_pandas(
            np.repeat(srcs.to_numpy(zero_copy_only=False), n_grams)
        )
        tbl = pa.Table.from_arrays(
            [pa.array(flat), src_rep.cast(pa.string())],
            names=["g", "source"],
        )
        # per-batch (gram, source) hash-dedup: only batch-distinct rows
        # reach the exchange
        return tbl.group_by(["g", "source"]).aggregate([])

    pre = docs.map_batches(explode, batch_format="pyarrow")

    out_schema = pa.schema(
        [("source_a", pa.string()), ("source_b", pa.string()),
         ("n_shared", pa.int64())]
    )

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        g = t.column("g").to_numpy(zero_copy_only=False)
        enc = t.column("source").combine_chunks().dictionary_encode()
        vocab = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        idx = np.asarray(enc.indices.to_numpy(zero_copy_only=False))
        # remap local dictionary (appearance order) to string order so
        # local i < j implies source_i < source_j
        order = np.argsort(vocab, kind="stable")
        rank = np.empty(len(vocab), dtype=np.int64)
        rank[order] = np.arange(len(vocab))
        idx = rank[idx]
        vocab = vocab[order]
        m = len(vocab)
        assert m <= 64, "per-block source cardinality exceeds the bitmask lane"
        # adjacent (g, source) dedup — rows arrive sorted by (g, source)
        keep = np.ones(len(g), dtype=bool)
        keep[1:] = (g[1:] != g[:-1]) | (idx[1:] != idx[:-1])
        g2, idx2 = g[keep], idx[keep]
        starts, _ = run_bounds(g2)
        masks = np.bitwise_or.reduceat(
            np.uint64(1) << idx2.astype(np.uint64), starts
        )
        um, cnt = np.unique(masks, return_counts=True)
        mat = _pair_counts_from_masks(um, cnt, m)
        r, c = np.nonzero(mat)
        return pa.Table.from_arrays(
            [
                pa.array(vocab[r].tolist(), pa.string()),
                pa.array(vocab[c].tolist(), pa.string()),
                pa.array(mat[r, c]),
            ],
            names=["source_a", "source_b", "n_shared"],
        )

    pairs = _window_by_key_arrow(pre, ["g"], ["g", "source"], kernel)

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        agg = t.group_by(["source_a", "source_b"]).aggregate(
            [("n_shared", "sum")]
        )
        agg = agg.rename_columns(
            [c.replace("n_shared_sum", "n_shared") for c in agg.column_names]
        )
        return agg.select(["source_a", "source_b", "n_shared"])

    # bounded keys (≤ m²/2 rows per block) → merged on the driver
    return ray.data.from_arrow(merge(gather(pairs)))


def source_overlap_serial(
    sources: list, texts: list, n: int = 3
) -> "list[tuple[str, str, int]]":
    """Single-process oracle (tests): gram STRINGS, plain dict/set —
    no hashing, no Ray. Returns rows sorted by (source_a, source_b)."""
    from ..functions.text import tokenize

    per_src: dict[str, set] = {}
    for s, txt in zip(sources, texts):
        toks = [x.lower() for x in tokenize(txt or "")]
        grams = {
            " ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)
        }
        per_src.setdefault(s, set()).update(grams)
    names = sorted(per_src)
    out = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            shared = len(per_src[a] & per_src[b])
            if shared:
                out.append((a, b, shared))
    return out
