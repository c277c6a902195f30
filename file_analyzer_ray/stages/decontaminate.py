"""Benchmark decontamination: flag corpus documents that share any word
n-gram with a probe/benchmark set — the n-gram-overlap contamination
rule used for LLM training-set hygiene (GPT-3 appendix C uses 13-grams;
``n`` is a parameter here because the synthetic docs are short).

Two paths, chosen from the MEASURED probe size (same auto doctrine as
``text_dedup._verify_pairs_exact``):

- **broadcast** (default; probe ≤ ``max_broadcast`` grams): the sorted
  probe gram-hash array rides the object store ONCE (``ray.put``) and
  every corpus batch counts matches with one ``searchsorted`` — real
  benchmarks are MBs while the corpus is TBs, so this is the 100 TB
  shape (probe side never shuffles, corpus side streams).
- **join** (huge probe sets): corpus docs explode to per-doc-distinct
  ``(doc_id, gram)`` rows and inner-join the probe gram table; per-doc
  match counts merge via ONE sort + run-scan; zero-match docs are
  recovered with a ``left_anti`` join. Nothing transits the driver.

Gram identity is the first 8 bytes of sha256 over the space-joined
lowered token n-gram (``functions.hashing.stable_u64``): equal strings
hash equal in every process, and a cross-string collision (~2⁻⁶⁴ per
pair) can only ADD a flagged doc, never hide contamination. Unlike
``functions.text.word_ngrams`` there is NO short-document special case:
a doc with fewer than ``n`` tokens has no n-grams and cannot match.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..functions.hashing import stable_u64
from ..functions.text import tokenize

_MAX_BROADCAST_GRAMS = 5_000_000  # ~40 MB of uint64 in the object store


def gram_hashes(text: str, n: int) -> np.ndarray:
    """DISTINCT 64-bit hashes of the lowered word n-grams of ``text``
    (standard definition: empty for docs shorter than ``n`` tokens)."""
    toks = [t.lower() for t in tokenize(text)]
    if len(toks) < n:
        return np.empty(0, dtype=np.uint64)
    hs = np.fromiter(
        (
            stable_u64(" ".join(toks[i : i + n]).encode(), b"gram:")
            for i in range(len(toks) - n + 1)
        ),
        dtype=np.uint64,
        count=len(toks) - n + 1,
    )
    return np.unique(hs)


def probe_gram_set(texts, n: int) -> np.ndarray:
    """Sorted distinct gram hashes of the probe/benchmark texts. The
    probe side is small by construction (a benchmark file), so this
    runs on the driver — the result is what gets broadcast."""
    parts = [gram_hashes(t, n) for t in texts]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


def _count_matches(probe_sorted: np.ndarray, doc_hashes: np.ndarray) -> int:
    if not len(doc_hashes) or not len(probe_sorted):
        return 0
    idx = np.searchsorted(probe_sorted, doc_hashes)
    idx_c = np.minimum(idx, len(probe_sorted) - 1)
    return int(((idx < len(probe_sorted)) & (probe_sorted[idx_c] == doc_hashes)).sum())


_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_matched", pa.int64()),
        ("contaminated", pa.bool_()),
    ]
)


def decontaminate(
    docs: "ray.data.Dataset",
    probe_hashes: np.ndarray,
    n: int = 3,
    mode: str = "auto",
) -> "ray.data.Dataset":
    """docs(doc_id:int64, text) → (doc_id, n_matched, contaminated):
    per doc, how many of its DISTINCT word n-grams appear in the probe
    set, and whether any did. ``mode`` = broadcast | join | auto (pick
    broadcast while the probe fits ``_MAX_BROADCAST_GRAMS``)."""
    probe_sorted = np.sort(np.asarray(probe_hashes, dtype=np.uint64))
    if mode == "auto":
        mode = "broadcast" if len(probe_sorted) <= _MAX_BROADCAST_GRAMS else "join"

    if mode == "broadcast":
        ref = ray.put(probe_sorted)

        def flag(batch: pa.Table) -> pa.Table:
            probe = ray.get(ref)
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            counts = np.fromiter(
                (
                    _count_matches(probe, gram_hashes(t, n))
                    for t in batch.column("text").to_pylist()
                ),
                dtype=np.int64,
                count=len(ids),
            )
            return pa.Table.from_arrays(
                [
                    pa.array(ids.astype(np.int64)),
                    pa.array(counts),
                    pa.array(counts > 0),
                ],
                schema=_OUT_SCHEMA,
            )

        return docs.map_batches(flag, batch_format="pyarrow")

    # join path: per-doc-distinct gram rows ⋈ probe gram table
    from ..query_utils import _window_by_key_arrow, key_join

    def explode(batch: pa.Table) -> pa.Table:
        out_id: list = []
        out_g: list = []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            hs = gram_hashes(t, n)
            out_id.extend([doc_id] * len(hs))
            out_g.extend(hs.tolist())
        return pa.Table.from_arrays(
            [pa.array(out_id, pa.int64()), pa.array(out_g, pa.uint64())],
            names=["doc_id", "gram"],
        )

    grams = docs.map_batches(explode, batch_format="pyarrow")
    probe_ds = ray.data.from_arrow(
        pa.table({"gram": pa.array(probe_sorted, pa.uint64())})
    )
    hit = key_join(grams, probe_ds, on="gram", how="inner")

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        u, c = np.unique(ids, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(u.astype(np.int64)), pa.array(c.astype(np.int64))],
            names=["doc_id", "n_matched"],
        )

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _OUT_SCHEMA.empty_table()
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        sums = np.add.reduceat(t.column("n_matched").to_numpy(), starts)
        return pa.Table.from_arrays(
            [
                pa.array(ids[starts].astype(np.int64)),
                pa.array(sums.astype(np.int64)),
                pa.array(sums > 0),
            ],
            schema=_OUT_SCHEMA,
        )

    matched = _window_by_key_arrow(
        hit.map_batches(partial, batch_format="pyarrow"),
        ["doc_id"],
        ["doc_id"],
        merge,
    )

    clean = key_join(
        docs.select_columns(["doc_id"]),
        matched.select_columns(["doc_id"]),
        on="doc_id", how="left_anti",
    )

    def zero(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_matched": np.zeros(len(df), dtype=np.int64),
                "contaminated": np.zeros(len(df), dtype=bool),
            }
        )

    return matched.union(clean.map_batches(zero, batch_format="pandas"))
