"""Duplicated n-gram span masking — substring-level dedup.

Doc-level dedup (exact / minhash / simhash) removes whole documents;
"Deduplicating Training Data Makes Language Models Better" (Lee et al.
2022) shows the long tail of contamination is REPEATED SPANS inside
otherwise-unique documents (boilerplate, licenses, quoted passages).
This stage finds every word n-gram that occurs in ≥ ``min_docs``
distinct documents and reports, per document, how many gram occurrences
are duplicated and how many token positions a masking pass would cover
(the union of the ``[i, i+n)`` windows of duplicated occurrences).

Two paths, same auto doctrine as ``stages/decontaminate.py``:

- **broadcast** (default while the dup-gram set fits
  ``max_broadcast``): the duplicated-gram hash set is computed with ONE
  sort + run-scan over per-doc-distinct gram hashes (each document
  lives in exactly one batch row, so per-doc dedup inside the batch IS
  the global (gram, doc) dedup — the count of surviving rows per gram
  equals its distinct-doc count with no distinct machinery), then rides
  the object store once; every batch scores its docs with a
  ``searchsorted`` hit test and a vectorized difference-array interval
  union. Boilerplate dup sets are small relative to the corpus, so this
  is the common 100 TB shape.
- **join** (dup set too big to ride along): no driver transit at all —
  gram OCCURRENCES (doc_id, i, g) union-tagged with the dup-gram table
  are sorted by gram once (the sorted-run primitive,
  ``query_utils._window_by_key_arrow``) and semi-joined by run-scan (a run containing
  a tag-1 row marks all its tag-0 occurrences as hits); hit intervals
  are then union-tagged with the documents themselves and sorted by
  (doc_id, tag, i) once, so ONE run-scan computes every document's
  masked-position union (segmented running-max sweep) next to its
  token count. Two sorts total, zero joins, zero driver collections.

Gram identity is a splitmix64 window fold over per-token ``stable_u64``
hashes (token hashing is vocab-sized Python work per batch; the fold is
n vectorized uint64 passes — no per-gram Python anywhere). Identity is
engine-internal (the DuckDB oracle compares gram STRINGS), and a 2⁻⁶⁴
collision can only ADD a masked span, never hide one.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..functions.hashing import stable_u64
from ..functions.text import tokenize
from ..query_utils import _window_by_key_arrow
from .banding import run_bounds

_MAX_BROADCAST_GRAMS = 5_000_000  # ~40 MB of int64 in the object store


_MIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C2 = np.uint64(0x94D049BB133111EB)
_GRAM_SEED = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (wrapping uint64 arithmetic)."""
    x = (x ^ (x >> np.uint64(30))) * _MIX_C1
    x = (x ^ (x >> np.uint64(27))) * _MIX_C2
    return x ^ (x >> np.uint64(31))


def _batch_gram_hashes(texts: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat int64 gram hash per position grouped by doc, per-doc gram
    counts) for a whole batch at once. Per-token identity is
    ``stable_u64`` over the UNIQUE tokens of the batch (vocab-sized
    Python work); gram identity is a splitmix64 window fold over the
    flat token-hash array — n vectorized passes, no per-gram Python.
    Gram hashes are engine-internal (the oracle compares gram STRINGS),
    so identity only needs process-stable injective-in-practice 64-bit."""
    tok_lists = [[t.lower() for t in tokenize(x)] for x in texts]
    lens = np.fromiter((len(x) for x in tok_lists), dtype=np.int64,
                       count=len(tok_lists))
    total = int(lens.sum())
    n_grams = np.maximum(lens - n + 1, 0)
    if total == 0:
        return np.empty(0, np.int64), n_grams
    flat = np.concatenate([np.asarray(x, dtype=object) for x in tok_lists])
    uniq, inv = np.unique(flat.astype(str), return_inverse=True)
    uniq_h = np.fromiter(
        (stable_u64(u.encode(), b"tok:") for u in uniq),
        dtype=np.uint64, count=len(uniq),
    )
    th = uniq_h[inv]
    m = total - n + 1
    if m <= 0:
        return np.empty(0, np.int64), n_grams
    h = np.full(m, _GRAM_SEED, dtype=np.uint64)
    for j in range(n):
        h = _mix64(h ^ th[j : m + j])
    # drop windows that straddle a doc boundary
    doc_of = np.repeat(np.arange(len(lens)), lens)
    valid = doc_of[: m] == doc_of[n - 1 :]
    return h[valid].view(np.int64), n_grams


def _pos_gram_hashes(text: str, n: int) -> np.ndarray:
    """int64 hash PER POSITION of the lowered word n-grams of ``text``
    (non-distinct — index j is the gram starting at token j); empty for
    docs shorter than ``n`` tokens."""
    flat, _ = _batch_gram_hashes([text], n)
    return flat


def dup_gram_table(
    docs: "ray.data.Dataset", n: int = 5, min_docs: int = 2
) -> "ray.data.Dataset":
    """(g:int64) — hashes of grams occurring in ≥ ``min_docs`` distinct
    docs. One sort + run-scan; scales to unbounded gram cardinality."""

    def per_doc_distinct(t: pa.Table) -> pa.Table:
        flat, n_grams = _batch_gram_hashes(t.column("text").to_pylist(), n)
        bounds = np.zeros(len(n_grams) + 1, dtype=np.int64)
        np.cumsum(n_grams, out=bounds[1:])
        parts = [np.unique(flat[bounds[d]:bounds[d + 1]])
                 for d in range(len(n_grams))]
        out = np.concatenate(parts) if parts else np.empty(0, np.int64)
        return pa.Table.from_arrays([pa.array(out)], names=["g"])

    def runs_ge(t: pa.Table) -> pa.Table:
        g = t.column("g").to_numpy(zero_copy_only=False)
        starts, ends = run_bounds(g)
        keep = starts[(ends - starts) >= min_docs]
        return pa.Table.from_arrays([pa.array(g[keep], pa.int64())], names=["g"])

    pairs = docs.map_batches(per_doc_distinct, batch_format="pyarrow")
    return _window_by_key_arrow(pairs, ["g"], ["g"], runs_ge)


_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_tokens", pa.int64()),
        ("n_dup_grams", pa.int64()),
        ("n_masked", pa.int64()),
    ]
)


def dup_span_mask(
    docs: "ray.data.Dataset",
    n: int = 5,
    min_docs: int = 2,
    mode: str = "auto",
    max_broadcast: int = _MAX_BROADCAST_GRAMS,
) -> "ray.data.Dataset":
    """docs(doc_id, text) → (doc_id, n_tokens, n_dup_grams, n_masked).

    ``mode`` = broadcast | join | auto (broadcast while the dup-gram
    set fits ``max_broadcast``)."""
    dup = dup_gram_table(docs, n=n, min_docs=min_docs).materialize()
    if mode == "auto":
        mode = "broadcast" if dup.count() <= max_broadcast else "join"

    if mode == "broadcast":
        dup_sorted = np.sort(
            dup.to_pandas()["g"].to_numpy(dtype=np.int64, copy=False)
        )
        ref = ray.put(dup_sorted)

        def score(t: pa.Table) -> pa.Table:
            ds_ = ray.get(ref)
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            texts = t.column("text").to_pylist()
            flat, n_grams = _batch_gram_hashes(texts, n)
            n_tokens = np.fromiter(
                (len(tokenize(x)) for x in texts), dtype=np.int64,
                count=len(texts),
            )
            n_dup = np.zeros(len(ids), dtype=np.int64)
            masked = np.zeros(len(ids), dtype=np.int64)
            if len(flat) and len(ds_):
                # ONE searchsorted over the whole batch's gram stream
                idx = np.searchsorted(ds_, flat)
                idx_c = np.minimum(idx, len(ds_) - 1)
                hit = (idx < len(ds_)) & (ds_[idx_c] == flat)
                doc_of_gram = np.repeat(np.arange(len(ids)), n_grams)
                n_dup = np.bincount(doc_of_gram, weights=hit,
                                    minlength=len(ids)).astype(np.int64)
                if hit.any():
                    # global difference-array interval union: windows
                    # never cross a doc boundary, so coverage cannot
                    # leak between docs in the flat token space
                    tok_off = np.zeros(len(ids) + 1, dtype=np.int64)
                    np.cumsum(n_tokens, out=tok_off[1:])
                    gram_off = np.zeros(len(ids) + 1, dtype=np.int64)
                    np.cumsum(n_grams, out=gram_off[1:])
                    gidx = np.flatnonzero(hit)
                    d = doc_of_gram[gidx]
                    g_start = tok_off[d] + (gidx - gram_off[d])
                    total_tok = int(n_tokens.sum())
                    diff = np.zeros(total_tok + 1, dtype=np.int64)
                    np.add.at(diff, g_start, 1)
                    np.add.at(diff, g_start + n, -1)
                    covered = np.cumsum(diff[:-1]) > 0
                    doc_of_tok = np.repeat(np.arange(len(ids)), n_tokens)
                    masked = np.bincount(doc_of_tok, weights=covered,
                                         minlength=len(ids)).astype(np.int64)
            return pa.Table.from_arrays(
                [pa.array(ids.astype(np.int64)), pa.array(n_tokens),
                 pa.array(n_dup), pa.array(masked)],
                schema=_OUT_SCHEMA,
            )

        return docs.map_batches(score, batch_format="pyarrow")

    # ---- join path: two sorts, zero driver transit ----
    def occurrences(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        flat, n_grams = _batch_gram_hashes(t.column("text").to_pylist(), n)
        gram_off = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(n_grams, out=gram_off[1:])
        doc_of = np.repeat(np.arange(len(ids)), n_grams)
        gidx = np.arange(len(flat), dtype=np.int64)
        return pa.Table.from_pydict(
            {
                "g": flat,
                "doc_id": ids.astype(np.int64)[doc_of],
                "i": gidx - gram_off[doc_of],
                "tag": np.zeros(len(flat), dtype=np.int8),
            }
        )

    def dup_tagged(t: pa.Table) -> pa.Table:
        g = t.column("g").to_numpy(zero_copy_only=False)
        z = np.full(len(g), -1, dtype=np.int64)
        return pa.Table.from_pydict(
            {"g": g, "doc_id": z, "i": z,
             "tag": np.ones(len(g), dtype=np.int8)}
        )

    def runs_hits(t: pa.Table) -> pa.Table:
        """Semi-join by run-scan: a gram run containing a tag-1 (dup)
        row marks all its tag-0 occurrences as hits."""
        if t.num_rows == 0:
            return pa.Table.from_pydict(
                {"doc_id": pa.array([], pa.int64()), "i": pa.array([], pa.int64())}
            )
        tag = t.column("tag").to_numpy(zero_copy_only=False)
        starts, ends = run_bounds(t.column("g").to_numpy(zero_copy_only=False))
        has_dup = np.maximum.reduceat(tag, starts).astype(bool)
        hit = np.repeat(has_dup, ends - starts) & (tag == 0)
        return pa.Table.from_pydict({
            "doc_id": t.column("doc_id").to_numpy(zero_copy_only=False)[hit],
            "i": t.column("i").to_numpy(zero_copy_only=False)[hit],
        })

    occ = docs.map_batches(occurrences, batch_format="pyarrow")
    both = occ.union(dup.map_batches(dup_tagged, batch_format="pyarrow"))
    hits = _window_by_key_arrow(both, ["g"], ["g"], runs_hits)

    # per-doc aggregation: union-tag hit intervals (tag=1) with the doc
    # spine (tag=0, carrying n_tokens in ``i``) and run-scan by doc_id.
    def doc_spine(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        toks = np.fromiter(
            (len(tokenize(x)) for x in t.column("text").to_pylist()),
            dtype=np.int64, count=len(ids),
        )
        return pa.Table.from_pydict(
            {"doc_id": ids.astype(np.int64), "i": toks,
             "tag": np.zeros(len(ids), dtype=np.int8)}
        )

    def hit_tagged(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": t.column("doc_id").to_numpy(zero_copy_only=False),
                "i": t.column("i").to_numpy(zero_copy_only=False),
                "tag": np.ones(t.num_rows, dtype=np.int8),
            }
        )

    spine = docs.map_batches(doc_spine, batch_format="pyarrow")
    tagged = spine.union(hits.map_batches(hit_tagged, batch_format="pyarrow"))

    def per_doc(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _OUT_SCHEMA.empty_table()
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        pos = t.column("i").to_numpy(zero_copy_only=False)
        tag = t.column("tag").to_numpy(zero_copy_only=False)
        starts, ends = run_bounds(doc)
        run_id = np.repeat(np.arange(len(starts)), ends - starts)
        n_runs = len(starts)
        out_ids = doc[starts]
        # tag-0 spine row sorts FIRST in each run and carries n_tokens
        n_tokens = pos[starts]
        n_dup = np.bincount(run_id, weights=(tag == 1), minlength=n_runs)
        # segmented interval-union sweep over the tag-1 rows (sorted by
        # i within each run): contribution = clip(end - max(prev_end,
        # start)); segmented running max via per-segment offset trick
        is_hit = tag == 1
        masked = np.zeros(n_runs, dtype=np.int64)
        if is_hit.any():
            hs = pos[is_hit].astype(np.int64)
            he = hs + n
            seg = run_id[is_hit]
            big = np.int64(he.max() + 1)
            adj = np.maximum.accumulate(seg * big + he)
            prev = np.empty(len(hs), dtype=np.int64)
            prev[0] = -1
            prev[1:] = adj[:-1] - seg[1:] * big  # prev end within segment
            seg_start = np.diff(seg, prepend=seg[0] - 1) != 0
            prev[seg_start] = -1
            contrib = np.clip(he - np.maximum(prev, hs), 0, n)
            masked = np.bincount(seg, weights=contrib,
                                 minlength=n_runs).astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(out_ids), pa.array(n_tokens),
             pa.array(n_dup.astype(np.int64)), pa.array(masked)],
            schema=_OUT_SCHEMA,
        )

    return _window_by_key_arrow(
        tagged, ["doc_id"], ["doc_id", "tag", "i"], per_doc
    )
