"""BM25 ranked keyword retrieval — the lexical half of a RAG stack.

The engine already ships the other retrieval legs: the inverted index
(stages/inverted.py) answers WHICH docs contain a term; ANN
(stages/ann.py) ranks by embedding similarity. BM25 is the classic
ranked-lexical scorer between them (Robertson–Spärck Jones; the
default in Lucene/Elasticsearch): per (doc, term)

    idf(t)  = ln(1 + (N - df + 0.5) / (df + 0.5))
    s(d, t) = idf · tf·(k1+1) / (tf + k1·(1 - b + b·dl/avgdl))

summed over the query's terms, top-k docs returned.

Scale shape — the query is TINY (a handful of terms), so nothing
global is ever exchanged:

1. one row-local tokenize pass builds the per-doc feature table
   (doc_id, dl, tf per query term) — Arrow C++ tokenization (the
   tfidf `_tf_rows` kernel), per-term counts via one bincount per
   term; the T+2-column int table is pinned for reuse (at 10^12 docs
   checkpoint it to parquet and read twice instead — the compare.py
   doctrine);
2. corpus stats (N, Σdl, df per term) fold per batch into ONE partial
   row; the driver sums a blocks-count-bounded handful of rows —
   bytes ∝ T, never ∝ corpus;
3. one more row-local pass scores every doc against the broadcast
   stats and keeps a per-batch partial top-k; the driver merges them
   (the kNN partial-top-k shape).

Zero sorts of the corpus, zero joins, two streaming passes over a
projection that is ~20 bytes/doc.

Determinism contract: tokenization is the repo-pinned `[a-z0-9]+`
stream; tf/dl/df/N are integers; avgdl = Σdl/N and the ln/round(4)
float path follows the tfidf oracle precedent, so a DuckDB twin
states the expected ranking in closed form.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..query_utils import _top_k, gather

_K1 = 1.2
_B = 0.75
_RESULT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("bm25", pa.float64())])


def _features(terms: "list[str]"):
    """Per-batch (doc_id, dl, tf_<term>...) — one Arrow tokenize, one
    bincount per query term."""

    def f(t: pa.Table) -> pa.Table:
        txt = t.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks = pc.split_pattern_regex(pc.utf8_lower(txt), "[^a-z0-9]+")
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        n = t.num_rows
        cols = [
            t.column("doc_id").cast(pa.int64()),
            pa.array(
                np.bincount(parents[nonempty], minlength=n).astype(np.int64)
            ),
        ]
        names = ["doc_id", "dl"]
        for i, term in enumerate(terms):
            hit = pc.equal(flat, term).to_numpy(zero_copy_only=False)
            cols.append(
                pa.array(np.bincount(parents[hit], minlength=n).astype(np.int64))
            )
            names.append(f"tf{i}")
        return pa.Table.from_arrays(cols, names=names)

    return f


def bm25_search(
    docs: "ray.data.Dataset",
    terms: "list[str]",
    topk: int = 20,
    k1: float = _K1,
    b: float = _B,
) -> "ray.data.Dataset":
    """docs(doc_id:int64, text) → top-``topk`` (doc_id, bm25) by BM25
    over ``terms``, score rounded to 4 decimals, ties → doc_id
    ascending. Zero-score docs never rank (docs matching no term are
    dropped before the partial top-k)."""
    nt = len(terms)
    feat = docs.map_batches(
        _features(terms), batch_format="pyarrow", batch_size=4096
    ).materialize()  # reused by the stats + scoring passes

    def stats_partial(t: pa.Table) -> pa.Table:
        arrs = [
            pa.array([t.num_rows], pa.int64()),
            pa.array([pc.sum(t.column("dl")).as_py() or 0], pa.int64()),
        ]
        names = ["n", "sum_dl"]
        for i in range(nt):
            tf = t.column(f"tf{i}")
            arrs.append(
                pa.array(
                    [pc.sum(pc.cast(pc.greater(tf, 0), pa.int64())).as_py() or 0],
                    pa.int64(),
                )
            )
            names.append(f"df{i}")
        return pa.Table.from_arrays(arrs, names=names)

    parts = gather(feat.map_batches(
        stats_partial, batch_format="pyarrow", batch_size=None
    ))  # bounded: one tiny row per block
    n_docs = pc.sum(parts.column("n")).as_py()
    avgdl = pc.sum(parts.column("sum_dl")).as_py() / n_docs
    df = np.array(
        [pc.sum(parts.column(f"df{i}")).as_py() for i in range(nt)],
        dtype=np.float64,
    )
    idf = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
    ref = ray.put((idf, avgdl))

    def score_partial(t: pa.Table) -> pa.Table:
        w, ad = ray.get(ref)
        dl = t.column("dl").to_numpy()
        denom_dl = k1 * (1.0 - b + b * (dl / ad))
        s = np.zeros(t.num_rows, dtype=np.float64)
        for i in range(nt):
            tf = t.column(f"tf{i}").to_numpy().astype(np.float64)
            # tf = 0 contributes an exact 0.0 (zero numerator, positive
            # denominator) — same expression the SQL twin evaluates
            s += w[i] * (tf * (k1 + 1.0)) / (tf + denom_dl)
        s = np.round(s, 4)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        keep = s > 0
        return _top_k(ids[keep], s[keep], topk, _RESULT_SCHEMA)

    part = feat.map_batches(score_partial, batch_format="pyarrow")
    t = gather(part, _RESULT_SCHEMA)
    return ray.data.from_arrow(_top_k(
        t.column("doc_id").to_numpy(), t.column("bm25").to_numpy(),
        topk, _RESULT_SCHEMA,
    ))
