"""Perplexity-based quality filtering (CCNet-style).

CCNet (Wenzek et al. 2019) filters CommonCrawl by the perplexity of a
small language model trained on a clean REFERENCE corpus: the LM is
tiny and rides along with every scoring task; only the target corpus
streams. This module reproduces that shape with a deterministic
add-one-smoothed bigram LM:

- **train** (:func:`bigram_lm`): ONE streaming pass over the reference
  slice — per-batch bigram/context partial counts (bounded key
  cardinality: the reference vocabulary, not the corpus) merged
  in-process, exactly the bounded-key aggregate doctrine of
  ``query_utils._preagg_native``. The reference slice is a
  deterministic ``doc_id % sample_mod == 0`` subset, so at 100 TB the
  training pass touches a fixed fraction and the model stays
  broadcast-sized; ``max_broadcast_entries`` guards the ride-along
  assumption with a hard error instead of a silent driver OOM.
- **score** (:func:`perplexity_score`): the model broadcasts ONCE via
  ``ray.put`` (vocab array + sorted bigram-code array + count arrays);
  each batch maps tokens→ids with ``np.searchsorted``, looks bigram
  codes up in the sorted code table, and folds per-position
  ``-log2 P(w_i | w_{i-1})`` into per-doc means with
  ``np.add.reduceat`` over ONE flat token array — no per-row Python in
  the hot path, no shuffle anywhere (the corpus side is embarrassingly
  parallel).

Smoothing: ``P = (c(w1,w2) + 1) / (ctx(w1) + V)`` with ``V`` = distinct
reference vocabulary size and ``ctx(w1)`` = number of reference bigrams
starting with ``w1``; out-of-vocabulary contexts fall back to ``1/V``.
``ppl = 2 ** mean(-log2 P)`` rounded to 4 decimals (the rounding is part
of the contract so the DuckDB oracle — same counts, same formula — hash-
matches despite summation-order ULP noise). Docs with < 2 tokens have no
bigrams: ``ppl`` is null and they are kept.

Reference analog: the reference repo has no LM stage; this is one of the
beyond-reference training-data operators (brief: quality scoring family,
next to functions/text.py's length/stopword heuristics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..functions.text import tokenize
from ..query_utils import _rename, gather

#: the per-batch partial: (w1, w2) bigram counts
_BIGRAMS = pa.schema([("w1", pa.string()), ("w2", pa.string()), ("c", pa.int64())])

# ~48 MB of u64 codes + counts; above this the ride-along assumption is
# wrong and the caller must shrink the reference sample (CCNet keeps the
# reference LM small by construction — this guard keeps us honest).
_MAX_BROADCAST_ENTRIES = 3_000_000


@dataclass
class BigramLM:
    """Broadcastable add-one bigram model (arrays, not dicts — lookup
    is vectorized searchsorted, and the object-store copy is compact)."""

    vocab: np.ndarray        # sorted unicode array of reference tokens
    bigram_codes: np.ndarray # sorted uint64 codes (id1 * (V+1) + id2)
    bigram_counts: np.ndarray
    ctx_counts: np.ndarray   # per vocab id: bigrams starting with it

    @property
    def v(self) -> int:
        return len(self.vocab)


def _token_ids(lm_vocab: np.ndarray, toks: np.ndarray) -> np.ndarray:
    """Vocab ids for ``toks`` (-1 for OOV) via searchsorted."""
    if len(toks) == 0:
        return np.empty(0, dtype=np.int64)
    if len(lm_vocab) == 0:
        return np.full(len(toks), -1, dtype=np.int64)
    idx = np.searchsorted(lm_vocab, toks)
    idx_c = np.minimum(idx, len(lm_vocab) - 1)
    ok = (idx < len(lm_vocab)) & (lm_vocab[idx_c] == toks)
    return np.where(ok, idx_c, -1).astype(np.int64)


def bigram_lm(
    docs: "ray.data.Dataset",
    sample_mod: int = 11,
    max_broadcast_entries: int = _MAX_BROADCAST_ENTRIES,
) -> BigramLM:
    """Train the reference LM on the ``doc_id % sample_mod == 0`` slice
    of ``docs(doc_id, text)``. Bounded-key two-level aggregation: each
    batch reduces to at most one row per distinct bigram string before
    anything leaves the task; the in-process merge sees only
    O(blocks × vocab²)-bounded partials."""

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % sample_mod == 0
        texts = t.column("text").to_pylist()
        w1s: list[str] = []
        w2s: list[str] = []
        for flag, text in zip(keep, texts):
            if not flag:
                continue
            toks = [tk.lower() for tk in tokenize(text)]
            w1s.extend(toks[:-1])
            w2s.extend(toks[1:])
        if not w1s:
            return _BIGRAMS.empty_table()
        return _rename(
            pa.Table.from_pydict({"w1": w1s, "w2": w2s})
            .group_by(["w1", "w2"])
            .aggregate([([], "count_all")]),
            {"count_all": "c"},
        )

    parts = gather(
        docs.map_batches(partial, batch_format="pyarrow"), _BIGRAMS
    ).to_pandas()
    merged = parts.groupby(["w1", "w2"], as_index=False)["c"].sum()
    if len(merged) > max_broadcast_entries:
        raise ValueError(
            f"reference LM has {len(merged)} bigrams > broadcast bound "
            f"{max_broadcast_entries}; shrink the reference sample "
            f"(raise sample_mod) — the CCNet shape requires a small LM"
        )
    vocab = np.unique(
        np.concatenate([merged["w1"].to_numpy(dtype=object),
                        merged["w2"].to_numpy(dtype=object)])
    ).astype(str)
    base = np.uint64(len(vocab) + 1)
    id1 = _token_ids(vocab, merged["w1"].to_numpy(dtype=str))
    id2 = _token_ids(vocab, merged["w2"].to_numpy(dtype=str))
    codes = id1.astype(np.uint64) * base + id2.astype(np.uint64)
    order = np.argsort(codes)
    codes, counts = codes[order], merged["c"].to_numpy()[order].astype(np.int64)
    ctx = np.zeros(len(vocab), dtype=np.int64)
    np.add.at(ctx, id1, merged["c"].to_numpy().astype(np.int64))
    return BigramLM(vocab, codes, counts, ctx)


def perplexity_score(
    docs: "ray.data.Dataset",
    lm: BigramLM,
    ppl_threshold: float = 40.0,
) -> "ray.data.Dataset":
    """docs(doc_id, text) → (doc_id, n_bigrams, ppl, kept). ``ppl`` is
    null (and ``kept`` true) for docs with < 2 tokens."""
    ref = ray.put(lm)
    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_bigrams", pa.int64()),
         ("ppl", pa.float64()), ("kept", pa.bool_())]
    )

    def score(t: pa.Table) -> pa.Table:
        m: BigramLM = ray.get(ref)
        base = np.uint64(m.v + 1)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t.column("text").to_pylist()
        tok_lists = [[tk.lower() for tk in tokenize(x)] for x in texts]
        lens = np.fromiter((len(x) for x in tok_lists), dtype=np.int64,
                           count=len(tok_lists))
        n_big = np.maximum(lens - 1, 0)
        flat = (np.concatenate([np.asarray(x, dtype=str) for x in tok_lists])
                if lens.sum() else np.empty(0, dtype=str))
        tid = _token_ids(m.vocab, flat)
        # per-doc bigram slices of the flat id array
        starts = np.zeros(len(lens), dtype=np.int64)
        if len(lens) > 1:
            np.cumsum(lens[:-1], out=starts[1:])
        keep = np.ones(len(flat), dtype=bool)
        # drop each doc's LAST token position → bigram-start positions
        if len(flat):
            ends = starts + lens - 1
            keep[ends[lens > 0]] = False
        w1 = tid[keep]
        w2_keep = np.ones(len(flat), dtype=bool)
        if len(flat):
            w2_keep[starts[lens > 0]] = False
        w2 = tid[w2_keep]
        # counts: OOV (id -1) contexts/bigrams count 0
        code = np.where(
            (w1 >= 0) & (w2 >= 0),
            w1.astype(np.uint64) * base + w2.astype(np.uint64),
            np.uint64(0),
        )
        c12 = np.zeros(len(code), dtype=np.int64)
        if len(m.bigram_codes) and len(code):
            pos = np.searchsorted(m.bigram_codes, code)
            pos_c = np.minimum(pos, len(m.bigram_codes) - 1)
            hit = ((pos < len(m.bigram_codes))
                   & (m.bigram_codes[pos_c] == code)
                   & (w1 >= 0) & (w2 >= 0))
            c12 = np.where(hit, m.bigram_counts[pos_c], 0)
        c1 = (np.where(w1 >= 0, m.ctx_counts[np.maximum(w1, 0)], 0)
              if m.v else np.zeros(len(w1), dtype=np.int64))
        nll = -np.log2((c12 + 1.0) / (c1 + float(max(m.v, 1))))
        # bincount over a per-position doc index (reduceat would need
        # boundary clipping that corrupts the preceding group when a
        # zero-bigram doc sits at the array end)
        doc_idx = np.repeat(np.arange(len(lens)), n_big)
        sums = np.bincount(doc_idx, weights=nll, minlength=len(lens))
        with np.errstate(invalid="ignore", divide="ignore"):
            ppl = np.round(2.0 ** (sums / n_big), 4)
        has = n_big > 0
        kept = np.where(has, ppl <= ppl_threshold, True)
        return pa.Table.from_arrays(
            [pa.array(ids), pa.array(n_big),
             pa.array(np.where(has, ppl, np.nan), mask=~has),
             pa.array(kept.astype(bool))],
            schema=out_schema,
        )

    return docs.map_batches(score, batch_format="pyarrow")
