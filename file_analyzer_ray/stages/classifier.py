"""fastText-style hashed linear quality classifier.

The standard web-pipeline quality gate (CCNet / GPT-3 / LLaMA data
recipes): score = bias + mean over token instances of a weight looked
up by HASH BUCKET (no vocabulary file — the hashing trick), keep when
the score clears a threshold. Reference parity note: the reference's
quality surface is heuristic ratios only (this repo's ``docs_quality``);
the learned-classifier gate is part of the beyond-reference
training-data surface.

Determinism contract (shared with the DuckDB oracle in queries.py):

- tokens  = lowercased alphanumeric runs (``[a-z0-9]+``), the repo-wide
  tokenizer convention;
- bucket  = first 4 bytes of ``md5(token)`` as an integer, mod ``dim``
  (DuckDB: ``('0x' || substr(md5(t),1,8))::UBIGINT % dim``);
- weights = ``default_rng(seed).normal(0, scale, dim)`` — DATA-
  INDEPENDENT, so the oracle embeds them as SQL literals exactly like
  the LSH hyperplanes;
- score   = ``round(bias + mean(bucket weights), 6)``; empty docs score
  ``round(bias, 6)``; ``keep = score >= 0``.

Scale shape: the model is built once per actor in ``__init__`` (never
shipped per batch — it's seed-derived), scoring is one numpy gather +
``np.add.reduceat`` per batch, and the token→bucket map is memoized per
actor (the md5 per DISTINCT token amortizes to zero on a zipfian
vocabulary — the web-corpus shape).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

DEFAULT_DIM = 2048
DEFAULT_SEED = 7
DEFAULT_SCALE = 0.3
SCORE_DECIMALS = 6


def model_weights(
    dim: int = DEFAULT_DIM, seed: int = DEFAULT_SEED, scale: float = DEFAULT_SCALE
) -> np.ndarray:
    """The seeded weight vector — the single source of truth for both
    the actor and the SQL-literal oracle."""
    return np.random.default_rng(seed).normal(0.0, scale, dim)


def token_bucket(token: str, dim: int = DEFAULT_DIM) -> int:
    return int(hashlib.md5(token.encode("utf-8")).hexdigest()[:8], 16) % dim


class QualityClassifier:
    """Actor-pool stage: ``(doc_id, text) -> (doc_id, score, keep)``."""

    def __init__(
        self,
        dim: int = DEFAULT_DIM,
        seed: int = DEFAULT_SEED,
        scale: float = DEFAULT_SCALE,
        bias: float = 0.0,
    ):
        from ..functions.text import TOKEN_RE

        self.dim = dim
        self.bias = bias
        self.w = model_weights(dim, seed, scale)
        self.token_re = TOKEN_RE
        self._bucket_memo: dict[str, int] = {}

    def _bucket(self, tok: str) -> int:
        b = self._bucket_memo.get(tok)
        if b is None:
            b = token_bucket(tok, self.dim)
            # bounded (ADVICE r3): a long-lived worker process serving
            # many queries must not accumulate an unbounded token memo
            if len(self._bucket_memo) < 1_000_000:
                self._bucket_memo[tok] = b
        return b

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        n = t.num_rows
        txt = t.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        # tokenize in Arrow C++: lower + split on non-alphanumeric runs
        # (identical token stream to TOKEN_RE.findall on lowered text —
        # split leaves empty strings at the edges, filtered below);
        # only batch-DISTINCT tokens ever reach Python (md5 memo).
        toks = pc.split_pattern_regex(pc.utf8_lower(txt), "[^a-z0-9]+")
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        nonempty = pc.not_equal(flat, "")
        flat = flat.filter(nonempty)
        parents = parents[nonempty.to_numpy(zero_copy_only=False)]
        scores = np.full(n, self.bias, dtype=np.float64)
        if len(flat):
            enc = flat.dictionary_encode()
            vocab = enc.dictionary.to_pylist()
            idxs = enc.indices.to_numpy(zero_copy_only=False)
            dbuck = np.empty(len(vocab), dtype=np.int64)
            for j, tok in enumerate(vocab):
                dbuck[j] = self._bucket(tok)
            vals = self.w[dbuck[idxs]]
            counts = np.bincount(parents, minlength=n)
            sums = np.bincount(parents, weights=vals, minlength=n)
            nz = counts > 0
            scores[nz] += sums[nz] / counts[nz]
        scores = np.round(scores, SCORE_DECIMALS)
        return pa.Table.from_arrays(
            [
                pa.array(ids.astype(np.int64)),
                pa.array(scores),
                pa.array(scores >= 0.0),
            ],
            names=["doc_id", "score", "keep"],
        )


#: per-worker-process classifier cache for the task path: the model is
#: seed-derived (microseconds to build) and the token→bucket memo is
#: shared across every batch a worker scores — the same amortization an
#: actor pool gives, without paying actor-pool startup per query.
_PROC_CLASSIFIERS: "dict[tuple, QualityClassifier]" = {}


def _score_batch(
    t: pa.Table, dim: int, seed: int, scale: float, bias: float
) -> pa.Table:
    key = (dim, seed, scale, bias)
    clf = _PROC_CLASSIFIERS.get(key)
    if clf is None:
        clf = _PROC_CLASSIFIERS[key] = QualityClassifier(dim, seed, scale, bias)
    return clf(t)


def classify_quality(
    ds,
    dim: int = DEFAULT_DIM,
    seed: int = DEFAULT_SEED,
    scale: float = DEFAULT_SCALE,
    bias: float = 0.0,
):
    """Score a ``(doc_id, text)`` dataset with the seeded hashed linear
    model — zero-copy Arrow batches. Runs as TASKS (the model is
    seed-derived and cached per worker process, so there is no
    per-actor setup worth a pool)."""
    return ds.map_batches(
        _score_batch,
        fn_kwargs={"dim": dim, "seed": seed, "scale": scale, "bias": bias},
        batch_format="pyarrow",
    )
