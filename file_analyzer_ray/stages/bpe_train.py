"""BPE vocabulary TRAINING over the corpus (Sennrich et al. 2016).

The repo already applies a GPT-2-style pre-tokenizer (docs_bpe_tokens);
this module learns the merge table itself — the step a training-data
pipeline runs once per corpus before tokenizing it. The classic
algorithm factors exactly the way a 10^12-doc pipeline needs:

1. **Distributed word counting** (the only corpus-sized pass): per-batch
   token counting → ONE sort by word → run-sum per complete word group
   through the sorted-run window engine. Word cardinality is unbounded;
   no single task ever holds the full vocabulary.
2. **Serial merge loop on the COUNT TABLE** (vocab ≪ corpus — the
   standard shape: Sennrich's reference implementation trains on word
   counts, not raw text). Deterministic: ties break on (pair freq DESC,
   pair lexicographic ASC).

``bpe_encode`` applies a learned merge table inside ``map_batches``
(merge ranks broadcast once via ``ray.put``), closing the loop:
train → encode → count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..query_utils import actor_map, gather

END = "</w>"


def word_counts(
    ds: "ray.data.Dataset", min_count: int = 1
) -> "ray.data.Dataset":
    """``(text)`` → global ``(word, n)`` counts; lowercased alphanumeric
    tokens (repo tokenizer convention). Per-batch combine, then the
    sort + run-scan merge — scales to unbounded vocabulary.

    ``min_count`` prunes the long hapax tail INSIDE the merge kernel
    (standard BPE-training practice): pairs supported only by sub-
    threshold words cannot reach the merge table anyway, and the prune
    is what bounds the driver-side count table at web scale (zipfian
    vocab: min_count=2 alone typically drops ~half the distinct words)."""
    from ..functions.text import TOKEN_RE
    from ..query_utils import _window_by_key_arrow

    def partial(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for txt in t.column("text").to_pylist():
            toks.extend(TOKEN_RE.findall((txt or "").lower()))
        if not toks:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["word", "n"],
            )
        uniq, cnt = np.unique(np.asarray(toks, dtype=object).astype(str),
                              return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(uniq.tolist(), pa.string()),
             pa.array(cnt.astype(np.int64))],
            names=["word", "n"],
        )

    pre = ds.map_batches(partial, batch_format="pyarrow")

    def run_sum(t: pa.Table) -> pa.Table:
        from .banding import run_bounds

        if t.num_rows == 0:
            return t
        n = t.column("n").to_numpy(zero_copy_only=False)
        words = t.column("word")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        # runs over the string column without Python round-trip:
        # boundaries via offset-compare on the dictionary indices
        idx = words.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        starts, ends = run_bounds(idx)
        sums = np.add.reduceat(n, starts)
        keep = sums >= min_count
        return pa.Table.from_arrays(
            [words.take(pa.array(starts[keep])),
             pa.array(sums[keep].astype(np.int64))],
            names=["word", "n"],
        )

    return _window_by_key_arrow(pre, ["word"], ["word"], run_sum)


def bpe_train_from_counts(
    counts: "dict[str, int]", num_merges: int
) -> "list[tuple[str, str, int]]":
    """Deterministic merge loop on a word-count table: returns up to
    ``num_merges`` rows ``(left, right, freq)`` in learned order. Pure
    function — the serial half of the classic algorithm."""
    vocab = {tuple(w) + (END,): c for w, c in counts.items() if w}
    merges: list[tuple[str, str, int]] = []
    for _ in range(num_merges):
        pair_freq: dict[tuple[str, str], int] = {}
        for sym, c in vocab.items():
            for i in range(len(sym) - 1):
                p = (sym[i], sym[i + 1])
                pair_freq[p] = pair_freq.get(p, 0) + c
        if not pair_freq:
            break
        best = min(pair_freq.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), freq = best
        if freq < 2:  # nothing left worth merging
            break
        merges.append((a, b, freq))
        merged = a + b
        new_vocab: dict[tuple, int] = {}
        for sym, c in vocab.items():
            out = []
            i = 0
            while i < len(sym):
                if i < len(sym) - 1 and sym[i] == a and sym[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(sym[i])
                    i += 1
            key = tuple(out)
            new_vocab[key] = new_vocab.get(key, 0) + c
        vocab = new_vocab
    return merges


def bpe_train(
    ds: "ray.data.Dataset", num_merges: int = 50, min_count: int = 1
) -> pa.Table:
    """Corpus → learned merge table ``(rank, left, right, freq)``.
    The distributed part is the word-count pass (``min_count`` bounds
    the table it emits); the merge loop runs on the count table
    (vocab-sized — at web scale still the single-node step every
    production BPE trainer uses)."""
    rows = gather(word_counts(ds, min_count=min_count)).to_pylist()
    counts = {r["word"]: r["n"] for r in rows}
    merges = bpe_train_from_counts(counts, num_merges)
    return pa.Table.from_arrays(
        [
            pa.array(np.arange(len(merges), dtype=np.int64)),
            pa.array([m[0] for m in merges], pa.string()),
            pa.array([m[1] for m in merges], pa.string()),
            pa.array([m[2] for m in merges], pa.int64()),
        ],
        names=["rank", "left", "right", "freq"],
    )


def _encode_word(word: str, rank: "dict[tuple[str, str], int]") -> list[str]:
    sym = list(word) + [END]
    while len(sym) > 1:
        best_i, best_r = -1, None
        for i in range(len(sym) - 1):
            r = rank.get((sym[i], sym[i + 1]))
            if r is not None and (best_r is None or r < best_r):
                best_i, best_r = i, r
        if best_r is None:
            break
        sym[best_i : best_i + 2] = [sym[best_i] + sym[best_i + 1]]
    return sym


def bpe_encode(
    ds: "ray.data.Dataset", merges: pa.Table
) -> "ray.data.Dataset":
    """Apply a learned merge table: ``(doc_id, text)`` →
    ``(doc_id, n_bpe_tokens)``. The rank map is broadcast ONCE via
    ``ray.put``; per-actor word→encoding memo (zipfian vocabulary —
    the per-word dynamic program amortizes to zero)."""
    rank = {
        (left, right): int(r)
        for r, left, right in zip(
            merges.column("rank").to_pylist(),
            merges.column("left").to_pylist(),
            merges.column("right").to_pylist(),
        )
    }
    ref = ray.put(rank)

    class Encoder:
        def __init__(self):
            from ..functions.text import TOKEN_RE

            self.rank = ray.get(ref)
            self.token_re = TOKEN_RE
            self.memo: dict[str, int] = {}

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            out = np.zeros(t.num_rows, dtype=np.int64)
            for i, txt in enumerate(t.column("text").to_pylist()):
                total = 0
                for w in self.token_re.findall((txt or "").lower()):
                    n = self.memo.get(w)
                    if n is None:
                        n = len(_encode_word(w, self.rank))
                        self.memo[w] = n
                    total += n
                out[i] = total
            return pa.Table.from_arrays(
                [pa.array(ids.astype(np.int64)), pa.array(out)],
                names=["doc_id", "n_bpe_tokens"],
            )

    return actor_map(ds, Encoder)


#: deterministic global id space with NO vocab shuffle: a single char
#: maps to its codepoint, END_ID is above the BMP, merged symbols get
#: MERGE_ID_BASE + rank. Ids are stable across processes and runs by
#: construction — no global dictionary build pass is needed.
END_ID = 0x110000
MERGE_ID_BASE = 0x110001


def symbol_id(sym: str, rank_of_merged: "dict[str, int]") -> int:
    if sym == END:
        return END_ID
    if len(sym) == 1:
        return ord(sym)
    return MERGE_ID_BASE + rank_of_merged[sym]


def bpe_encode_ids(
    ds: "ray.data.Dataset", merges: pa.Table
) -> "ray.data.Dataset":
    """Apply a learned merge table emitting FULL token ids:
    ``(doc_id, text)`` → ``(doc_id, ids: list<int64>, n_bpe_tokens)``
    — the output packing/chunking consume for an actual training
    stream. Same broadcast-rank + per-actor word memo shape as
    :func:`bpe_encode`."""
    rank = {}
    merged_rank = {}
    for r, left, right in zip(
        merges.column("rank").to_pylist(),
        merges.column("left").to_pylist(),
        merges.column("right").to_pylist(),
    ):
        rank[(left, right)] = int(r)
        merged_rank[left + right] = int(r)
    ref = ray.put((rank, merged_rank))

    class Encoder:
        def __init__(self):
            from ..functions.text import TOKEN_RE

            self.rank, self.merged_rank = ray.get(ref)
            self.token_re = TOKEN_RE
            self.memo: dict[str, list] = {}

        def _ids(self, w: str) -> list:
            ids = self.memo.get(w)
            if ids is None:
                ids = [
                    symbol_id(s, self.merged_rank)
                    for s in _encode_word(w, self.rank)
                ]
                self.memo[w] = ids
            return ids

        def __call__(self, t: pa.Table) -> pa.Table:
            out_ids, out_n = [], []
            for txt in t.column("text").to_pylist():
                doc: list = []
                for w in self.token_re.findall((txt or "").lower()):
                    doc.extend(self._ids(w))
                out_ids.append(doc)
                out_n.append(len(doc))
            return pa.Table.from_arrays(
                [
                    t.column("doc_id"),
                    pa.array(out_ids, pa.list_(pa.int64())),
                    pa.array(out_n, pa.int64()),
                ],
                names=["doc_id", "ids", "n_bpe_tokens"],
            )

    return actor_map(ds, Encoder)
