"""Collocation / phrase mining via pointwise mutual information.

The vocabulary-building sibling of the TF-IDF family (stages/tfidf.py):
score every adjacent token pair (bigram) by how much more often it
occurs than its parts predict,

    pmi(a, b) = ln( p(ab) / (p(a) p(b)) )
             = ln(n_ab) + 2 ln(N_u) - ln(N_b) - ln(n_a) - ln(n_b)

with ``n_ab`` the corpus bigram count, ``n_a``/``n_b`` unigram counts,
``N_u`` total tokens and ``N_b`` total bigrams.  This is the classic
phrase-mining signal (Church & Hanks '90; word2vec's phrase pass uses
the same count ratio) used to decide tokenizer merges / multi-word
vocabulary entries over a training corpus.

Scale shape (one counting pass + one windowed merge):

    read (pruned: text only)
      → map_batches combiner: Arrow-C++ tokenize (lower + split, the
        pinned TOKEN_RE equivalence from stages/tfidf.py), vectorized
        adjacent-pair join, per-batch group_by counts for unigrams AND
        bigrams AND totals, unified into one (kind, w1, w2, n) table —
        raw token occurrences never leave the batch
      → ONE sort by (kind, w1, w2) + run-scan sum (complete key groups
        via the boundary side-channel) = merged corpus counts
      → candidates = bigrams with n_ab ≥ min_count; unigram counts
        attach via broadcast dict when the merged count table is small
        (≤ ``_PMI_BROADCAST_MAX`` rows), else a fully distributed
        explode + second sort attach (no driver materialization of the
        vocabulary) — both paths equality-tested at sf0.001.

Reference parity: the reference mines "interesting" byte signatures by
frequency (SURVEY.md §2 M14); this lifts the same count-ratio idea to
the token level for training-data vocabulary work.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: merged-count-table row cap for the driver/broadcast scoring path; a
#: web-scale corpus (bigram type count >> 2M) takes the distributed
#: explode + sort-attach path instead.
_PMI_BROADCAST_MAX = 2_000_000

_COUNT_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),
        ("w1", pa.string()),
        ("w2", pa.string()),
        ("n", pa.int64()),
    ]
)

_OUT_SCHEMA = pa.schema(
    [
        ("w1", pa.string()),
        ("w2", pa.string()),
        ("n_ab", pa.int64()),
        ("n_a", pa.int64()),
        ("n_b", pa.int64()),
        ("pmi", pa.float64()),
    ]
)


def _tokens_with_parents(t: pa.Table) -> tuple[pa.Array, np.ndarray]:
    """Batch → (flat lowercased tokens, parent row index per token),
    order-preserving.  Empty tokens (split artifacts at string ends)
    are dropped; the regex collapses separator runs so interior
    empties cannot occur, hence adjacency survives the filter."""
    txt = t.column("text")
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(txt), "[^a-z0-9]+")
    parents = pc.list_parent_indices(toks)
    flat = pc.list_flatten(toks)
    mask = pc.not_equal(flat, "")
    flat = flat.filter(mask)
    par = parents.filter(mask).to_numpy(zero_copy_only=False)
    return flat, par


def _count_partial(t: pa.Table) -> pa.Table:
    """The combiner: one (kind, w1, w2, n) row per distinct unigram
    ('u'), bigram ('b') and total ('t') in the batch."""
    from ..query_utils import _rename

    if t.num_rows == 0:
        return _COUNT_SCHEMA.empty_table()
    flat, par = _tokens_with_parents(t)
    n_tok = len(flat)
    if n_tok == 0:
        return _COUNT_SCHEMA.empty_table()
    # unigram counts: one Arrow group_by over the flat token array
    ug = _rename(
        pa.table({"w1": flat}).group_by(["w1"]).aggregate([("w1", "count")]),
        {"w1_count": "n"},
    )
    # bigrams: adjacent tokens under the same parent row — vectorized
    same = par[1:] == par[:-1]
    w1 = flat.slice(0, n_tok - 1).filter(pa.array(same))
    w2 = flat.slice(1).filter(pa.array(same))
    n_big = len(w1)
    bg = _rename(
        pa.table({"w1": w1, "w2": w2, "g": np.ones(n_big, np.int8)})
        .group_by(["w1", "w2"])
        .aggregate([("g", "count")]),
        {"g_count": "n"},
    )
    empty = pa.array([""] * ug.num_rows, pa.string())
    parts = [
        pa.table(
            {
                "kind": pa.array(["u"] * ug.num_rows, pa.string()),
                "w1": ug.column("w1"),
                "w2": empty,
                "n": ug.column("n").cast(pa.int64()),
            }
        ),
        pa.table(
            {
                "kind": pa.array(["b"] * bg.num_rows, pa.string()),
                "w1": bg.column("w1"),
                "w2": bg.column("w2"),
                "n": bg.column("n").cast(pa.int64()),
            }
        ),
        pa.table(
            {
                "kind": pa.array(["t", "t"], pa.string()),
                "w1": pa.array(["tokens", "bigrams"], pa.string()),
                "w2": pa.array(["", ""], pa.string()),
                "n": pa.array([n_tok, n_big], pa.int64()),
            }
        ),
    ]
    return pa.concat_tables(parts).cast(_COUNT_SCHEMA)


def _merge_counts(t: pa.Table) -> pa.Table:
    """Complete (kind, w1, w2) groups → one summed row per group."""
    from ..query_utils import _run_starts_mask_arrow

    if t.num_rows == 0:
        return _COUNT_SCHEMA.empty_table()
    starts = np.flatnonzero(_run_starts_mask_arrow(t, ["kind", "w1", "w2"]))
    n = t.column("n").to_numpy()
    sums = np.add.reduceat(n, starts)
    idx = pa.array(starts)
    return pa.table(
        {
            "kind": t.column("kind").take(idx),
            "w1": t.column("w1").take(idx),
            "w2": t.column("w2").take(idx),
            "n": pa.array(sums, pa.int64()),
        }
    )


def corpus_counts(ds):
    """documents(text) → MATERIALIZED merged count Dataset (kind, w1,
    w2, n).  Materialized because three consumers follow (totals,
    candidates, unigrams) — the pagerank edges pin; the table is
    vocabulary-sized, orders of magnitude below the corpus."""
    from ..query_utils import _window_by_key_arrow

    partials = ds.map_batches(_count_partial, batch_format="pyarrow")
    return _window_by_key_arrow(
        partials, ["kind", "w1", "w2"], ["kind", "w1", "w2"], _merge_counts
    ).materialize()


def _pmi_from_counts(
    n_ab: np.ndarray,
    n_a: np.ndarray,
    n_b: np.ndarray,
    n_u: int,
    n_b_tot: int,
) -> np.ndarray:
    return (
        np.log(n_ab.astype(np.float64))
        + 2.0 * np.log(float(n_u))
        - np.log(float(n_b_tot))
        - np.log(n_a.astype(np.float64))
        - np.log(n_b.astype(np.float64))
    )


def collocations(ds, min_count: int = 5, broadcast_max: int | None = None):
    """documents(text) Dataset → (w1, w2, n_ab, n_a, n_b, pmi) for
    every bigram with corpus count ≥ ``min_count``, sorted by
    (w1, w2).  ``broadcast_max`` overrides the path-choice cap (tests
    force 0 to exercise the distributed attach)."""
    from ..query_utils import gather

    cap = _PMI_BROADCAST_MAX if broadcast_max is None else broadcast_max
    counts = corpus_counts(ds)

    def only_totals(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("kind"), "t"))

    totals = {
        r["w1"]: r["n"]
        for r in gather(
            counts.map_batches(only_totals, batch_format="pyarrow")
        ).to_pylist()
    }
    n_u, n_b_tot = int(totals["tokens"]), int(totals["bigrams"])

    if counts.count() <= cap:
        return _score_broadcast(counts, min_count, n_u, n_b_tot)
    return _score_distributed(counts, min_count, n_u, n_b_tot)


def _score_broadcast(counts, min_count: int, n_u: int, n_b_tot: int):
    """Small merged table: pull once, score vectorized in-process."""
    import ray
    import ray.data

    from ..query_utils import gather

    t = gather(counts, _COUNT_SCHEMA)
    kind = t.column("kind").to_numpy(zero_copy_only=False)
    uni = t.filter(pa.array(kind == "u"))
    udict = dict(
        zip(
            uni.column("w1").to_pylist(),
            uni.column("n").to_numpy(zero_copy_only=False),
        )
    )
    big = t.filter(pa.array(kind == "b"))
    n_ab = big.column("n").to_numpy(zero_copy_only=False)
    keep = n_ab >= min_count
    big = big.filter(pa.array(keep))
    n_ab = n_ab[keep]
    w1 = big.column("w1").to_pylist()
    w2 = big.column("w2").to_pylist()
    n_a = np.array([udict[w] for w in w1], np.int64)
    n_b = np.array([udict[w] for w in w2], np.int64)
    out = pa.table(
        {
            "w1": pa.array(w1, pa.string()),
            "w2": pa.array(w2, pa.string()),
            "n_ab": pa.array(n_ab, pa.int64()),
            "n_a": pa.array(n_a, pa.int64()),
            "n_b": pa.array(n_b, pa.int64()),
            "pmi": pa.array(_pmi_from_counts(n_ab, n_a, n_b, n_u, n_b_tot)),
        }
    ).sort_by([("w1", "ascending"), ("w2", "ascending")])
    return ray.data.from_arrow(out.cast(_OUT_SCHEMA))


# exploded-row schema for the distributed unigram attach
_EXPL_SCHEMA = pa.schema(
    [
        ("word", pa.string()),
        ("side", pa.int8()),  # 0 = unigram count row, 1 = w1 leg, 2 = w2 leg
        ("w1", pa.string()),
        ("w2", pa.string()),
        ("n_ab", pa.int64()),
        ("n_u", pa.int64()),
    ]
)


def _score_distributed(counts, min_count: int, n_u: int, n_b_tot: int):
    """Web-scale path: the merged count table never lands on the
    driver.  Candidates explode into one row per (bigram, word leg),
    union with the unigram rows, ONE sort by word attaches n_a / n_b to
    the legs inside complete word groups, a second sort by (w1, w2)
    folds the two legs back into one scored row."""
    from ..query_utils import _run_starts_mask_arrow, _window_by_key_arrow

    def explode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EXPL_SCHEMA.empty_table()
        kind = t.column("kind").to_numpy(zero_copy_only=False)
        out = []
        uni = t.filter(pa.array(kind == "u"))
        if uni.num_rows:
            out.append(
                pa.table(
                    {
                        "word": uni.column("w1"),
                        "side": pa.array(
                            np.zeros(uni.num_rows, np.int8), pa.int8()
                        ),
                        "w1": pa.array([""] * uni.num_rows, pa.string()),
                        "w2": pa.array([""] * uni.num_rows, pa.string()),
                        "n_ab": pa.array(
                            np.zeros(uni.num_rows, np.int64), pa.int64()
                        ),
                        "n_u": uni.column("n"),
                    }
                )
            )
        big = t.filter(pa.array(kind == "b"))
        if big.num_rows:
            nab = big.column("n").to_numpy(zero_copy_only=False)
            big = big.filter(pa.array(nab >= min_count))
            nab = nab[nab >= min_count]
        if big.num_rows:
            zero = pa.array(np.zeros(big.num_rows, np.int64), pa.int64())
            for side, wcol in ((1, "w1"), (2, "w2")):
                out.append(
                    pa.table(
                        {
                            "word": big.column(wcol),
                            "side": pa.array(
                                np.full(big.num_rows, side, np.int8), pa.int8()
                            ),
                            "w1": big.column("w1"),
                            "w2": big.column("w2"),
                            "n_ab": pa.array(nab, pa.int64()),
                            "n_u": zero,
                        }
                    )
                )
        if not out:
            return _EXPL_SCHEMA.empty_table()
        return pa.concat_tables(out).cast(_EXPL_SCHEMA)

    def attach(t: pa.Table) -> pa.Table:
        """Complete word groups: copy the side-0 count onto the legs."""
        if t.num_rows == 0:
            return _EXPL_SCHEMA.empty_table()
        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["word"]))
        side = t.column("side").to_numpy(zero_copy_only=False)
        nu = t.column("n_u").to_numpy(zero_copy_only=False)
        run_of = (
            np.searchsorted(starts, np.arange(t.num_rows), side="right") - 1
        )
        # per word group exactly one side-0 row carries the count
        grp_n = np.zeros(len(starts), np.int64)
        uni_mask = side == 0
        grp_n[run_of[uni_mask]] = nu[uni_mask]
        legs = t.filter(pa.array(~uni_mask))
        return legs.set_column(
            legs.schema.get_field_index("n_u"),
            "n_u",
            pa.array(grp_n[run_of[~uni_mask]], pa.int64()),
        )

    def fold(t: pa.Table) -> pa.Table:
        """Complete (w1, w2) groups of two legs → one scored row."""
        if t.num_rows == 0:
            return _OUT_SCHEMA.empty_table()
        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["w1", "w2"]))
        side = t.column("side").to_numpy(zero_copy_only=False)
        nu = t.column("n_u").to_numpy(zero_copy_only=False)
        nab = t.column("n_ab").to_numpy(zero_copy_only=False)
        run_of = (
            np.searchsorted(starts, np.arange(t.num_rows), side="right") - 1
        )
        n_a = np.zeros(len(starts), np.int64)
        n_b = np.zeros(len(starts), np.int64)
        n_a[run_of[side == 1]] = nu[side == 1]
        n_b[run_of[side == 2]] = nu[side == 2]
        idx = pa.array(starts)
        n_ab = nab[starts]
        return pa.table(
            {
                "w1": t.column("w1").take(idx),
                "w2": t.column("w2").take(idx),
                "n_ab": pa.array(n_ab, pa.int64()),
                "n_a": pa.array(n_a, pa.int64()),
                "n_b": pa.array(n_b, pa.int64()),
                "pmi": pa.array(
                    _pmi_from_counts(n_ab, n_a, n_b, n_u, n_b_tot)
                ),
            }
        )

    exploded = counts.map_batches(explode, batch_format="pyarrow")
    legs = _window_by_key_arrow(
        exploded, ["word"], ["word", "side"], attach
    )
    return _window_by_key_arrow(legs, ["w1", "w2"], ["w1", "w2", "side"], fold)
