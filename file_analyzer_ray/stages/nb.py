"""Multinomial Naive Bayes language classifier, TRAINED distributed —
the supervised sibling of the fixed-weight hashed linear classifier
(stages/classifier.py) and the stopword-profile langid
(functions/text.py). The reference ships static heuristics; a
training-data engine also needs the train-on-the-corpus loop, and NB
is its minimal honest member: the sufficient statistics are one
bounded-key count table, so training is a combiner-shaped aggregate
(the 100 TB shape — model ∝ vocabulary, never ∝ corpus).

Train (slice ``doc_id % train_mod == 0``):
  c[l,t]  = token occurrences of term t in lang-l train docs
  n[l]    = total train token occurrences in lang l
  V       = distinct terms across the train slice
  prior_l = ln(train docs of lang l / train docs)

Score (every doc):
  s_l(d) = prior_l + Σ_{token occurrences t of d} ln((c[l,t]+1)/(n[l]+V))

Prediction: alphabetically-first among the argmax of the ROUND-4
scores — the same tie/precision contract as docs_langid's CASE and
docs_perplexity's round-to-4 (float sums may differ in the last ulp
between engines; rounded to 4 decimals they are hash-identical).

Ray shape: per-batch Arrow-C++ tokenize → per-batch (lang, term)
count combiner → ONE bounded merge (vocab-sized) → model broadcast
via ray.put → stateless scoring map_batches (searchsorted vocab
lookup + one np.add.at scatter per batch; unseen terms hit the
smoothed floor row). No shuffle anywhere: the only aggregate is
vocabulary-sized by construction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..query_utils import _rename, gather

#: fixed label set (the synthetic corpus's lang mix; FIXTURES.md) —
#: static output schema, alphabetical order IS the tie-break order.
LANGS = ("de", "en", "es", "fr", "zh")

_COUNT_SCHEMA = pa.schema(
    [("lang", pa.string()), ("term", pa.string()), ("c", pa.int64())]
)


def _lang_term_counts(t: pa.Table, train_mod: int) -> pa.Table:
    """Train-slice batch → (lang, term, c) combiner rows + the per-lang
    doc counter rows (term='' sentinel keeps it one table)."""
    import pyarrow.compute as pc

    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    keep = pa.array(ids % train_mod == 0)
    t = t.filter(keep)
    if t.num_rows == 0:
        return _COUNT_SCHEMA.empty_table()
    txt = t.column("text")
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(txt), "[^a-z0-9]+")
    parents = pc.list_parent_indices(toks)
    flat = pc.list_flatten(toks)
    mask = pc.not_equal(flat, "")
    lang = t.column("lang")
    if isinstance(lang, pa.ChunkedArray):
        lang = lang.combine_chunks()
    pairs = pa.Table.from_arrays(
        [lang.take(parents).filter(mask), flat.filter(mask)],
        names=["lang", "term"],
    )
    agg = pairs.group_by(["lang", "term"]).aggregate([("term", "count")])
    counts = _rename(agg, {"term_count": "c"}).cast(_COUNT_SCHEMA)
    # per-lang train-doc counts ride along as term='' sentinel rows
    # ('' can never be a token: the empty-string mask above)
    docs = (
        pa.Table.from_arrays([lang], names=["lang"])
        .group_by(["lang"])
        .aggregate([([], "count_all")])
    )
    sent = pa.Table.from_arrays(
        [
            docs.column(0),
            pa.array([""] * docs.num_rows, pa.string()),
            docs.column(1).cast(pa.int64()),
        ],
        names=["lang", "term", "c"],
    )
    return pa.concat_tables([counts, sent]).cast(_COUNT_SCHEMA)


def train_nb(docs: "ray.data.Dataset", train_mod: int = 3) -> dict:
    """One streaming pass → broadcastable model dict. The merge is an
    Arrow group_by on the driver over the gathered combiner rows (rows
    ≤ blocks × langs × vocab — the idf-table bound, stages/tfidf.py)."""

    def combine(t: pa.Table) -> pa.Table:
        return _lang_term_counts(t, train_mod)

    part = gather(
        docs.map_batches(combine, batch_format="pyarrow"), _COUNT_SCHEMA
    )
    merged = _rename(
        part.group_by(["lang", "term"]).aggregate([("c", "sum")]),
        {"c_sum": "c"},
    ).to_pylist()
    langs = list(LANGS)
    lidx = {l: i for i, l in enumerate(langs)}
    term_rows: dict[str, np.ndarray] = {}
    doc_counts = np.zeros(len(langs), dtype=np.int64)
    for r in merged:
        li = lidx.get(r["lang"])
        if li is None:
            continue
        if r["term"] == "":
            doc_counts[li] = r["c"]
            continue
        row = term_rows.setdefault(
            r["term"], np.zeros(len(langs), dtype=np.int64)
        )
        row[li] = r["c"]
    vocab = sorted(term_rows)
    counts = (
        np.stack([term_rows[t] for t in vocab])
        if vocab
        else np.zeros((0, len(langs)), dtype=np.int64)
    )
    n_l = counts.sum(axis=0)
    v = max(len(vocab), 1)
    # log-prob matrix with a trailing unseen-term floor row
    logp = np.log((counts + 1.0) / (n_l + v))
    floor = np.log(1.0 / (n_l + v))
    total_docs = max(int(doc_counts.sum()), 1)
    with np.errstate(divide="ignore"):
        priors = np.log(doc_counts / total_docs)
    return {
        "vocab": np.array(vocab, dtype=object),
        "logp": np.vstack([logp, floor[None, :]]),
        "priors": priors,
        "langs": langs,
    }


def nb_predict(docs: "ray.data.Dataset", model: dict) -> "ray.data.Dataset":
    """(doc_id, text, lang) → (doc_id, lang_actual, lang_pred,
    s_de..s_zh rounded to 4). Stateless scoring tasks; the model rides
    the object store once via ray.put."""
    model_ref = ray.put(model)
    langs = model["langs"]
    out_names = ["doc_id", "lang_actual", "lang_pred"] + [
        f"s_{l}" for l in langs
    ]

    def score(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = ray.get(model_ref)
        vocab, logp, priors = m["vocab"], m["logp"], m["priors"]
        n = t.num_rows
        txt = t.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks = pc.split_pattern_regex(pc.utf8_lower(txt), "[^a-z0-9]+")
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        words = flat.to_numpy(zero_copy_only=False)[mask]
        parents = parents[mask]
        # vocab row per token; misses land on the trailing floor row
        idx = np.searchsorted(vocab, words)
        idx_c = np.clip(idx, 0, len(vocab) - 1)
        hit = (
            (vocab[idx_c] == words) if len(vocab) else np.zeros(len(words), bool)
        )
        rows = np.where(hit, idx_c, len(vocab))
        scores = np.tile(priors, (n, 1))
        np.add.at(scores, parents, logp[rows])
        scores = np.round(scores, 4)
        pred = np.array(langs, dtype=object)[np.argmax(scores, axis=1)]
        cols = [
            t.column("doc_id"),
            t.column("lang"),
            pa.array(pred, pa.string()),
        ] + [pa.array(scores[:, i]) for i in range(len(langs))]
        return pa.Table.from_arrays(cols, names=out_names)

    return docs.map_batches(score, batch_format="pyarrow")
