"""documents-table queries (text stats, quality, langid, dedup
family, retrieval, sampling/mixture) — split from queries.py r5
(VERDICT r4 item 5); registry assembly stays in queries.py."""

from __future__ import annotations

import json as _json  # noqa: F401

import numpy as np  # noqa: F401
import pandas as pd  # noqa: F401
import pyarrow as pa  # noqa: F401
import pyarrow.compute as pc  # noqa: F401

import ray  # noqa: F401
import ray.data  # noqa: F401

from .query_utils import (_cents, _preagg_native, _read,  # noqa: F401
                          actor_map, gather, read_parquet_clean)

from .queries_embeddings import q_embeddings_knn  # noqa: F401  (hybrid search fuses both)


def q_docs_length_deciles(sf_dir: str):
    """Global decile assignment (ntile) over an unbounded total order —
    the second consumer of the distributed prefix scan (stages/scan.py):
    global row number = exclusive running COUNT over the (n_chars,
    doc_id) order, computed with one sort + two streaming passes and a
    blocks-bounded driver fold — no driver-side rank collection, no
    single task holding the corpus. The curriculum / length-bucketing
    primitive (short-to-long ordering, per-decile mixing) a training
    pipeline runs before packing. Exact ntile semantics (first N mod k
    buckets take one extra row), integer arithmetic end to end."""
    from .stages.scan import prefix_scan

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def key(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").cast(pa.int64()).to_numpy(zero_copy_only=False)
        nc = t.column("n_chars").cast(pa.int64()).to_numpy(zero_copy_only=False)
        # unique total-order key: (n_chars, doc_id) packed (doc_id < 2^33)
        return pa.Table.from_arrays(
            [
                pa.array(nc * (1 << 33) + ids, pa.int64()),
                pa.array(ids, pa.int64()),
                pa.array(nc, pa.int64()),
                pa.array(np.ones(len(ids), dtype=np.int64)),
            ],
            names=["ord_key", "doc_id", "n_chars", "one"],
        )

    scanned = prefix_scan(
        ds.map_batches(key, batch_format="pyarrow"),
        ["ord_key"],
        "one",
        op="sum",
        out_col="rn0",
    )
    n_total = _meta_rows_documents(sf_dir)
    k = 10
    q, r = divmod(n_total, k)

    def tile(t: pa.Table) -> pa.Table:
        rn = t.column("rn0").to_numpy(zero_copy_only=False) + 1  # 1-based
        # ntile: first r buckets hold q+1 rows, the rest hold q
        big = (q + 1) * r
        dec = np.where(
            rn <= big,
            (rn - 1) // (q + 1) + 1,
            r + (rn - big - 1) // max(q, 1) + 1,
        )
        return pa.Table.from_arrays(
            [
                t.column("doc_id"),
                t.column("n_chars"),
                pa.array(dec.astype(np.int64), pa.int64()),
            ],
            names=["doc_id", "n_chars", "decile"],
        )

    return scanned.map_batches(tile, batch_format="pyarrow").sort("doc_id")

def _meta_rows_documents(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

SQL_DOCS_LENGTH_DECILES = """
SELECT doc_id, n_chars,
       CAST(ntile(10) OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS decile
FROM documents
ORDER BY doc_id
"""

# ---------------------------------------------------------------------------
# documents: text analysis, dedup family, signature scan

def q_docs_token_stats(sf_dir: str):
    """Token counting (text-analysis primitive)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_tokens": df["text"].str.count(r"[A-Za-z0-9]+").astype(np.int64),
                "n_chars_actual": df["text"].str.len().astype(np.int64),
            }
        )

    return ds.map_batches(fn, batch_format="pandas")

SQL_DOCS_TOKEN_STATS = """
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens,
       CAST(length(text) AS BIGINT) AS n_chars_actual
FROM documents
"""

def q_docs_quality_classifier(sf_dir: str):
    """fastText-style hashed linear quality classifier (the learned
    gate of the CCNet / GPT-3 / LLaMA data recipes): seeded weight
    vector, md5-bucketed tokens, mean-pooled score, keep at score ≥ 0.
    Task-mode stage (seed-derived model + token→bucket memo cached per
    worker process; Arrow-C++ tokenization, md5 only per batch-distinct
    token); the oracle embeds the SAME seeded weights as SQL literals
    (LSH-hyperplane pattern) and replays the bucketing with DuckDB
    md5."""
    from .stages.classifier import classify_quality

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return classify_quality(ds)

def _build_sql_docs_quality_classifier() -> str:
    from .stages.classifier import DEFAULT_DIM, SCORE_DECIMALS, model_weights

    lit = "[" + ",".join(repr(float(v)) for v in model_weights()) + "]"
    return f"""
WITH w AS (
  SELECT unnest(range(0, {DEFAULT_DIM})) AS bucket, unnest({lit}) AS wt
),
tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
  FROM documents
),
feat AS (
  SELECT doc_id, ('0x' || substr(md5(t), 1, 8))::UBIGINT % {DEFAULT_DIM} AS bucket
  FROM tok
),
s AS (
  SELECT f.doc_id, avg(w.wt) AS m
  FROM feat f JOIN w ON w.bucket = f.bucket GROUP BY f.doc_id
)
SELECT d.doc_id,
       round(coalesce(s.m, 0.0), {SCORE_DECIMALS}) AS score,
       round(coalesce(s.m, 0.0), {SCORE_DECIMALS}) >= 0 AS keep
FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
"""

SQL_DOCS_QUALITY_CLASSIFIER = _build_sql_docs_quality_classifier()

def q_docs_quality(sf_dir: str):
    """Quality scoring: unrounded ratios are identical doubles on both
    engines (same int numerator / denominator)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        n = df["text"].str.len().to_numpy().astype(np.float64)
        alpha = df["text"].str.count(r"[A-Za-z]").to_numpy().astype(np.float64)
        digit = df["text"].str.count(r"[0-9]").to_numpy().astype(np.float64)
        ws = df["text"].str.count(r" ").to_numpy().astype(np.float64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "alpha_ratio": alpha / n,
                "digit_ratio": digit / n,
                "space_ratio": ws / n,
            }
        )

    return ds.map_batches(fn, batch_format="pandas")

SQL_DOCS_QUALITY = """
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '[A-Za-z]')) AS DOUBLE) / length(text) AS alpha_ratio,
       CAST(length(regexp_extract_all(text, '[0-9]')) AS DOUBLE) / length(text) AS digit_ratio,
       CAST(length(text) - length(replace(text, ' ', '')) AS DOUBLE) / length(text) AS space_ratio
FROM documents
"""

def q_docs_main_content(sf_dir: str):
    """Main-content extraction (HTML boilerplate strip, the north
    rule's first stage): each document is rendered into a deterministic
    HTML page (header/nav, sponsored aside, link-farm div, footer, main
    text in 10-token <p> blocks) and the readability-style extractor
    (stages/maincontent.py: container context + link density) must
    recover EXACTLY the original text — a golden-output oracle in the
    reference's known-answer test style: the DuckDB side states the
    ground truth (whitespace-normalized text, ceil(tokens/10) blocks)
    without parsing HTML, so any heuristic regression hash-fails."""
    from .stages.maincontent import main_content_from_docs

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    return main_content_from_docs(ds)

SQL_DOCS_MAIN_CONTENT = r"""
SELECT doc_id,
       trim(regexp_replace(text, '\s+', ' ', 'g')) AS main_text,
       CAST(ceil(length(regexp_extract_all(text, '\S+')) / 10.0) AS BIGINT) AS n_blocks
FROM documents
"""

def q_docs_pii_scrub(sf_dir: str):
    """PII scrubbing (CCNet/Dolma-style curation pass): deterministic
    injection harness (email after token 2, phone appended — pure
    functions of doc_id) through the generic regex scrubber
    (stages/pii.py). Golden-output oracle: the SQL states the known
    masked text and counts without running any regex over PII."""
    from .stages.pii import pii_scrub_from_docs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return pii_scrub_from_docs(ds)

SQL_DOCS_PII_SCRUB = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS tk FROM documents
)
SELECT doc_id,
       CASE WHEN len(tk) >= 4 THEN
         array_to_string(tk[1:2], ' ') || ' [EMAIL] '
         || array_to_string(tk[3:len(tk)], ' ') || ' [PHONE]'
       ELSE array_to_string(tk, ' ') END AS clean_text,
       CAST(CASE WHEN len(tk) >= 4 THEN 1 ELSE 0 END AS BIGINT) AS n_emails,
       CAST(CASE WHEN len(tk) >= 4 THEN 1 ELSE 0 END AS BIGINT) AS n_phones,
       CAST(0 AS BIGINT) AS n_ips
FROM toks
"""

def q_docs_layout_parse(sf_dir: str):
    """PDF-style layout parse (the north rule's second extraction
    clause): each document is rendered into a deterministic two-column
    paged box stream with running headers/footers and SHUFFLED box
    order (stages/layout.py wrap), and the generic parser — multi-page
    furniture detection, absolute-gap column clustering, reading-order
    sort — must recover exactly the original text. Golden-output
    oracle: the SQL states the known answer without touching boxes."""
    from .stages.layout import layout_from_docs

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    return layout_from_docs(ds)

# n_lines = ceil(tokens/6); n_pages = max(2, ceil(n_lines/8));
# n_dropped = header+footer per page (stages/layout.py constants)

SQL_DOCS_LAYOUT_PARSE = r"""
WITH base AS (
  SELECT doc_id,
         trim(regexp_replace(text, '\s+', ' ', 'g')) AS main_text,
         greatest(2, CAST(ceil(ceil(length(regexp_extract_all(text, '\S+')) / 6.0) / 8.0) AS BIGINT)) AS n_pages
  FROM documents
)
SELECT doc_id, main_text, n_pages, 2 * n_pages AS n_dropped FROM base
"""

def q_docs_length_by_lang(sf_dir: str):
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"lang": df["lang"], "chars": df["n_chars"], "n": 1})
        return out.groupby("lang", as_index=False).agg(
            chars=("chars", "sum"), mx=("chars", "max"), n=("n", "sum")
        )

    from ray.data.aggregate import Max, Sum

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "lang": df["lang"],
                "n_docs": df["sum(n)"].astype("int64"),
                "avg_chars": df["sum(chars)"].astype(float) / df["sum(n)"],
                "max_chars": df["max(mx)"].astype("int64"),
            }
        )

    return _preagg_native(
        ds, ["lang"], partial, [Sum("chars"), Max("mx"), Sum("n")], finalize
    )

SQL_DOCS_LENGTH_BY_LANG = """
SELECT lang, count(*) AS n_docs,
       CAST(sum(n_chars) AS DOUBLE) / count(*) AS avg_chars,
       CAST(max(n_chars) AS BIGINT) AS max_chars
FROM documents GROUP BY lang
"""

def q_docs_top_terms_per_lang(sf_dir: str):
    """Grouped top-k: the 3 most frequent terms per language —
    per-(lang, term) counts through the auto-switched two-level
    aggregation, then rank-per-group via the descending-sort
    run-boundary window (no per-group dispatch at any language or term
    cardinality)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        counts: dict[tuple, int] = {}
        for lang, text in zip(df["lang"], df["text"]):
            for tok in text.lower().split():
                t = "".join(c for c in tok if c.isalnum())
                if len(t) > 2:
                    counts[(lang, t)] = counts.get((lang, t), 0) + 1
        if not counts:
            return pd.DataFrame({"lang": [], "term": [], "n": []})
        ks = list(counts)
        return pd.DataFrame(
            {
                "lang": [k[0] for k in ks],
                "term": [k[1] for k in ks],
                "n": list(counts.values()),
            }
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "lang": df["lang"],
                "term": df["term"],
                "n_occurrences": df["sum(n)"].astype("int64"),
            }
        )

    from .query_utils import _meta_rows

    counts = _preagg_native(ds, ["lang", "term"], partial, [Sum("n")], finalize,
                            input_rows=_meta_rows(sf_dir, "documents"))

    from .query_utils import _run_starts_mask_arrow, _window_by_key_arrow

    def rank_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.string()),
                 pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["lang", "term", "n_occurrences", "term_rank"],
            )
        new = _run_starts_mask_arrow(t, ["lang"])  # string key stays Arrow
        starts = np.flatnonzero(new)
        run_of = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, t.num_rows]))
        rank = np.arange(t.num_rows) - starts[run_of] + 1
        out = t.append_column("term_rank", pa.array(rank.astype(np.int64)))
        return out.filter(pa.array(rank <= 3))

    return _window_by_key_arrow(
        counts, ["lang"], ["lang", "n_occurrences", "term"], rank_fn,
        descending=[False, True, False],
    )

SQL_DOCS_TOP_TERMS_PER_LANG = """
WITH tok AS (
  SELECT lang, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents
),
cnt AS (
  SELECT lang, term, count(*) AS n_occurrences
  FROM tok WHERE length(term) > 2 GROUP BY lang, term
)
SELECT lang, term, n_occurrences, term_rank FROM (
  SELECT lang, term, n_occurrences,
         row_number() OVER (PARTITION BY lang ORDER BY n_occurrences DESC, term) AS term_rank
  FROM cnt
) WHERE term_rank <= 3
"""

def q_docs_exact_dedup(sf_dir: str):
    """Exact dedup clusters over document text (D1/rdfind analog):
    md5 content hash → groupby(hash) → (canonical id, size)."""
    import hashlib

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "content_hash": [
                    hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]
                ],
                "doc_id": df["doc_id"],
            }
        )

    from ray.data.aggregate import Min, Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = add_hash(df)
        return out.groupby("content_hash", as_index=False).agg(
            doc_min=("doc_id", "min"), n=("doc_id", "count")
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "content_hash": df["content_hash"],
                "canonical_doc_id": df["min(doc_min)"].astype("int64"),
                "cluster_size": df["sum(n)"].astype("int64"),
            }
        )

    from .query_utils import _meta_rows

    return _preagg_native(ds, ["content_hash"], partial, [Min("doc_min"), Sum("n")],
                          finalize, input_rows=_meta_rows(sf_dir, "documents"))

SQL_DOCS_EXACT_DEDUP = """
SELECT md5(text) AS content_hash,
       CAST(min(doc_id) AS BIGINT) AS canonical_doc_id,
       count(*) AS cluster_size
FROM documents GROUP BY md5(text)
"""

def q_docs_fingerprint(sf_dir: str):
    """Document fingerprinting: md5 over the whitespace-normalized,
    lowercased text (explicit [\\t\\n\\f\\r ] class = RE2 \\s, so both
    engines normalize identically)."""
    import hashlib
    import re

    ws = re.compile(r"[\t\n\f\r ]+")
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        fps = [
            hashlib.md5(ws.sub(" ", t).strip().lower().encode("utf-8")).hexdigest()
            for t in df["text"]
        ]
        return pd.DataFrame({"doc_id": df["doc_id"], "fingerprint": fps})

    return ds.map_batches(fn, batch_format="pandas")

SQL_DOCS_FINGERPRINT = """
SELECT doc_id, md5(lower(trim(regexp_replace(text, '[\t\n\f\r ]+', ' ', 'g')))) AS fingerprint
FROM documents
"""

def q_docs_signature_scan(sf_dir: str):
    """Multi-pattern signature scan over real table text (T7/T8
    ripgrep/ClamAV analog, SQL-checkable): per-doc hit counts for a
    fixed pattern set via one compiled automaton per actor."""
    patterns = ["data", "join", "merge", "window"]
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    class Scanner:
        def __init__(self):
            import re

            self.rx = [re.compile(p) for p in patterns]

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            out = {"doc_id": df["doc_id"]}
            total = np.zeros(len(df), dtype=np.int64)
            for p, rx in zip(patterns, self.rx):
                c = df["text"].str.count(rx).astype(np.int64)
                out[f"n_{p}"] = c
                total += c.to_numpy()
            out["n_total"] = total
            return pd.DataFrame(out)

    return actor_map(ds, Scanner, batch_format="pandas")

SQL_DOCS_SIGNATURE_SCAN = """
SELECT doc_id,
       CAST(length(regexp_extract_all(text, 'data')) AS BIGINT) AS n_data,
       CAST(length(regexp_extract_all(text, 'join')) AS BIGINT) AS n_join,
       CAST(length(regexp_extract_all(text, 'merge')) AS BIGINT) AS n_merge,
       CAST(length(regexp_extract_all(text, 'window')) AS BIGINT) AS n_window,
       CAST(length(regexp_extract_all(text, 'data')) + length(regexp_extract_all(text, 'join'))
          + length(regexp_extract_all(text, 'merge')) + length(regexp_extract_all(text, 'window')) AS BIGINT) AS n_total
FROM documents
"""

def q_docs_bpe_tokens(sf_dir: str):
    """BPE-ish token counting (GPT-2-style pre-tokenizer regex,
    functions/text.BPE_RE) — the subword-budget estimator a training
    pipeline sizes batches with; oracle recomputes the identical RE2
    pattern in DuckDB."""
    from .functions.text import bpe_token_count

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_bpe_tokens": np.fromiter(
                    (bpe_token_count(t) for t in df["text"]),
                    dtype=np.int64, count=len(df),
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pandas")

SQL_DOCS_BPE_TOKENS = r"""
SELECT doc_id,
  len(list_filter(
    regexp_extract_all(text, '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+'),
    x -> NOT regexp_matches(x, '^\s+$'))) AS n_bpe_tokens
FROM documents
"""

# (assigned below q_docs_langid — the shared langid SQL fragments are
# defined there)

def q_docs_langid(sf_dir: str):
    """Language ID heuristic, oracle-checked: the DuckDB oracle
    recomputes the stopword-profile scores exactly (same tokenizer
    regex, integer-hit / token-count division is IEEE-identical, same
    alphabetical tie-break and >0.02 threshold), so the value-hash pins
    the full decision rule, not just determinism."""
    from .functions.text import detect_language

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "lang_actual": df["lang"],
                "lang_pred": [detect_language(t) for t in df["text"]],
            }
        )

    return ds.map_batches(fn, batch_format="pandas")

def _sql_langid_scores(text_expr: str = "text") -> str:
    """Stopword-profile score columns (s_de..s_it) + token count n,
    recomputing functions.text.detect_language in SQL: tokens =
    lowered [A-Za-z0-9]+ runs, score = profile-hit fraction."""
    from .functions.text import LANG_PROFILES

    cols = [
        "list_transform(regexp_extract_all("
        + text_expr
        + ", '[A-Za-z0-9]+'), t -> lower(t)) AS _tk"
    ]
    score_cols = []
    for lang in sorted(LANG_PROFILES):
        words = ",".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang]))
        score_cols.append(
            f"CASE WHEN len(_tk)=0 THEN 0.0 ELSE "
            f"CAST(len(list_filter(_tk, x -> x IN ({words}))) AS DOUBLE)"
            f"/len(_tk) END AS s_{lang}"
        )
    return ",\n    ".join(cols), ",\n    ".join(score_cols)

def _sql_langid_case() -> str:
    """CASE expression choosing the language exactly as the Python
    loop does: alphabetically-first among the maxima, 'und' below the
    0.02 score threshold or on empty token lists."""
    from .functions.text import LANG_PROFILES

    langs = sorted(LANG_PROFILES)
    g = "greatest(" + ",".join(f"s_{l}" for l in langs) + ")"
    case = [f"CASE WHEN len(_tk) = 0 THEN 'und'", f"WHEN {g} <= 0.02 THEN 'und'"]
    for l in langs[:-1]:
        case.append(f"WHEN s_{l} = {g} THEN '{l}'")
    case.append(f"ELSE '{langs[-1]}' END")
    return "\n       ".join(case)

def _build_sql_docs_langid() -> str:
    tk, scores = _sql_langid_scores("text")
    return f"""
WITH tk AS (
  SELECT doc_id, lang AS lang_actual, {tk}
  FROM documents
),
sc AS (
  SELECT doc_id, lang_actual, _tk,
    {scores}
  FROM tk
)
SELECT doc_id, lang_actual,
       {_sql_langid_case()} AS lang_pred
FROM sc
"""

SQL_DOCS_LANGID = _build_sql_docs_langid()

# Shared CTE prefix: per-doc SimHash recomputed in pure SQL — token
# hash = first 8 bytes of sha256('simhash:'+tok) little-endian (the
# stable_u64 contract), bit b of the fingerprint = sign of the ±1 sum
# over token occurrences of bit b.

_SQL_SIMHASH_CTE = """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
th AS (
  SELECT doc_id, CAST(('0x' ||
      substr(sha256('simhash:' || tok), 15, 2) || substr(sha256('simhash:' || tok), 13, 2) ||
      substr(sha256('simhash:' || tok), 11, 2) || substr(sha256('simhash:' || tok), 9, 2) ||
      substr(sha256('simhash:' || tok), 7, 2) || substr(sha256('simhash:' || tok), 5, 2) ||
      substr(sha256('simhash:' || tok), 3, 2) || substr(sha256('simhash:' || tok), 1, 2)
    ) AS UBIGINT) AS h
  FROM toks
),
bitsum AS (
  SELECT doc_id, b.b AS bit,
         sum(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS acc
  FROM th, (SELECT unnest(generate_series(0, 63)) AS b) b
  GROUP BY doc_id, b.b
),
sh AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN acc > 0 THEN (CAST(1 AS UBIGINT) << bit)
                       ELSE CAST(0 AS UBIGINT) END) AS UBIGINT) AS h
  FROM bitsum GROUP BY doc_id
)
"""

SQL_DOCS_SIMHASH_NEAR_DUP = _SQL_SIMHASH_CTE + """
SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
       CAST(bit_count(xor(a.h, b.h)) AS BIGINT) AS hamming
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.h, b.h)) <= 3
"""

# Exact-Jaccard brute force over distinct char-5-shingle lists — the
# oracle for the MinHash+LSH path (planted near-dup pairs sit at
# J ≥ 0.92, >10σ above both the banding and estimate-prefilter
# thresholds, so LSH recall is exactly 1 on this corpus family).

SQL_DOCS_MINHASH_NEAR_DUP = """
WITH norm AS (
  SELECT doc_id, lower(trim(regexp_replace(text, '[\t\n\f\r ]+', ' ', 'g'))) AS s
  FROM documents
),
shl AS (
  SELECT doc_id, list(DISTINCT substr(s, i, 5)) AS shingles
  FROM norm, lateral (SELECT unnest(generate_series(1, greatest(length(s) - 4, 1))) AS i)
  GROUP BY doc_id
),
pairs AS (
  SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
         len(list_intersect(a.shingles, b.shingles)) AS i,
         len(a.shingles) AS na, len(b.shingles) AS nb
  FROM shl a JOIN shl b ON a.doc_id < b.doc_id
)
SELECT doc_id_a, doc_id_b, CAST(i AS DOUBLE) / (na + nb - i) AS jaccard
FROM pairs WHERE CAST(i AS DOUBLE) / (na + nb - i) >= 0.8
"""

def _read_docs_coalesced(sf_dir: str):
    """documents is a small dimension-sized table at every sf tier;
    Ray's default split would shred it into 64 sub-100-row blocks and
    the LSH band sort would pay per-block overhead 64x. Blocks sized
    ~1k rows; at real corpus scale the default splitting applies."""
    return read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=8,
    )

def q_docs_minhash_near_dup(sf_dir: str):
    """MinHash+LSH near-dup candidate pairs with verified Jaccard
    (rows-only): shingle → signature (per batch, vectorized) → band
    explode → groupby(band) candidates → exact-Jaccard verify."""
    from .query_utils import _meta_rows
    from .stages.text_dedup import minhash_near_dup_pairs

    return minhash_near_dup_pairs(
        _read_docs_coalesced(sf_dir), threshold=0.8,
        input_rows=_meta_rows(sf_dir, "documents"),
    )

def q_docs_ngram_dedup(sf_dir: str):
    """Word-3-gram Jaccard dedup clusters, oracle-checked: the DuckDB
    oracle recomputes exact-Jaccard pairs over distinct 3-gram lists
    and assembles components with a recursive transitive-closure CTE.
    The query projects (canonical_doc_id, cluster_size) — the member
    list stays available from the stage and is equality-tested between
    both assembly paths in tests/test_ml_ops.py."""
    from .stages.text_dedup import ngram_dedup_clusters

    clusters = ngram_dedup_clusters(_read_docs_coalesced(sf_dir), threshold=0.8)
    return clusters.select_columns(["canonical_doc_id", "cluster_size"])

SQL_DOCS_NGRAM_DEDUP = """
WITH RECURSIVE toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks FROM documents
),
grams AS (
  SELECT doc_id, list(DISTINCT toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]) AS gs
  FROM toks, lateral (SELECT unnest(generate_series(1, greatest(len(toks) - 2, 0))) AS i)
  GROUP BY doc_id
),
pairs AS (
  SELECT a.doc_id AS u, b.doc_id AS v
  FROM grams a JOIN grams b ON a.doc_id < b.doc_id
  WHERE CAST(len(list_intersect(a.gs, b.gs)) AS DOUBLE)
        / (len(a.gs) + len(b.gs) - len(list_intersect(a.gs, b.gs))) >= 0.8
),
edges AS (
  SELECT u, v FROM pairs UNION SELECT v, u FROM pairs
),
reach(a, b) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.a, e.v FROM reach r JOIN edges e ON r.b = e.u WHERE r.a != e.v
),
labels AS (
  SELECT a AS node, least(a, min(b)) AS label FROM reach GROUP BY a
)
SELECT label AS canonical_doc_id, count(*) AS cluster_size
FROM labels GROUP BY label
"""

def q_docs_simhash_near_dup(sf_dir: str):
    """SimHash hamming≤3 near-dup pairs via 4×16-bit pigeonhole
    banding (rows-only; equality vs brute force pytest-verified)."""
    from .stages.text_dedup import simhash_near_dup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return simhash_near_dup_pairs(ds, max_hamming=3)

def q_docs_decontaminate(sf_dir: str):
    """Benchmark decontamination (GPT-3-style n-gram overlap rule):
    docs with doc_id % 37 == 0 play the benchmark/probe set; every
    OTHER doc is flagged with the count of its DISTINCT word 3-grams
    that appear anywhere in the probe set. Probe grams are built on
    the driver and broadcast once via ray.put (the 100 TB shape —
    benchmarks are MBs, the corpus is TBs); the distributed join path
    for huge probe sets is equality-tested in pytest
    (stages/decontaminate.py)."""
    from .stages.decontaminate import decontaminate, probe_gram_set

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def split(t: pa.Table, probe: bool) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        m = ids % 37 == 0
        return t.filter(pa.array(m if probe else ~m))

    probe_texts = gather(
        ds.map_batches(lambda t: split(t, True), batch_format="pyarrow")
    ).column("text").to_pylist()
    corpus = ds.map_batches(lambda t: split(t, False), batch_format="pyarrow")
    return decontaminate(corpus, probe_gram_set(probe_texts, n=3), n=3)

SQL_DOCS_DECONTAMINATE = """
WITH toks AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '[A-Za-z0-9]+'),
                        t -> lower(t)) AS tk
  FROM documents
),
idx AS (
  SELECT doc_id, tk, unnest(range(1, len(tk) - 1)) AS i FROM toks
),
grams AS (
  SELECT DISTINCT doc_id, array_to_string(tk[i:i+2], ' ') AS g FROM idx
),
probe AS (SELECT DISTINCT g FROM grams WHERE doc_id % 37 = 0),
matched AS (
  SELECT c.doc_id, count(*) AS n_matched
  FROM grams c JOIN probe USING (g)
  WHERE c.doc_id % 37 <> 0
  GROUP BY c.doc_id
)
SELECT t.doc_id,
       coalesce(m.n_matched, 0) AS n_matched,
       coalesce(m.n_matched, 0) > 0 AS contaminated
FROM toks t LEFT JOIN matched m USING (doc_id)
WHERE t.doc_id % 37 <> 0
"""

def q_docs_perplexity(sf_dir: str):
    """Perplexity-based quality filtering (CCNet-style, stages/lm.py):
    an add-one bigram LM is trained on the deterministic
    ``doc_id % 11 == 0`` reference slice (ONE bounded-key streaming
    pass — the model is broadcast-sized by construction), broadcast
    once via ray.put, and every doc is scored with vectorized
    ``-log2 P(w_i|w_{i-1})`` means; docs above the ppl threshold are
    flagged dropped. The DuckDB oracle recomputes the identical model
    and formula (same tokenizer regex, same add-one smoothing, same
    round-to-4 contract), so the value hash pins training AND scoring."""
    from .stages.lm import bigram_lm, perplexity_score

    ds = _read_docs_coalesced(sf_dir)
    lm = bigram_lm(ds, sample_mod=11)
    return perplexity_score(ds, lm, ppl_threshold=36.0)

SQL_DOCS_PERPLEXITY = """
WITH toks AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '[A-Za-z0-9]+'),
                        t -> lower(t)) AS tk
  FROM documents
),
idx AS (SELECT doc_id, tk, unnest(range(1, len(tk))) AS i FROM toks),
big AS (SELECT doc_id, tk[i] AS w1, tk[i+1] AS w2 FROM idx),
ref_big AS (SELECT w1, w2, count(*) AS c12 FROM big
            WHERE doc_id % 11 = 0 GROUP BY w1, w2),
ref_ctx AS (SELECT w1, sum(c12) AS c1 FROM ref_big GROUP BY w1),
refv AS (SELECT greatest(count(DISTINCT u.t), 1) AS v
         FROM (SELECT unnest(tk) AS t FROM toks WHERE doc_id % 11 = 0) u),
nll AS (
  SELECT b.doc_id, count(*) AS n_big,
         sum(-log2((coalesce(rb.c12, 0) + 1.0)
                   / (coalesce(rc.c1, 0) + (SELECT v FROM refv)))) AS s
  FROM big b
  LEFT JOIN ref_big rb USING (w1, w2)
  LEFT JOIN ref_ctx rc USING (w1)
  GROUP BY b.doc_id
)
SELECT t.doc_id,
       coalesce(n.n_big, 0) AS n_bigrams,
       CASE WHEN n.n_big IS NULL THEN NULL
            ELSE round(pow(2, n.s / n.n_big), 4) END AS ppl,
       CASE WHEN n.n_big IS NULL THEN TRUE
            ELSE round(pow(2, n.s / n.n_big), 4) <= 36.0 END AS kept
FROM toks t LEFT JOIN nll n USING (doc_id)
"""

def q_docs_dup_spans(sf_dir: str):
    """Duplicated n-gram span masking (Lee et al. 2022 substring-level
    dedup analog, stages/dupspans.py): every word 5-gram occurring in
    ≥ 2 distinct docs marks its occurrences; per doc, the count of
    duplicated gram occurrences and the union size of their
    ``[i, i+5)`` masking windows. Dup grams come from ONE sort +
    run-scan over per-doc-distinct gram hashes; scoring broadcasts the
    dup set (auto-switches to the sort-based semi-join path above the
    broadcast bound — the two paths are equality-tested in pytest).
    All-integer output, so the oracle hash is exact by construction."""
    from .stages.dupspans import dup_span_mask

    return dup_span_mask(_read_docs_coalesced(sf_dir), n=5, min_docs=2)

SQL_DOCS_DUP_SPANS = """
WITH toks AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '[A-Za-z0-9]+'),
                        t -> lower(t)) AS tk
  FROM documents
),
pos AS (SELECT doc_id, tk, unnest(range(1, len(tk) - 3)) AS i FROM toks),
grams AS (SELECT doc_id, i, array_to_string(tk[i:i+4], ' ') AS g FROM pos),
dup AS (SELECT g FROM grams GROUP BY g HAVING count(DISTINCT doc_id) >= 2),
hits AS (SELECT gr.doc_id, gr.i FROM grams gr JOIN dup USING (g)),
cov AS (SELECT DISTINCT doc_id, unnest(range(i, i + 5)) AS p FROM hits),
agg AS (SELECT doc_id, count(*) AS n_masked FROM cov GROUP BY doc_id),
nd AS (SELECT doc_id, count(*) AS n_dup_grams FROM hits GROUP BY doc_id)
SELECT t.doc_id, len(t.tk) AS n_tokens,
       coalesce(nd.n_dup_grams, 0) AS n_dup_grams,
       coalesce(agg.n_masked, 0) AS n_masked
FROM toks t LEFT JOIN nd USING (doc_id) LEFT JOIN agg USING (doc_id)
"""

def q_docs_source_overlap(sf_dir: str):
    """Cross-source contamination audit: distinct word-3-gram overlap
    counts per source pair (stages/overlap.py — one sort, per-block
    bitmask incidence, bounded-key merge). Gram identity is the
    splitmix window fold engine-side; the oracle counts gram STRINGS,
    so the hash match also pins collision-freedom on this corpus."""
    from .stages.overlap import source_overlap

    ds = _read(sf_dir, "documents", ["source", "text"])
    return source_overlap(ds, n=3)

SQL_DOCS_SOURCE_OVERLAP = """
WITH toks AS (
  SELECT source,
         list_transform(regexp_extract_all(text, '[A-Za-z0-9]+'),
                        t -> lower(t)) AS tk
  FROM documents
),
pos AS (SELECT source, tk, unnest(range(1, len(tk) - 1)) AS i FROM toks),
grams AS (SELECT DISTINCT source, array_to_string(tk[i:i+2], ' ') AS g FROM pos)
SELECT a.source AS source_a, b.source AS source_b,
       count(*) AS n_shared
FROM grams a JOIN grams b ON a.g = b.g AND a.source < b.source
GROUP BY 1, 2
"""

def q_docs_incremental_dedup(sf_dir: str):
    """Incremental dedup against a persisted fingerprint index
    (stages/incremental.py): docs with doc_id % 3 != 0 play the
    already-ingested corpus whose fingerprints are written ONCE as a
    hash-bucketed parquet index (a ``guard.build_once`` layout keyed on
    the documents file's CONTENT); the doc_id % 7 == 0 docs play an
    incoming RE-CRAWL shard — overlapping the corpus, as real re-crawls
    do — probed against ONLY the index cells their fingerprints hash
    to. Probe I/O is proportional to the shard, never the corpus — the
    delta-processing shape 100 TB re-crawls need. Emits (doc_id,
    fingerprint, in_corpus) per shard doc: already-ingested pages flag
    True, genuinely new ones False."""
    from .stages.incremental import probe_index, write_dedup_index
    from .state.guard import build_once

    ds = _read_docs_coalesced(sf_dir)

    def split(t: pa.Table, corpus: bool) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        m = (ids % 3 != 0) if corpus else (ids % 7 == 0)
        return t.filter(pa.array(m))

    nb = 16
    index_dir = build_once(
        "dedup_index", [f"{sf_dir}/documents.parquet"],
        lambda tmp: write_dedup_index(
            ds.map_batches(lambda t: split(t, True), batch_format="pyarrow"),
            tmp, num_buckets=nb,
        ),
        extra=(nb,),
    )
    shard = ds.map_batches(lambda t: split(t, False), batch_format="pyarrow")
    return probe_index(shard, index_dir, num_buckets=nb)

SQL_DOCS_INCREMENTAL_DEDUP = r"""
WITH fp AS (
  SELECT doc_id,
         md5(lower(trim(regexp_replace(text, '[\t\n\f\r ]+', ' ', 'g')))) AS fingerprint
  FROM documents
)
SELECT s.doc_id, s.fingerprint,
       EXISTS (SELECT 1 FROM fp c
               WHERE c.doc_id % 3 <> 0
                 AND c.fingerprint = s.fingerprint) AS in_corpus
FROM fp s
WHERE s.doc_id % 7 = 0
"""

def q_docs_crawl_frontier(sf_dir: str):
    """Crawl-frontier prep (the web pipeline's step zero): URL
    canonicalization → first-wins URL dedup (one sort) → per-host
    budget cap (k-per-group sample). Exercised through the
    deterministic alias-injection harness (stages/urls.py
    wrap_documents_urls — golden-output doctrine): the canonical URL
    is a closed form of doc_id, so the oracle states it without
    parsing anything."""
    from .stages.urls import crawl_frontier_prep, wrap_documents_urls

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        wrap_documents_urls, batch_format="pyarrow"
    )
    return crawl_frontier_prep(ds, per_host_cap=5)

def q_docs_inverted_index(sf_dir: str):
    """Distributed inverted-index build (stages/inverted.py): per-term
    df / total_tf / best-hit doc / bounded postings head from ONE
    (term, doc_id) sort + run-scan merge. The search-engine inverse of
    the reference's ripgrep-style forward scans
    (src/core/analyzer.py:66-124)."""
    from .stages.inverted import inverted_index

    return inverted_index(_read(sf_dir, "documents", ["doc_id", "text"]))

SQL_DOCS_INVERTED_INDEX = """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents
),
per_doc AS (
  SELECT term, doc_id, count(*) AS tf FROM tok GROUP BY term, doc_id
)
SELECT term,
       count(*) AS df,
       CAST(sum(tf) AS BIGINT) AS total_tf,
       (list(doc_id ORDER BY tf DESC, doc_id))[1] AS top_doc,
       array_to_string((list(doc_id ORDER BY doc_id))[1:8], ',') AS postings_head
FROM per_doc GROUP BY term
"""

def q_docs_bm25_search(sf_dir: str):
    """BM25 ranked keyword retrieval (stages/bm25.py) for the fixed
    3-term query ('scan', 'merge', 'window'): two row-local streaming
    passes over a ~20-byte/doc projection, a blocks-bounded stats fold
    (bytes ∝ query terms, never corpus), partial top-k + one merge —
    zero corpus sorts, zero joins. The lexical leg of the RAG stack
    beside the inverted index and the ANN family."""
    from .stages.bm25 import bm25_search

    return bm25_search(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        ["scan", "merge", "window"],
        topk=20,
    )

SQL_DOCS_BM25_SEARCH = """
WITH tok AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
  FROM documents
),
feat AS (
  SELECT doc_id,
         len(ts) AS dl,
         len(list_filter(ts, x -> x = 'scan'))   AS tf0,
         len(list_filter(ts, x -> x = 'merge'))  AS tf1,
         len(list_filter(ts, x -> x = 'window')) AS tf2
  FROM tok
),
st AS (
  SELECT count(*) AS n,
         CAST(sum(dl) AS DOUBLE) / CAST(count(*) AS DOUBLE) AS avgdl,
         CAST(count(*) FILTER (tf0 > 0) AS DOUBLE) AS df0,
         CAST(count(*) FILTER (tf1 > 0) AS DOUBLE) AS df1,
         CAST(count(*) FILTER (tf2 > 0) AS DOUBLE) AS df2
  FROM feat
),
sc AS (
  SELECT f.doc_id,
         round(
             ln(1.0 + (st.n - st.df0 + 0.5) / (st.df0 + 0.5))
               * (f.tf0 * (1.2 + 1.0))
               / (f.tf0 + 1.2 * (1.0 - 0.75 + 0.75 * (f.dl / st.avgdl)))
           + ln(1.0 + (st.n - st.df1 + 0.5) / (st.df1 + 0.5))
               * (f.tf1 * (1.2 + 1.0))
               / (f.tf1 + 1.2 * (1.0 - 0.75 + 0.75 * (f.dl / st.avgdl)))
           + ln(1.0 + (st.n - st.df2 + 0.5) / (st.df2 + 0.5))
               * (f.tf2 * (1.2 + 1.0))
               / (f.tf2 + 1.2 * (1.0 - 0.75 + 0.75 * (f.dl / st.avgdl)))
         , 4) AS bm25
  FROM feat f, st
)
SELECT doc_id, bm25 FROM sc
WHERE bm25 > 0
ORDER BY bm25 DESC, doc_id
LIMIT 20
"""

def q_docs_hybrid_search(sf_dir: str):
    """Hybrid retrieval — reciprocal-rank fusion (RRF, Cormack '09;
    the standard lexical+semantic fusion in RAG stacks) of the BM25
    top-20 (stages/bm25.py, lexical leg) and the brute-force cosine
    top-10 (embeddings leg, vec_id ≡ doc_id in the synthetic corpus):
    rrf(d) = Σ_legs 1/(60 + rank_leg(d)). Both legs are the engine's
    existing distributed operators; the fusion itself touches only the
    two bounded top-k lists (≤30 rows by construction — the
    knn-ivf-style bounded take, never a corpus materialization)."""
    from .stages.bm25 import bm25_search

    bm = gather(bm25_search(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        ["scan", "merge", "window"],
        topk=20,
    )).to_pylist()
    ann = gather(q_embeddings_knn(sf_dir)).to_pylist()

    contrib: dict[int, float] = {}
    # fixed leg order (bm25 then ann) so float accumulation matches
    # the SQL twin's COALESCE(bm,0) + COALESCE(ann,0)
    bm_c = {int(r["doc_id"]): 1.0 / (60.0 + (i + 1)) for i, r in enumerate(bm)}
    ann_c = {int(r["vec_id"]): 1.0 / (60.0 + (i + 1)) for i, r in enumerate(ann)}
    for d in set(bm_c) | set(ann_c):
        contrib[d] = bm_c.get(d, 0.0) + ann_c.get(d, 0.0)
    out = pd.DataFrame(
        {"doc_id": list(contrib), "rrf": [round(v, 6) for v in contrib.values()]}
    ).sort_values(["rrf", "doc_id"], ascending=[False, True]).reset_index(drop=True)
    return out

SQL_DOCS_HYBRID_SEARCH = (
    """
WITH bm AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY bm25 DESC, doc_id) AS r
  FROM ("""
    + SQL_DOCS_BM25_SEARCH
    + """) t
),
ann AS (
  SELECT vec_id AS doc_id,
         row_number() OVER (ORDER BY cosine_sim DESC, vec_id) AS r
  FROM (
    WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0)
    SELECT e.vec_id,
           round(list_dot_product(e.embedding, (SELECT qe FROM q))
                 / sqrt(list_dot_product(e.embedding, e.embedding))
                 / sqrt(list_dot_product((SELECT qe FROM q), (SELECT qe FROM q))), 4) AS cosine_sim
    FROM embeddings e WHERE e.vec_id != 0
    ORDER BY cosine_sim DESC, e.vec_id LIMIT 10
  ) t
)
SELECT COALESCE(bm.doc_id, ann.doc_id) AS doc_id,
       round(COALESCE(1.0 / (60.0 + bm.r), 0.0)
             + COALESCE(1.0 / (60.0 + ann.r), 0.0), 6) AS rrf
FROM bm FULL OUTER JOIN ann ON bm.doc_id = ann.doc_id
ORDER BY rrf DESC, doc_id
"""
)

def q_docs_cms_top_terms(sf_dir: str):
    """Count-min-sketch frequency estimation, SELF-VERIFYING under the
    HLL doctrine (events_approx_users): the exact top-10 terms by total
    occurrences come from the inverted-index run-scan (one sort); the
    CMS (stages/sketches.countmin_sketch — sparse mergeable partials,
    bounded slot space) answers point queries for those terms, and the
    emitted flag asserts exact ≤ estimate ≤ exact + ⌈e/width·N⌉. The
    oracle states the exact counts and TRUE, so the hash matches iff
    the exact side agrees AND every estimate is in-bound."""
    import math

    from .stages.inverted import inverted_index
    from .stages.sketches import countmin_query, countmin_sketch

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).materialize()
    width, depth = 2048, 4
    sketch, n_total = countmin_sketch(docs, width=width, depth=depth)
    idx = (
        gather(inverted_index(docs).select_columns(["term", "total_tf"]))
        .to_pandas()
        .sort_values(["total_tf", "term"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )
    est = countmin_query(sketch, idx["term"].tolist(), width, depth)
    bound = math.ceil(math.e / width * n_total)
    ok = (est >= idx["total_tf"].to_numpy()) & (
        est <= idx["total_tf"].to_numpy() + bound
    )
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "term": idx["term"],
                "n_occurrences": idx["total_tf"].astype("int64"),
                "cms_within_bound": ok.astype(bool),
            }
        )
    )

SQL_DOCS_CMS_TOP_TERMS = """
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents
)
SELECT term, count(*) AS n_occurrences, TRUE AS cms_within_bound
FROM tok GROUP BY term
ORDER BY n_occurrences DESC, term LIMIT 10
"""

def q_docs_gopher_rules(sf_dir: str):
    """Gopher-style rule gate (Rae et al. '21): per-doc word count /
    mean word length / distinct ratio / stop-word fraction + combined
    keep verdict — entirely row-local (stages/gopher.py), the rule
    filter a web pipeline runs before any model-based scoring."""
    from .stages.gopher import gopher_rules

    return gopher_rules(_read(sf_dir, "documents", ["doc_id", "text"]))

SQL_DOCS_GOPHER_RULES = """
WITH tok AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS w FROM documents
), feat AS (
  SELECT doc_id,
         CAST(len(w) AS BIGINT) AS n_words,
         CASE WHEN len(w)=0 THEN 0.0 ELSE
           CAST(list_aggregate(list_transform(w, x -> length(x)), 'sum') AS DOUBLE)
             / len(w) END AS mean_word_len,
         CASE WHEN len(w)=0 THEN 0.0 ELSE
           CAST(len(list_distinct(w)) AS DOUBLE) / len(w) END AS distinct_ratio,
         CASE WHEN len(w)=0 THEN 0.0 ELSE
           CAST(len(list_filter(w, x -> x IN
             ('a','the','and','of','to','in','with','for'))) AS DOUBLE)
             / len(w) END AS stop_frac
  FROM tok
)
SELECT *,
  (n_words >= 30 AND n_words <= 10000 AND mean_word_len >= 3.0
   AND mean_word_len <= 5.0 AND distinct_ratio >= 0.3
   AND stop_frac <= 0.10) AS keep
FROM feat
"""

def q_docs_dsir(sf_dir: str):
    """DSIR-style data selection (Xie et al. '23): per-doc importance
    score = Σ log-ratio of target/raw hashed-bigram frequencies
    (stages/dsir.py — dim-bounded broadcast-reduce estimation, one
    gather + bincount fold per batch). The oracle recomputes the
    bucketing (md5 mod dim), both slice distributions AND the scores
    in SQL."""
    from .stages.dsir import dsir_score, dsir_weights

    # materialize ONCE: dsir_weights is a full driver-blocking pass and
    # dsir_score re-reads the same rows — without the pin the parquet
    # read + upstream plan execute twice (ADVICE r3; the pagerank
    # edges.materialize() pattern)
    ds = _read(sf_dir, "documents", ["doc_id", "text"]).materialize()
    return dsir_score(ds, dsir_weights(ds))

SQL_DOCS_DSIR = """
WITH tok AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(text, '[A-Za-z0-9]+'),
                        t -> lower(t)) AS tk
  FROM documents
),
big AS (
  SELECT doc_id, tk[i] || ' ' || tk[i+1] AS bg
  FROM tok, lateral (SELECT unnest(range(1, len(tk))) AS i)
),
bb AS (
  SELECT doc_id,
         CAST(('0x' || substr(md5(bg), 1, 8)) AS UBIGINT) % 4096 AS b
  FROM big
),
tgt AS (SELECT b, count(*) AS c FROM bb WHERE doc_id % 7 = 0 GROUP BY b),
raw AS (SELECT b, count(*) AS c FROM bb WHERE doc_id % 3 = 1 GROUP BY b),
tot AS (
  SELECT (SELECT coalesce(sum(c), 0) FROM tgt) AS t_total,
         (SELECT coalesce(sum(c), 0) FROM raw) AS r_total
),
w AS (
  SELECT d.b,
         ln((coalesce(t.c, 0) + 1.0) / (tot.t_total + 4096))
         - ln((coalesce(r.c, 0) + 1.0) / (tot.r_total + 4096)) AS wt
  FROM (SELECT DISTINCT b FROM bb) d
  LEFT JOIN tgt t USING (b) LEFT JOIN raw r USING (b), tot
),
scores AS (
  SELECT bb.doc_id, count(*) AS n_bigrams, round(sum(w.wt), 6) AS score
  FROM bb JOIN w USING (b) GROUP BY bb.doc_id
)
SELECT d.doc_id,
       coalesce(s.n_bigrams, 0) AS n_bigrams,
       coalesce(s.score, 0.0) AS score,
       coalesce(s.score, 0.0) >= 0.0 AS kept
FROM documents d LEFT JOIN scores s USING (doc_id)
"""

def q_docs_train_val_split(sf_dir: str):
    """Leakage-free train/val split (stages/split.py): the split coin
    is keyed on the CONTENT fingerprint, so exact duplicates never
    straddle the split (the eval-leakage pitfall). Row-local, no
    shuffle; the oracle recomputes fingerprint + coin in SQL."""
    from .stages.split import leakage_free_split

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return leakage_free_split(ds, val_frac=0.2).select_columns(
        ["doc_id", "fingerprint", "split"]
    )

SQL_DOCS_TRAIN_VAL_SPLIT = r"""
WITH fp AS (
  SELECT doc_id,
         md5(lower(trim(regexp_replace(text, '[\t\n\f\r ]+', ' ', 'g')))) AS fingerprint
  FROM documents
)
SELECT doc_id, fingerprint,
       CASE WHEN CAST(('0x' || substr(md5(fingerprint), 1, 8)) AS UINT32)
                 < 0.2 * 4294967296.0
            THEN 'val' ELSE 'train' END AS split
FROM fp
"""

def _build_sql_docs_crawl_frontier(cap: int = 5) -> str:
    from .stages.urls import N_HOSTS, PAGES_PER_HOST

    return f"""
WITH base AS (
  SELECT doc_id, doc_id % {N_HOSTS} AS h,
         (doc_id // {N_HOSTS}) % {PAGES_PER_HOST} AS g
  FROM documents
), canon AS (
  SELECT doc_id,
         'http://site' || h || '.example.com/p/' || g ||
         '?id=' || (g % 3) || '&v=2' AS canon_url,
         'site' || h || '.example.com' AS host
  FROM base
), first_wins AS (
  SELECT canon_url, host, min(doc_id) AS doc_id FROM canon GROUP BY 1, 2
), ranked AS (
  SELECT doc_id, canon_url, host,
         row_number() OVER (
           PARTITION BY host ORDER BY
             CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                  AS UBIGINT),
             doc_id
         ) AS rk
  FROM first_wins
)
SELECT doc_id, canon_url, host FROM ranked WHERE rk <= {cap}
"""

SQL_DOCS_CRAWL_FRONTIER = _build_sql_docs_crawl_frontier()

def q_docs_chunk_windows(sf_dir: str):
    """RAG-style retrieval chunking (stages/packing.chunk_documents):
    overlapping token windows (window=64, stride=48) per document —
    a row-local flat explode, no shuffle, no state; the indexing-side
    sibling of pack_sequences (that one concatenates docs for TRAINING,
    this one slices them for RETRIEVAL). The oracle replays the window
    walk with a strided generate_series over the same token array."""
    from .stages.packing import chunk_documents

    return chunk_documents(
        _read(sf_dir, "documents", ["doc_id", "text"]), window=64, stride=48
    )

SQL_DOCS_CHUNK_WINDOWS = """
WITH tok AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS tk
  FROM documents
), st AS (
  SELECT doc_id, tk, len(tk) AS n,
         unnest(generate_series(0, greatest(len(tk) - 1, 0), 48)) AS s
  FROM tok
)
SELECT doc_id,
       s // 48 AS chunk_id,
       s AS start_tok,
       CAST(greatest(least(64, n - s), 0) AS BIGINT) AS n_tok,
       array_to_string(tk[s + 1 : least(s + 64, n)], ' ') AS chunk_text
FROM st
WHERE s = 0 OR s - 48 + 64 < n
"""

def q_docs_shuffle_export(sf_dir: str):
    """Deterministic global-shuffle export layout
    (stages/shuffle_layout.py): every doc's (shard, band, pos)
    coordinates are a pure function of md5(doc_id) — the
    cluster-size/resume-invariant replacement for random_shuffle() at
    training-export time. The oracle recomputes the hash slice and the
    per-(shard, band) dense rank with a row_number() window."""
    from .stages.shuffle_layout import shuffle_export_layout

    docs = _read(sf_dir, "documents", ["doc_id"])
    return shuffle_export_layout(docs, "doc_id", n_shards=16, n_bands=16)

SQL_DOCS_SHUFFLE_EXPORT = """
WITH h AS (
  SELECT doc_id,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
              AS UBIGINT) AS hv
  FROM documents
)
SELECT doc_id,
       CAST(hv % 16 AS BIGINT) AS shard,
       CAST(hv // 268435456 AS BIGINT) AS band,
       CAST(row_number() OVER (
              PARTITION BY hv % 16, hv // 268435456 ORDER BY hv, doc_id
            ) - 1 AS BIGINT) AS pos
FROM h
"""

def q_docs_naive_bayes(sf_dir: str):
    """Multinomial Naive Bayes language classifier TRAINED on the
    corpus (stages/nb.py) — the train-on-your-own-data loop beside the
    fixed-weight classifier and stopword langid. Sufficient statistics
    are one vocabulary-bounded count table (combiner aggregate, no
    shuffle), the model broadcasts once, scoring is stateless tasks.
    The oracle replays training AND scoring in SQL (same tokenizer,
    same add-one smoothing, same round-4/alphabetical-first argmax
    contract as docs_langid / docs_perplexity)."""
    from .stages.nb import nb_predict, train_nb

    def docs():
        return read_parquet_clean(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text", "lang"],
            override_num_blocks=8,
        )

    model = train_nb(docs(), train_mod=3)
    return nb_predict(docs(), model)

def _build_sql_docs_naive_bayes(train_mod: int = 3) -> str:
    from .stages.nb import LANGS

    langs = list(LANGS)
    vals = ", ".join(f"('{l}')" for l in langs)
    pivot = ",\n         ".join(
        f"max(CASE WHEN lang = '{l}' THEN s END) AS s_{l}" for l in langs
    )
    g = "greatest(" + ", ".join(f"s_{l}" for l in langs) + ")"
    case = [f"CASE WHEN s_{langs[0]} = {g} THEN '{langs[0]}'"]
    for l in langs[1:-1]:
        case.append(f"WHEN s_{l} = {g} THEN '{l}'")
    case.append(f"ELSE '{langs[-1]}' END")
    case_sql = "\n       ".join(case)
    return f"""
WITH toks AS (
  SELECT doc_id, lang,
         list_transform(regexp_extract_all(text, '[A-Za-z0-9]+'),
                        t -> lower(t)) AS tk
  FROM documents
),
tok AS (SELECT doc_id, lang, unnest(tk) AS term FROM toks),
train_ct AS (
  SELECT lang, term, count(*) AS c
  FROM tok WHERE doc_id % {train_mod} = 0 GROUP BY 1, 2
),
nl AS (SELECT lang, CAST(sum(c) AS DOUBLE) AS n FROM train_ct GROUP BY 1),
vv AS (SELECT CAST(greatest(count(DISTINCT term), 1) AS DOUBLE) AS v
       FROM train_ct),
prior AS (
  SELECT lang, ln(CAST(count(*) AS DOUBLE)
                  / (SELECT count(*) FROM toks
                     WHERE doc_id % {train_mod} = 0)) AS lp
  FROM toks WHERE doc_id % {train_mod} = 0 GROUP BY lang
),
contrib AS (
  SELECT t.doc_id, l.lang,
         sum(ln((coalesce(tc.c, 0) + 1.0) / (nl.n + vv.v))) AS s
  FROM tok t
  CROSS JOIN (VALUES {vals}) l(lang)
  LEFT JOIN train_ct tc ON tc.lang = l.lang AND tc.term = t.term
  JOIN nl ON nl.lang = l.lang
  CROSS JOIN vv
  GROUP BY 1, 2
),
scores AS (
  SELECT d.doc_id, d.lang AS lang_actual, p.lang,
         round(p.lp + coalesce(c.s, 0), 4) AS s
  FROM documents d CROSS JOIN prior p
  LEFT JOIN contrib c ON c.doc_id = d.doc_id AND c.lang = p.lang
),
wide AS (
  SELECT doc_id, lang_actual,
         {pivot}
  FROM scores GROUP BY 1, 2
)
SELECT doc_id, lang_actual,
       {case_sql} AS lang_pred,
       {", ".join(f"s_{l}" for l in langs)}
FROM wide
"""

SQL_DOCS_NAIVE_BAYES = _build_sql_docs_naive_bayes()

def q_docs_cdc_dedup(sf_dir: str):
    """Content-defined-chunking dedup accounting (stages/cdc.py) —
    block-level dedup of the document stream (the sub-file sibling of
    exact whole-doc dedup; FastCDC/LBFS family). Gear boundaries come
    from 64 shifted vector adds (the rolling hash's exact windowed
    form), chunk identity is sha256, canonical owners are first-wins
    under ONE sort + run-scan — two linear passes + one shuffle.
    No SQL oracle (a rolling content hash isn't SQL-expressible);
    tests/test_cdc.py pins boundaries, hashes, owners and per-doc
    stats against the per-byte serial reference implementation."""
    from .stages.cdc import cdc_dedup_stats

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return cdc_dedup_stats(ds).sort("doc_id")

def q_docs_negative_sampling_table(sf_dir: str):
    """word2vec-style negative-sampling table (Mikolov '13): vocabulary
    weights ∝ count^0.75 with a running cumulative column, the binary-
    searchable CDF a sampler draws negatives from. Counting reuses the
    PMI stage's one-pass combiner + one-sort merge; the cumulative
    column is the two-phase carry fold (per-block integer sums, driver
    exclusive-scan over the #blocks-bounded summary, carry-addressed
    second pass). Two determinism locks: count^0.75 is computed as
    sqrt(n)·sqrt(√n) — each sqrt correctly rounded, so both engines
    produce the identical double — and weights round to integer
    MICRO-units before the cumsum, so the running sum is exact integer
    arithmetic with no float-association drift at any scale."""
    from .stages.pmi import corpus_counts

    min_count = 5
    counts = corpus_counts(_read(sf_dir, "documents", ["text"]))

    def vocab(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.equal(t.column("kind"), "u"),
                pc.greater_equal(t.column("n"), min_count),
            )
        )
        n = t.column("n").to_numpy().astype(np.float64)
        w = np.round(np.sqrt(n) * np.sqrt(np.sqrt(n)) * 1e6).astype(np.int64)
        return pa.table(
            {
                "term": t.column("w1"),
                "n": t.column("n"),
                "weight_micro": pa.array(w, pa.int64()),
            }
        )

    s = (
        counts.map_batches(vocab, batch_format="pyarrow")
        .sort("term")
        .materialize()
    )

    def summ(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "first_term": pa.array([], pa.string()),
                    "total": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "first_term": pa.array(
                    [str(t.column("term")[0].as_py())], pa.string()
                ),
                "total": pa.array(
                    [int(t.column("weight_micro").to_numpy().sum())],
                    pa.int64(),
                ),
            }
        )

    rows = gather(s.map_batches(
        summ, batch_format="pyarrow", batch_size=None
    )).to_pylist()  # bounded: one row per block
    rows.sort(key=lambda r: r["first_term"])
    carries = {}
    acc = 0
    for r in rows:
        carries[r["first_term"]] = acc
        acc += r["total"]
    cref = ray.put(carries)

    def apply(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("cum_micro", pa.array([], pa.int64()))
        carry = ray.get(cref)[str(t.column("term")[0].as_py())]
        w = t.column("weight_micro").to_numpy()
        return t.append_column(
            "cum_micro", pa.array(np.cumsum(w) + carry, pa.int64())
        )

    return s.map_batches(apply, batch_format="pyarrow", batch_size=None)

SQL_DOCS_NEGATIVE_SAMPLING_TABLE = """
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
  FROM documents
),
c AS (
  SELECT w AS term, count(*) AS n FROM tok GROUP BY 1
  HAVING count(*) >= 5
),
wt AS (
  SELECT term, n,
         CAST(round(sqrt(n) * sqrt(sqrt(n)) * 1000000) AS BIGINT)
           AS weight_micro
  FROM c
)
SELECT term, CAST(n AS BIGINT) AS n, weight_micro,
       CAST(sum(weight_micro) OVER (ORDER BY term
                                    ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS cum_micro
FROM wt ORDER BY term
"""

def q_docs_langid_calibration(sf_dir: str):
    """Model-calibration / reliability table for the langid classifier
    (the model-MONITORING stage a production pipeline runs beside the
    model itself): predictions bucket by confidence (best profile
    score, 20 bins of 0.05) and each bin reports its empirical
    accuracy against the labeled ``lang`` column — the reliability
    diagram's data. Scoring is row-local; the rollup is the
    bounded-cardinality (≤20 bins) combiner path, no shuffle. Both
    engines compute the identical score doubles (the pinned
    docs_langid equivalence), so bin assignment can never diverge."""
    from .functions.text import LANG_PROFILES, tokenize

    ds = _read(sf_dir, "documents", ["text", "lang"])
    langs = sorted(LANG_PROFILES)

    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        bins, ns, cs = [], [], []
        for t, actual in zip(df["text"], df["lang"]):
            toks = [x.lower() for x in tokenize(t)]
            best_lang, best = "und", 0.0
            if toks:
                for lang in langs:
                    prof = LANG_PROFILES[lang]
                    s = sum(1 for x in toks if x in prof) / len(toks)
                    if s > best:
                        best_lang, best = lang, s
            pred = best_lang if best > 0.02 else "und"
            bins.append(min(19, int(best * 20.0)))
            ns.append(1)
            cs.append(1 if pred == actual else 0)
        out = pd.DataFrame({"bin": bins, "n": ns, "c": cs})
        return out.groupby("bin", as_index=False).sum()

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        n = df["sum(n)"].astype("int64")
        c = df["sum(c)"].astype("int64")
        return pd.DataFrame(
            {
                "bin": df["bin"].astype("int64"),
                "conf_lo": df["bin"].astype("int64") * 0.05,
                "n_docs": n,
                "n_correct": c,
                "accuracy": c / n,
            }
        )

    return _preagg_native(
        ds, ["bin"], partial, [Sum("n"), Sum("c")], finalize
    ).sort("bin")

def _build_sql_langid_calibration() -> str:
    from .functions.text import LANG_PROFILES

    tk, scores = _sql_langid_scores("text")
    g = "greatest(" + ",".join(f"s_{l}" for l in sorted(LANG_PROFILES)) + ")"
    return f"""
WITH tk AS (
  SELECT lang AS lang_actual, {tk}
  FROM documents
),
sc AS (
  SELECT lang_actual, _tk,
    {scores}
  FROM tk
),
p AS (
  SELECT lang_actual,
         {_sql_langid_case()} AS lang_pred,
         CASE WHEN len(_tk) = 0 THEN 0.0 ELSE {g} END AS conf
  FROM sc
)
SELECT least(19, CAST(floor(conf * 20) AS BIGINT)) AS bin,
       least(19, CAST(floor(conf * 20) AS BIGINT)) * 0.05 AS conf_lo,
       count(*) AS n_docs,
       CAST(sum(CASE WHEN lang_pred = lang_actual THEN 1 ELSE 0 END)
            AS BIGINT) AS n_correct,
       CAST(sum(CASE WHEN lang_pred = lang_actual THEN 1 ELSE 0 END)
            AS DOUBLE) / count(*) AS accuracy
FROM p GROUP BY 1 ORDER BY 1
"""

SQL_DOCS_LANGID_CALIBRATION = _build_sql_langid_calibration()

def q_docs_winnow_fingerprints(sf_dir: str):
    """Winnowing document fingerprints (Schleimer et al. '03 — the
    MOSS plagiarism-detection sketch): hash every 8-char gram, slide a
    4-gram window, keep each window's MINIMUM hash; the distinct kept
    hashes are the document's fingerprint set, guaranteeing any shared
    substring ≥ 11 chars shares a fingerprint. Row-local and fully
    vectorized: grams via numpy byte-stride views, md5 only per
    batch-DISTINCT gram (zipf amortization, the classifier/dsir memo
    pattern), window minima via sliding_window_view — no shuffle at
    all until the output. The oracle recomputes grams, hashes and
    window minima with SQL window functions."""
    import hashlib

    K, W = 8, 4
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def winnow(t: pa.Table) -> pa.Table:
        from numpy.lib.stride_tricks import sliding_window_view

        out_doc, out_h = [], []
        ids = t.column("doc_id").to_numpy()
        texts = t.column("text").to_pylist()
        # batch-distinct gram -> hash memo
        memo: dict[bytes, int] = {}
        for did, txt in zip(ids, texts):
            b = (txt or "").encode("utf-8")
            ng = len(b) - K + 1
            if ng < W:
                continue
            view = sliding_window_view(
                np.frombuffer(b, dtype=np.uint8), K
            )
            grams = view.tobytes()
            h = np.empty(ng, dtype=np.uint64)
            for i in range(ng):
                g = grams[i * K : (i + 1) * K]
                v = memo.get(g)
                if v is None:
                    v = int(hashlib.md5(g).hexdigest()[:8], 16)
                    memo[g] = v
                h[i] = v
            wmin = sliding_window_view(h, W).min(axis=1)
            sel = np.unique(wmin)
            out_doc.append(np.full(len(sel), did, np.int64))
            out_h.append(sel)
        if not out_doc:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "fp": pa.array([], pa.uint64()),
                }
            )
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_doc), pa.int64()),
                "fp": pa.array(np.concatenate(out_h), pa.uint64()),
            }
        )

    return ds.map_batches(winnow, batch_format="pyarrow")

SQL_DOCS_WINNOW_FINGERPRINTS = """
WITH g AS (
  SELECT doc_id, i AS pos,
         CAST(('0x' || substr(md5(substr(text, i, 8)), 1, 8)) AS UBIGINT)
           AS h,
         length(text) - 8 + 1 AS ng
  FROM documents,
       lateral (SELECT unnest(range(1, length(text) - 8 + 2)) AS i)
  WHERE length(text) >= 11
),
w AS (
  SELECT doc_id, pos, ng,
         min(h) OVER (PARTITION BY doc_id ORDER BY pos
                      ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS wmin
  FROM g
)
SELECT DISTINCT doc_id, wmin AS fp
FROM w WHERE pos <= ng - 3
ORDER BY doc_id, fp
"""

def q_docs_pmi_collocations(sf_dir: str):
    """Collocation / phrase mining via pointwise mutual information
    (stages/pmi.py — Church & Hanks '90; the word2vec phrase-merge
    signal): every adjacent token pair scored by
    ln(p(ab) / (p(a)·p(b))) over corpus unigram/bigram counts. ONE
    combiner pass (Arrow-C++ tokenize + per-batch group_by for
    unigrams, bigrams and totals in a unified count table) + ONE
    sort-by-key run-scan merge; candidate scoring broadcasts the
    merged counts below a row cap, else a fully distributed
    explode + second-sort attach (both paths equality-tested). The
    oracle recomputes tokenization, both count levels AND the PMI
    formula in SQL."""
    from .stages.pmi import collocations

    ds = _read(sf_dir, "documents", ["text"])
    return collocations(ds, min_count=5)

SQL_DOCS_PMI_COLLOCATIONS = """
WITH tok AS (
  SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS tk FROM documents
),
uni AS (SELECT unnest(tk) AS w FROM tok),
ucnt AS (SELECT w, count(*) AS n FROM uni GROUP BY 1),
utot AS (SELECT count(*) AS nu FROM uni),
big AS (
  SELECT tk[i] AS w1, tk[i+1] AS w2
  FROM tok, lateral (SELECT unnest(range(1, len(tk))) AS i)
),
bcnt AS (SELECT w1, w2, count(*) AS n_ab FROM big GROUP BY 1, 2),
btot AS (SELECT count(*) AS nb FROM big)
SELECT b.w1, b.w2, b.n_ab, a.n AS n_a, c.n AS n_b,
       ln(b.n_ab) + 2 * ln(utot.nu) - ln(btot.nb)
         - ln(a.n) - ln(c.n) AS pmi
FROM bcnt b
JOIN ucnt a ON a.w = b.w1
JOIN ucnt c ON c.w = b.w2
CROSS JOIN utot CROSS JOIN btot
WHERE b.n_ab >= 5
ORDER BY b.w1, b.w2
"""

def q_docs_dedup_keep_best(sf_dir: str):
    """Canonical-document selection: exact dedup over the NORMALIZED
    fingerprint (whitespace-collapsed lowercase md5 — docs_fingerprint
    semantics, so raw variants of one content cluster together) that
    keeps the HIGHEST-QUALITY member per cluster instead of the first
    (argmax-per-group at unbounded key cardinality: ONE sort by
    (fingerprint, quality DESC, doc_id) + run-scan firsts — the D1
    dedup upgraded with the quality family's scoring, which is how a
    production corpus dedup actually chooses survivors). The quality
    score is the exact-rational alpha_ratio, identical doubles in
    both engines."""
    import hashlib
    import re

    ws = re.compile(r"[\t\n\f\r ]+")
    from .query_utils import _run_starts_mask_arrow, _window_by_key_arrow

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        fps = [
            hashlib.md5(ws.sub(" ", x).strip().lower().encode()).hexdigest()
            for x in texts
        ]
        alpha = pc.count_substring_regex(t.column("text"), "[A-Za-z]")
        nchars = pc.utf8_length(t.column("text"))
        ratio = pc.divide(
            pc.cast(alpha, pa.float64()), pc.cast(nchars, pa.float64())
        )
        return pa.table(
            {
                "fingerprint": pa.array(fps, pa.string()),
                "doc_id": t.column("doc_id"),
                "alpha_ratio": ratio,
            }
        )

    def firsts(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "fingerprint": pa.array([], pa.string()),
                "kept_doc_id": pa.array([], pa.int64()),
                "kept_alpha_ratio": pa.array([], pa.float64()),
                "cluster_size": pa.array([], pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["fingerprint"]))
        sizes = np.diff(np.append(starts, t.num_rows))
        idx = pa.array(starts)
        return pa.table(
            {
                "fingerprint": t.column("fingerprint").take(idx),
                "kept_doc_id": t.column("doc_id").take(idx),
                "kept_alpha_ratio": t.column("alpha_ratio").take(idx),
                "cluster_size": pa.array(sizes, pa.int64()),
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow")
    return _window_by_key_arrow(
        scored,
        ["fingerprint"],
        ["fingerprint", "alpha_ratio", "doc_id"],
        firsts,
        descending=[False, True, False],
    )

SQL_DOCS_DEDUP_KEEP_BEST = """
WITH s AS (
  SELECT doc_id,
         md5(lower(trim(regexp_replace(text, '[\t\n\f\r ]+', ' ', 'g'))))
           AS fingerprint,
         CAST(length(regexp_extract_all(text, '[A-Za-z]')) AS DOUBLE)
           / length(text) AS alpha_ratio
  FROM documents
)
SELECT fingerprint, doc_id AS kept_doc_id, alpha_ratio AS kept_alpha_ratio,
       CAST(count(*) OVER (PARTITION BY fingerprint) AS BIGINT)
         AS cluster_size
FROM s
QUALIFY row_number() OVER (PARTITION BY fingerprint
                           ORDER BY alpha_ratio DESC, doc_id) = 1
ORDER BY fingerprint
"""
