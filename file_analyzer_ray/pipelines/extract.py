"""Flagship extraction pipeline — the Ray-Data-native re-expression of
``fa analyze all <dir>`` (reference src/cli/analyze/main.py:124-231,
traced in SURVEY.md §3.2).

Shape (one streaming plan, no disk IR between stages, no full
materialization):

    read_parquet(docs)
      -> query_utils.actor_map(ExtractStage, score=True)
            # ONE fused actor pool: normalize+sniff+meta+OCR+carve+
            # match + deterministic mock-VLM scoring with the JSON
            # parse/repair chain; automata compiled in __init__,
            # bounded-window scan for pathological payloads
      -> write_partitioned(...)  # atomic per-partition parquet +
            # lineage manifests (keyed resume), OR state/shards.py
            # run_sharded for the shuffle-free shard-fenced path

The seven sequential per-file analyses + per-call subprocess reloads of
the reference collapse into one actor-pool batch stage; dedup is a
separate keyed query over the narrow (doc_id, content_hash) projection
(see stages/dedup.py).
"""

from __future__ import annotations

from ..corpus import CORPUS_VERSION, generate_parquet
from ..query_utils import actor_map, read_parquet_clean
from ..stages.extract import ExtractStage
from ..state.guard import build_once


def corpus_path(n_docs: int) -> str:
    """Deterministic on-disk corpus, generated once per
    (``CORPUS_VERSION``, ``n_docs``, file size) by ``guard.build_once``."""
    per_file = 2000  # docs per parquet file: the sharded sink's resume unit
    return build_once(
        "corpus", [],
        lambda tmp: generate_parquet(n_docs, tmp, docs_per_file=per_file),
        extra=(CORPUS_VERSION, n_docs, per_file),
    )


def extract_pipeline(
    source: "str | ray.data.Dataset",
    *,
    score: bool = True,
    batch_size: int = 256,
) -> "ray.data.Dataset":
    """Lazy Dataset of extracted (+ scored) documents."""
    ds = read_parquet_clean(source) if isinstance(source, str) else source
    # Extraction + scoring run FUSED in one actor pool: the scorer
    # consumes the span lists the extractor just built, so a second
    # actor pool would only add an object-store round trip of the heavy
    # spans column (measured ~2x wall at 100k docs). ScorerStage remains
    # available as a standalone stage for pipelines that score
    # pre-extracted tables.
    return actor_map(
        ds, ExtractStage, ctor_kwargs={"score": score}, batch_size=batch_size
    )


def run_flagship(
    n_docs: int,
    out_dir: str | None = None,
    *,
    score: bool = True,
    num_partitions: int = 32,
) -> dict:
    """Generate-or-reuse the deterministic corpus, run the flagship plan,
    write resumable partitioned output. Returns run metrics."""
    from ..state.lineage import write_partitioned

    src = corpus_path(n_docs)
    ds = extract_pipeline(src, score=score)
    if out_dir is None:
        rows = ds.count()
        return {"n_docs": n_docs, "rows": rows, "out_dir": None}
    manifests = write_partitioned(
        ds, out_dir, num_partitions=num_partitions, run_meta={"n_docs": n_docs}
    )
    return {
        "n_docs": n_docs,
        "rows": sum(m["row_count"] for m in manifests),
        "span_count": sum(m["span_count"] for m in manifests),
        "partitions": len(manifests),
        "out_dir": out_dir,
    }
