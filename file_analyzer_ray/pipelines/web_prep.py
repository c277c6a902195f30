"""Web-corpus preparation: the end-to-end composition of the round-3
extraction + curation operators — the pipeline a crawl-to-training-set
job actually runs, stage by stage:

  raw page (HTML)           wrap_documents_html (harness) / user HTML
    → main-content strip    stages/maincontent.MainContentStage
    → language ID           functions/text.detect_language (row-local)
    → learned quality gate  stages/classifier.QualityClassifier
    → exact dedup           fingerprint sort + keep-first
                            (the training_prep machinery)
    → RAG chunking          stages/packing.chunk_documents

Every stage is a streaming ``map_batches`` except the ONE sort the
exact dedup needs — the same shuffle budget as pipelines/prep.py. The
composition is deterministic end to end: rerunning yields byte-equal
output (pinned in tests/test_pipeline.py::test_web_prep_*).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from ..query_utils import _run_starts_mask_arrow, _window_by_key_arrow, actor_map


def web_prep_pipeline(
    docs: "ray.data.Dataset",
    keep_langs: "tuple[str, ...] | None" = None,
    chunk_window: int = 64,
    chunk_stride: int = 48,
) -> "ray.data.Dataset":
    """``(doc_id, source, text)`` documents (stand-ins for crawled
    pages) → curated chunk table ``(doc_id, chunk_id, start_tok,
    n_tok, chunk_text)``. ``keep_langs=None`` keeps every language."""
    import hashlib

    from ..functions.text import detect_language, normalize_ws
    from ..stages.classifier import QualityClassifier
    from ..stages.maincontent import MainContentStage, wrap_documents_html
    from ..stages.packing import chunk_documents

    # 1. render + strip: recover main text from page chrome. The strip
    # is STATELESS (module-compiled regexes) so it runs as plain tasks
    # fused with the wrap — no actor pool, no spin-up, and no risk of
    # pool minimums pinning a small session's cores (the keep_pool
    # deadlock shape). The quality gate below stays a pool: its model
    # build + token memo are real per-actor state.
    def wrap_and_strip(t: pa.Table) -> pa.Table:
        return MainContentStage()(wrap_documents_html(t))

    main = docs.map_batches(wrap_and_strip, batch_format="pyarrow")

    # 2. language gate (row-local)
    def lang_gate(t: pa.Table) -> pa.Table:
        texts = t.column("main_text").to_pylist()
        langs = [detect_language(x) for x in texts]
        t = t.append_column("lang_pred", pa.array(langs, pa.string()))
        if keep_langs is None:
            return t
        keep = pa.array([l in keep_langs for l in langs])
        return t.filter(keep)

    gated = main.map_batches(lang_gate, batch_format="pyarrow")

    # 3. learned quality gate: score the MAIN text, keep score >= 0
    class Gate(QualityClassifier):
        def __call__(self, t: pa.Table) -> pa.Table:
            scored = super().__call__(
                t.select(["doc_id"]).append_column("text", t.column("main_text"))
            )
            keep = scored.column("keep").to_numpy(zero_copy_only=False)
            return t.filter(pa.array(keep))

    quality = actor_map(gated, Gate)

    # 4. exact dedup on the normalized MAIN text: one sort, keep-first
    def fp(t: pa.Table) -> pa.Table:
        f = [
            hashlib.md5(normalize_ws(x).lower().encode()).hexdigest()
            for x in t.column("main_text").to_pylist()
        ]
        return t.append_column("fingerprint", pa.array(f, pa.string()))

    def keep_first(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return t.filter(pa.array(_run_starts_mask_arrow(t, ["fingerprint"])))

    deduped = _window_by_key_arrow(
        quality.map_batches(fp, batch_format="pyarrow"),
        ["fingerprint"], ["fingerprint", "doc_id"], keep_first,
    )

    # 5. chunk for indexing
    def as_text(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column("doc_id"), t.column("main_text")],
            names=["doc_id", "text"],
        )

    return chunk_documents(
        deduped.map_batches(as_text, batch_format="pyarrow"),
        window=chunk_window, stride=chunk_stride,
    )
