"""Fused extraction stage: normalize → sniff → meta → OCR parse → carve →
pattern match, per Arrow batch.

This is the hot path of the flagship pipeline. It is a callable CLASS so
``query_utils.actor_map(ds, ExtractStage)`` runs it as an actor pool:
the multi-pattern automata (compiled alternation regexes over str and
bytes — the in-process ClamAV/ripgrep/binwalk analog, reference
src/core/analyzer.py:478-723) are built ONCE per actor in ``__init__``
and reused for every batch.

Scale/skew notes:
- batches arrive as zero-copy ``pyarrow.Table``; the per-row work
  (regex scans over KB..MB payloads) dominates, so the per-row Python
  dispatch is amortized; all scanning is C-speed ``re`` / ``bytes.find``.
- pathological large payloads are scanned in bounded overlapping
  windows (``chunk_size`` + overlap of max-signature-length−1), so actor
  heap usage is O(chunk), not O(payload); whole-payload materialization
  is avoided for the scan itself.
- output rows carry ``status`` instead of raising (error-channel
  semantics of reference src/core/analyzer.py:296-313) so one poisoned
  document never fails a block.

Semantics must equal :mod:`file_analyzer_ray.oracle` (serial golden
implementation) under span-sequence equality — enforced by
tests/test_pipeline.py.
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..corpus import parse_frames
from ..functions.hashing import content_hash as _content_hash
from ..functions.signatures import (
    EXIF_BEGIN,
    EXIF_END,
    MAGIC_SIGNATURES,
    OCR_BEGIN,
    OCR_END,
    PATTERN_SIGNATURES,
)
from ..functions.text import WS_RE

OUT_SPANS_TYPE = pa.list_(
    pa.struct(
        [
            ("kind", pa.string()),
            ("text", pa.string()),
            ("media_ref", pa.string()),
            ("offset", pa.int32()),
        ]
    )
)

EXTRACTED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", OUT_SPANS_TYPE),
        ("content_hash", pa.string()),
        ("n_spans", pa.int32()),
        ("status", pa.string()),
    ]
)

# Detect-mode objects (reference src/models/mock_adapter.py:190-218;
# typed per src/utils/json_utils.py:190-196). confidence is nullable:
# a repaired truncated emission can lose it without losing the object.
OBJECTS_TYPE = pa.list_(
    pa.struct(
        [
            ("name", pa.string()),
            ("location", pa.string()),
            ("confidence", pa.float64()),
        ]
    )
)

SCORED_SCHEMA = pa.schema(
    list(EXTRACTED_SCHEMA)
    + [
        ("mode", pa.string()),
        ("description", pa.string()),
        ("tags", pa.list_(pa.string())),
        ("objects", OBJECTS_TYPE),
        ("recommended_filename", pa.string()),
        ("model_status", pa.string()),
        ("attempts", pa.int32()),
    ]
)

_EMPTY_SCORE = {
    "mode": "",
    "description": "",
    "tags": [],
    "objects": [],
    "recommended_filename": "",
    "model_status": "skipped",
    "attempts": 0,
}


class ExtractStage:
    """Actor-pool batch extractor (pyarrow Table in → pyarrow Table out).

    With ``score=True`` the mock-VLM scoring chain (stages/scorer.py
    semantics) runs FUSED in the same pass: the span lists are already
    Python objects here, so fusing avoids a second actor pool and a
    full object-store round trip of the heavy ``spans`` column — the
    dominant inter-stage cost at 100k+ docs."""

    def __init__(self, chunk_size: int = 1 << 20, score: bool = False,
                 max_words: int = 16):
        self.score = score
        self.max_words = max_words
        # Multi-pattern text automaton: one alternation regex (prefix-free
        # pattern set ⇒ equivalent to per-pattern scans); hit order is
        # recovered as (position, pattern priority).
        self._pat_index = {p: i for i, p in enumerate(PATTERN_SIGNATURES)}
        self._pat_re = re.compile(
            "|".join(re.escape(p) for p in sorted(PATTERN_SIGNATURES, key=len, reverse=True))
        )
        self._magic_res = [
            (name, re.compile(re.escape(magic)), len(magic))
            for name, magic in MAGIC_SIGNATURES
        ]
        self._max_magic = max(len(m) for _, m in MAGIC_SIGNATURES)
        # Scoring is a pure function of the content hash (the mock model
        # is content-seeded, tags/filename derive from its output), so
        # exact duplicates — ~10% of web crawls, planted at that rate in
        # the corpus — score once per actor. Bounded: worst case ~100 B
        # per entry × 100k.
        self._score_memo: dict[str, dict] = {}
        self._chunk = max(chunk_size, 4 * self._max_magic)

    # -- scanning helpers -------------------------------------------------
    def _text_hits(self, text: str) -> list[tuple[int, int, str]]:
        hits = [
            (m.start(), self._pat_index[m.group()], m.group())
            for m in self._pat_re.finditer(text)
        ]
        hits.sort(key=lambda h: (h[0], h[1]))
        return hits

    def _magic_hits(self, body: bytes) -> list[tuple[int, int, str]]:
        """All container-magic occurrences; bounded-window scan with
        overlap so memory stays O(chunk) on pathological payloads."""
        hits: list[tuple[int, int, str]] = []
        n = len(body)
        step = self._chunk
        overlap = self._max_magic - 1
        seen: set[tuple[int, int]] = set()
        pos = 0
        while pos < n:
            window = body[pos : pos + step + overlap]
            for si, (name, rx, _mlen) in enumerate(self._magic_res):
                for m in rx.finditer(window):
                    key = (pos + m.start(), si)
                    if key not in seen:
                        seen.add(key)
                        hits.append((pos + m.start(), si, name))
            pos += step
        hits.sort(key=lambda h: (h[0], h[1]))
        return hits

    def _sniff(self, body: bytes) -> str:
        for name, magic in MAGIC_SIGNATURES:
            if body.startswith(magic):
                return name
        return "data"

    # -- per-document extraction -----------------------------------------
    def _extract_one(
        self, lo: int, hi: int, f_kind, f_text, f_ref, f_off, binary,
        out_k: list, out_t: list, out_r: list,
    ) -> tuple[int, str, "dict | None"]:
        """Extract one doc's spans [lo, hi) from the FLAT child arrays
        into the shared flat output builders (no per-span dicts on
        either side — VERDICT.md r1 flagged the dict materialization as
        the memory-bandwidth tax on the hot path). Returns (n_spans,
        content_hash, score_row|None); on exception the caller rolls
        the builders back to their pre-doc length."""
        payloads = parse_frames(binary or b"")
        pay_for: dict[int, bytes] = {}
        k = 0
        for idx in range(lo, hi):
            if f_kind[idx] in ("media", "binary"):
                if k < len(payloads):
                    pay_for[idx] = payloads[k]
                k += 1
        order = sorted(range(lo, hi), key=lambda i: (f_off[i], i))
        start = len(out_k)
        norm_pairs: list[tuple[str, str]] = []
        hash_payloads: list[bytes] = []
        for i in order:
            kind = f_kind[i]
            if kind == "text":
                text = WS_RE.sub(" ", f_text[i] or "").strip()
                if not text:
                    continue
                norm_pairs.append(("text", text))
                out_k.append("text"); out_t.append(text); out_r.append("")
                for _pos, _pi, pat in self._text_hits(text):
                    out_k.append("match"); out_t.append(pat); out_r.append("")
                continue
            ref = f_ref[i] or ""
            norm_pairs.append((kind, ""))
            body = pay_for.get(i)
            if body is None:
                out_k.append("meta"); out_t.append("SniffedType: empty"); out_r.append(ref)
                continue
            hash_payloads.append(body)
            out_k.append("meta"); out_t.append(f"SniffedType: {self._sniff(body)}"); out_r.append(ref)
            e0 = body.find(EXIF_BEGIN)
            if e0 >= 0:
                e1 = body.find(EXIF_END, e0 + len(EXIF_BEGIN))
                if e1 >= 0:
                    block = body[e0 + len(EXIF_BEGIN) : e1].decode("utf-8", "replace")
                    for line in block.split("\n"):
                        if ": " in line:
                            out_k.append("meta"); out_t.append(line); out_r.append(ref)
            o0 = body.find(OCR_BEGIN)
            if o0 >= 0:
                o1 = body.find(OCR_END, o0 + len(OCR_BEGIN))
                if o1 >= 0:
                    ocr = body[o0 + len(OCR_BEGIN) : o1].decode("utf-8", "replace")
                    out_k.append("ocr"); out_t.append(ocr); out_r.append(ref)
                    for _pos, _pi, pat in self._text_hits(ocr):
                        out_k.append("match"); out_t.append(pat); out_r.append(ref)
            for pos, _si, name in self._magic_hits(body):
                out_k.append("embedded"); out_t.append(f"{name}@{pos}"); out_r.append(ref)
        n = len(out_k) - start
        chash = _content_hash(norm_pairs, hash_payloads)
        score_row = None
        if self.score:
            score_row = self._score_memo.get(chash)
            if score_row is None:
                from ..functions.scoring import score_doc
                from ..functions.text import TOKEN_RE

                words: list[str] = []
                for j in range(start, start + n):
                    if out_k[j] in ("text", "ocr"):
                        words.extend(TOKEN_RE.findall(out_t[j]))
                        if len(words) >= self.max_words:
                            break
                score_row = score_doc(chash or "0" * 12, words[: self.max_words])
                if len(self._score_memo) < 100_000:
                    self._score_memo[chash] = score_row
        return n, chash, score_row

    # -- batch entry ------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        """Zero-copy-in, flat-out batch kernel: the nested spans column
        is read via its list offsets + flattened struct children (one
        primitive to_pylist per child — no per-span dict objects), and
        the output spans column is assembled directly from flat builder
        lists via StructArray/ListArray.from_arrays (no from_pylist of
        nested rows)."""
        n_rows = batch.num_rows
        doc_ids = batch.column("doc_id").to_pylist()
        spans_col = batch.column("spans")
        spans_arr = (
            spans_col.combine_chunks()
            if isinstance(spans_col, pa.ChunkedArray)
            else spans_col
        )
        loff = spans_arr.offsets.to_pylist()
        sv = spans_arr.values
        f_kind = sv.field("kind").to_pylist()
        f_text = sv.field("text").to_pylist()
        f_ref = sv.field("media_ref").to_pylist()
        f_off = sv.field("offset").to_pylist()
        valid = (
            spans_arr.is_valid().to_pylist() if spans_arr.null_count > 0 else None
        )
        bins = batch.column("binary").to_pylist()

        out_k: list[str] = []
        out_t: list[str] = []
        out_r: list[str] = []
        list_offsets: list[int] = [0]
        hashes: list[str] = []
        n_spans: list[int] = []
        statuses: list[str] = []
        scores: list[dict] = []
        for i in range(n_rows):
            lo, hi = loff[i], loff[i + 1]
            if valid is not None and not valid[i]:
                lo = hi
            start = len(out_k)
            try:
                n, chash, score_row = self._extract_one(
                    lo, hi, f_kind, f_text, f_ref, f_off, bins[i],
                    out_k, out_t, out_r,
                )
                hashes.append(chash)
                n_spans.append(n)
                statuses.append("success")
                if self.score:
                    scores.append(score_row)
            except Exception as exc:  # error-channel row, never a failed block
                del out_k[start:], out_t[start:], out_r[start:]
                hashes.append("")
                n_spans.append(0)
                statuses.append(f"error: {type(exc).__name__}: {exc}"[:200])
                if self.score:
                    scores.append(_EMPTY_SCORE)
            list_offsets.append(len(out_k))

        offsets_col: list[int] = []
        for i in range(n_rows):
            offsets_col.extend(range(list_offsets[i + 1] - list_offsets[i]))
        struct = pa.StructArray.from_arrays(
            [
                pa.array(out_k, pa.string()),
                pa.array(out_t, pa.string()),
                pa.array(out_r, pa.string()),
                pa.array(offsets_col, pa.int32()),
            ],
            fields=list(OUT_SPANS_TYPE.value_type),
        )
        spans_out = pa.ListArray.from_arrays(pa.array(list_offsets, pa.int32()), struct)
        cols = [
            pa.array(doc_ids, pa.string()),
            spans_out,
            pa.array(hashes, pa.string()),
            pa.array(n_spans, pa.int32()),
            pa.array(statuses, pa.string()),
        ]
        if not self.score:
            return pa.Table.from_arrays(cols, schema=EXTRACTED_SCHEMA)
        cols += [
            pa.array([s["mode"] for s in scores], pa.string()),
            pa.array([s["description"] for s in scores], pa.string()),
            pa.array([s["tags"] for s in scores], pa.list_(pa.string())),
            pa.array([s["objects"] for s in scores], OBJECTS_TYPE),
            pa.array([s["recommended_filename"] for s in scores], pa.string()),
            pa.array([s["model_status"] for s in scores], pa.string()),
            pa.array([s["attempts"] for s in scores], pa.int32()),
        ]
        return pa.Table.from_arrays(cols, schema=SCORED_SCHEMA)
