"""Multimodal (image/audio/video-shaped) columns as opaque binary +
typed metadata, processed by actor-pool ``map_batches`` stages.

Mirrors the reference's vision preprocessing semantics (resize +
letterbox onto a square canvas, src/core/vision.py:211-304) and its
frame/batch handling, re-expressed Ray-Data-first:

- media payloads are exploded to ONE ROW PER SPAN first (skew.py
  pattern) so a many-media document never serializes one task;
- decode / resize / feature-extract run in a callable CLASS passed to
  ``query_utils.actor_map(ds, DecodeStage, batch_size=B)`` — setup
  (codec tables, plane buffers) happens once per actor in ``__init__``;
- batch_size stays SMALL (default 64) because rows carry KB..MB binary
  payloads — batch × pool size must fit the worker heap (SURVEY §4).

The image/audio codec libraries are not in this container, so the
actual byte→pixels decode is a clearly-marked deterministic fake
(content-hash-seeded PCG64 pixels, same pattern as the reference's
mock adapter src/models/mock_adapter.py:31-305 but seeded, per
src/cli/benchmark/samples.py:131-200). The real path is gated behind
an import-try: with PIL installed, ``DecodeStage`` uses it unchanged —
the Ray-side plumbing (schema, explode, actor signature, letterbox
math, output layout) is real and tested either way.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..corpus import parse_frames
from ..functions.hashing import stable_u64
from ..query_utils import actor_map

try:  # real decode path (not available in this sandbox)
    from PIL import Image  # type: ignore

    _HAVE_PIL = True
except ImportError:
    _HAVE_PIL = False

MEDIA_ROW_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("media_type", pa.string()),
        ("payload", pa.large_binary()),
    ]
)

FEATURE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("media_type", pa.string()),
        ("height", pa.int32()),
        ("width", pa.int32()),
        ("boxed_size", pa.int32()),
        ("n_frames_sampled", pa.int32()),
        ("features", pa.list_(pa.float32())),
        ("status", pa.string()),
    ]
)


def explode_media(batch: pa.Table) -> pa.Table:
    """docs(doc_id, spans, binary) → one row per media/binary span.
    Payload bytes are row-local after this point; Ray's dynamic block
    splitting plus the small decode batch_size bound worker memory.
    Reads the spans column via its list offsets + flattened struct
    children (no per-span dicts) and assembles output columns flat."""
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
    f_ref = sv.field("media_ref").to_pylist()
    valid = (
        spans_arr.is_valid().to_pylist() if spans_arr.null_count > 0 else None
    )
    bins = batch.column("binary").to_pylist()
    out_doc, out_ref, out_type, out_pay = [], [], [], []
    for i in range(batch.num_rows):
        lo, hi = loff[i], loff[i + 1]
        if valid is not None and not valid[i]:
            lo = hi
        payloads = parse_frames(bins[i] or b"")
        k = 0
        for j in range(lo, hi):
            kind = f_kind[j]
            if kind in ("media", "binary"):
                out_doc.append(doc_ids[i])
                out_ref.append(f_ref[j])
                out_type.append(kind)
                out_pay.append(payloads[k] if k < len(payloads) else b"")
                k += 1
    return pa.Table.from_arrays(
        [
            pa.array(out_doc, pa.string()),
            pa.array(out_ref, pa.string()),
            pa.array(out_type, pa.string()),
            pa.array(out_pay, pa.large_binary()),
        ],
        schema=MEDIA_ROW_SCHEMA,
    )


def resize_letterbox(img: np.ndarray, target: int) -> np.ndarray:
    """Aspect-preserving nearest-neighbor resize pasted onto a black
    target×target canvas — the reference's letterbox semantics
    (src/core/vision.py:271-293) in pure numpy."""
    h, w = img.shape[:2]
    scale = min(target / h, target / w)
    nh, nw = max(1, int(round(h * scale))), max(1, int(round(w * scale)))
    ri = np.minimum((np.arange(nh) / scale).astype(np.int64), h - 1)
    ci = np.minimum((np.arange(nw) / scale).astype(np.int64), w - 1)
    resized = img[ri][:, ci]
    canvas = np.zeros((target, target, img.shape[2]), dtype=img.dtype)
    y0, x0 = (target - nh) // 2, (target - nw) // 2
    canvas[y0 : y0 + nh, x0 : x0 + nw] = resized
    return canvas


def frame_sample(payload: bytes, frame_bytes: int = 4096, stride: int = 4) -> list[bytes]:
    """Video-analog frame sampling: treat the payload as consecutive
    fixed-size frames and keep every ``stride``-th one (bounded output
    regardless of payload size)."""
    n = max(1, (len(payload) + frame_bytes - 1) // frame_bytes)
    return [
        payload[i * frame_bytes : (i + 1) * frame_bytes] for i in range(0, n, stride)
    ]


# Analysis-mode → preprocess resolution policy (reference
# src/core/vision.py:62-72,242-257: describe 512², document 768²,
# detect 384²).
MODE_TARGETS = {"describe": 512, "document": 768, "detect": 384}


class DecodeStage:
    """Actor-pool decode → letterbox-resize → feature-extract.

    One instance per actor: ``__init__`` holds the (stub) codec state;
    ``__call__`` processes an Arrow batch of exploded media rows and
    emits fixed-width feature rows. Per-row try/except keeps poisoned
    payloads in the error channel instead of failing the block.

    Resolution policy: ``mode`` (constructor) pins the reference's
    per-mode square target; a per-row ``mode`` column in the batch
    overrides it row-wise; otherwise the raw ``target`` applies (tests
    default to 64 to keep canvases small)."""

    N_BINS = 16

    def __init__(self, target: int = 64, frame_bytes: int = 4096, stride: int = 4,
                 mode: str | None = None):
        self.target = MODE_TARGETS[mode] if mode else target
        self.frame_bytes = frame_bytes
        self.stride = stride
        self.bin_edges = np.linspace(0, 256, self.N_BINS + 1)

    def _target_for(self, mode: "str | None") -> int:
        return MODE_TARGETS.get(mode or "", self.target)

    # -- decode (STUB in this sandbox; real path behind import-try) ---
    def _decode(self, payload: bytes) -> np.ndarray:
        if _HAVE_PIL:  # pragma: no cover - codec libs absent in sandbox
            import io

            return np.asarray(Image.open(io.BytesIO(payload)).convert("RGB"))
        # Self-describing synthetic codec: a payload carrying the
        # harness dims header (stages/harness.py DIM_HEADER — 3 sentinel
        # PCM samples + <u16 h><u16 w>) decodes to exactly those
        # dimensions, the way a real codec reads dims from the
        # container; that makes decode dims a CLOSED FORM of the planted
        # header, so the media_features driver oracle can state them.
        if payload[:6] == b"\x01\x00\x02\x00\x03\x00" and len(payload) >= 10:
            import struct as _struct

            h, w = _struct.unpack_from("<HH", payload, 6)
            rng = np.random.default_rng(stable_u64(payload, b"decode:"))
            return rng.integers(
                0, 256, size=(max(1, h), max(1, w), 3), dtype=np.uint8
            )
        # Constant-color variant (harness CONST_HEADER): side×side square
        # filled with the header's RGB — SSIM / pixelmatch of two such
        # images are closed forms of the planted colors, which is what
        # lets the pairwise-compare driver oracle state its answer.
        if payload[:6] == b"\x04\x00\x05\x00\x06\x00" and len(payload) >= 11:
            import struct as _struct

            side, r, g, b = _struct.unpack_from("<HBBB", payload, 6)
            side = max(1, side)
            return np.broadcast_to(
                np.array([r, g, b], dtype=np.uint8), (side, side, 3)
            ).copy()
        # Headerless fallback: dims and pixels are pure functions of the
        # payload bytes (content-hash-seeded PCG64).
        h64 = stable_u64(payload, b"decode:")
        h = 32 + (h64 & 0x3F)          # 32..95
        w = 32 + ((h64 >> 6) & 0x7F)   # 32..159
        rng = np.random.default_rng(h64)
        return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)

    def _features(self, img: np.ndarray) -> np.ndarray:
        gray = img.astype(np.float32).mean(axis=2)
        hist, _ = np.histogram(gray, bins=self.bin_edges)
        hist = hist.astype(np.float32) / max(1, gray.size)
        return np.concatenate(
            [hist, [gray.mean() / 255.0, gray.std() / 255.0]]
        ).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        modes = (
            batch.column("mode").to_pylist()
            if "mode" in batch.schema.names
            else [None] * batch.num_rows
        )
        rows = []
        for doc_id, ref, mtype, payload, mode in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("media_ref").to_pylist(),
            batch.column("media_type").to_pylist(),
            batch.column("payload").to_pylist(),
            modes,
        ):
            try:
                target = self._target_for(mode)
                frames = frame_sample(payload or b"", self.frame_bytes, self.stride)
                img = self._decode(frames[0] if frames else b"")
                boxed = resize_letterbox(img, target)
                feats = self._features(boxed)
                rows.append(
                    {
                        "doc_id": doc_id,
                        "media_ref": ref,
                        "media_type": mtype,
                        "height": int(img.shape[0]),
                        "width": int(img.shape[1]),
                        "boxed_size": int(boxed.shape[0]),
                        "n_frames_sampled": len(frames),
                        "features": feats.tolist(),
                        "status": "success",
                    }
                )
            except Exception as exc:  # error channel, never a failed block
                rows.append(
                    {
                        "doc_id": doc_id,
                        "media_ref": ref,
                        "media_type": mtype,
                        "height": 0,
                        "width": 0,
                        "boxed_size": 0,
                        "n_frames_sampled": 0,
                        "features": [],
                        "status": f"error: {type(exc).__name__}"[:100],
                    }
                )
        return pa.Table.from_pylist(rows, schema=FEATURE_SCHEMA)


AUDIO_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("n_samples", pa.int32()),
        ("rms", pa.float32()),
        ("zero_crossing_rate", pa.float32()),
        ("dominant_freq_bin", pa.int32()),
        ("spectral_centroid", pa.float32()),
        ("status", pa.string()),
    ]
)


class AudioFeatureStage:
    """Audio-analog actor-pool stage: treat the payload as a PCM int16
    waveform and extract classic audio descriptors (RMS energy,
    zero-crossing rate, dominant rFFT bin, spectral centroid) —
    vectorized numpy per row, bounded to ``max_samples`` regardless of
    payload size. Like the image decode, a real codec would slot into
    ``_decode_waveform`` behind an import-try; the Ray-side plumbing
    (schema, explode, batch size, error channel) is identical either
    way."""

    def __init__(self, max_samples: int = 1 << 15):
        self.max_samples = max_samples

    def _decode_waveform(self, payload: bytes) -> np.ndarray:
        n = (len(payload) // 2) * 2
        if n == 0:
            return np.zeros(0, dtype=np.int16)
        wave = np.frombuffer(payload[:n], dtype="<i2")
        return wave[: self.max_samples]

    def _row(self, doc_id: str, ref: str, payload: bytes) -> dict:
        try:
            w = self._decode_waveform(payload or b"").astype(np.float64)
            if not len(w):
                raise ValueError("empty waveform")
            rms = float(np.sqrt(np.mean(w * w)))
            signs = np.signbit(w)
            zcr = float(np.mean(signs[1:] != signs[:-1])) if len(w) > 1 else 0.0
            spec = np.abs(np.fft.rfft(w))
            dom = int(np.argmax(spec[1:]) + 1) if len(spec) > 1 else 0
            freqs = np.arange(len(spec))
            denom = float(spec.sum())
            centroid = float((freqs * spec).sum() / denom) if denom else 0.0
            return {
                "doc_id": doc_id,
                "media_ref": ref,
                "n_samples": len(w),
                "rms": round(rms, 3),
                "zero_crossing_rate": round(zcr, 5),
                "dominant_freq_bin": dom,
                "spectral_centroid": round(centroid, 3),
                "status": "success",
            }
        except Exception as exc:  # error channel, never a failed block
            return {
                "doc_id": doc_id,
                "media_ref": ref,
                "n_samples": 0,
                "rms": 0.0,
                "zero_crossing_rate": 0.0,
                "dominant_freq_bin": 0,
                "spectral_centroid": 0.0,
                "status": f"error: {type(exc).__name__}"[:100],
            }

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [
            self._row(doc_id, ref, payload)
            for doc_id, ref, payload in zip(
                batch.column("doc_id").to_pylist(),
                batch.column("media_ref").to_pylist(),
                batch.column("payload").to_pylist(),
            )
        ]
        return pa.Table.from_pylist(rows, schema=AUDIO_SCHEMA)


def audio_features(
    docs: "ray.data.Dataset", batch_size: int = 64
) -> "ray.data.Dataset":
    """Audio-analog chain: explode media spans → actor-pool waveform
    feature stage."""
    media = docs.map_batches(explode_media, batch_format="pyarrow")
    return actor_map(media, AudioFeatureStage, batch_size=batch_size)


FRAME_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("frame_idx", pa.int32()),
        ("features", pa.list_(pa.float32())),
    ]
)


class FrameFeatureStage(DecodeStage):
    """Video-analog variant: one output ROW PER SAMPLED FRAME (frame
    sampling → per-frame decode → letterbox → features). Same actor
    signature as DecodeStage; bounded output per payload regardless of
    payload size (stride sampling)."""

    def __call__(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
        rows = []
        for doc_id, ref, payload in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("media_ref").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            frames = frame_sample(payload or b"", self.frame_bytes, self.stride)
            for fi, frame in enumerate(frames):
                try:
                    img = resize_letterbox(self._decode(frame), self.target)
                    feats = self._features(img).tolist()
                except Exception:
                    feats = []
                rows.append(
                    {
                        "doc_id": doc_id,
                        "media_ref": ref,
                        "frame_idx": fi,
                        "features": feats,
                    }
                )
        return pa.Table.from_pylist(rows, schema=FRAME_SCHEMA)


def frame_features(
    docs: "ray.data.Dataset",
    target: int = 64,
    batch_size: int = 64,
) -> "ray.data.Dataset":
    """Per-frame feature extraction over media spans (video analog)."""
    media = docs.map_batches(explode_media, batch_format="pyarrow")
    return actor_map(
        media, FrameFeatureStage, ctor_kwargs={"target": target},
        batch_size=batch_size,
    )


def media_features(
    docs: "ray.data.Dataset",
    target: int = 64,
    mode: "str | None" = None,
    batch_size: int = 64,
) -> "ray.data.Dataset":
    """Full multimodal chain: explode media spans → actor-pool
    decode/resize/feature stage. Small batch_size because rows carry
    binary payloads; the pool autoscales to the cluster minus headroom
    for the explode/read stages. ``mode`` selects the reference's
    per-mode resolution (describe 512 / document 768 / detect 384,
    src/core/vision.py:62-72); per-row ``mode`` columns override."""
    media = docs.map_batches(explode_media, batch_format="pyarrow")
    return actor_map(
        media, DecodeStage, ctor_kwargs={"target": target, "mode": mode},
        batch_size=batch_size if mode is None else 16,
    )


# ---------------------------------------------------------------------------
# fused one-pass union of all three modalities

UNION_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("media_ref", pa.string()),
        ("modality", pa.string()),
        ("idx", pa.int64()),
        ("d1", pa.int64()),
        ("d2", pa.int64()),
        ("n_units", pa.int64()),
        ("status", pa.string()),
    ]
)


class FusedMediaStage(DecodeStage):
    """One actor pool computing ALL THREE modality projections per media
    span (image decode-dims, per-sampled-frame feature counts, audio
    descriptors) in a single pass over the payload, emitting the common
    union schema directly. Semantically identical to running
    DecodeStage + FrameFeatureStage + AudioFeatureStage and unioning
    their projections (equality-tested in
    tests/test_ml_ops.py::test_fused_media_equals_union), but reads and
    explodes the corpus ONCE and shares the frame-0 decode between the
    image and frame paths — one pool instead of three competing
    autoscaling pools."""

    def __init__(self, target: int = 64, frame_bytes: int = 4096, stride: int = 4,
                 max_samples: int = 1 << 15):
        super().__init__(target=target, frame_bytes=frame_bytes, stride=stride)
        self._audio = AudioFeatureStage(max_samples=max_samples)

    def __call__(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
        out_doc: list[str] = []
        out_ref: list[str] = []
        out_mod: list[str] = []
        out_idx: list[int] = []
        out_d1: list[int] = []
        out_d2: list[int] = []
        out_nu: list[int] = []
        out_st: list[str] = []

        def emit(doc, ref, mod, idx, d1, d2, nu, st):
            out_doc.append(doc)
            out_ref.append(ref)
            out_mod.append(mod)
            out_idx.append(idx)
            out_d1.append(d1)
            out_d2.append(d2)
            out_nu.append(nu)
            out_st.append(st)

        n_feat = self.N_BINS + 2
        for doc_id, ref, payload in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("media_ref").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            payload = payload or b""
            frames = frame_sample(payload, self.frame_bytes, self.stride)
            # image projection (DecodeStage row → proj_image mapping)
            frame0_ok = False
            try:
                img = self._decode(frames[0] if frames else b"")
                boxed = resize_letterbox(img, self.target)
                self._features(boxed)
                emit(doc_id, ref, "image", 0, int(img.shape[0]),
                     int(img.shape[1]), len(frames), "success")
                frame0_ok = True
            except Exception as exc:
                emit(doc_id, ref, "image", 0, 0, 0, 0,
                     f"error: {type(exc).__name__}"[:100])
            # frame projection (FrameFeatureStage rows → proj_frame):
            # n_units = len(features) (N_BINS+2 on success, 0 on error)
            for fi, frame in enumerate(frames):
                if fi == 0 and frame0_ok:
                    emit(doc_id, ref, "frame", 0, 0, 0, n_feat, "ok")
                    continue
                try:
                    self._features(resize_letterbox(self._decode(frame), self.target))
                    nu = n_feat
                except Exception:
                    nu = 0
                emit(doc_id, ref, "frame", fi, 0, 0, nu, "ok")
            # audio projection (AudioFeatureStage row → proj_audio)
            a = self._audio._row(doc_id, ref, payload)
            emit(doc_id, ref, "audio", a["dominant_freq_bin"],
                 a["n_samples"], 0, 0, a["status"])

        return pa.Table.from_arrays(
            [
                pa.array(out_doc, pa.string()),
                pa.array(out_ref, pa.string()),
                pa.array(out_mod, pa.string()),
                pa.array(out_idx, pa.int64()),
                pa.array(out_d1, pa.int64()),
                pa.array(out_d2, pa.int64()),
                pa.array(out_nu, pa.int64()),
                pa.array(out_st, pa.string()),
            ],
            schema=UNION_SCHEMA,
        )


def union_media_features(
    docs: "ray.data.Dataset", batch_size: int = 64
) -> "ray.data.Dataset":
    """Three-pool reference plan for the multimodal union: run
    DecodeStage + FrameFeatureStage + AudioFeatureStage as separate
    actor pools and project each output onto UNION_SCHEMA. Kept as the
    equality oracle for ``fused_media_features`` (which computes the
    same rows in ONE pass); prefer the fused path in real pipelines —
    this one reads and explodes the corpus three times."""
    import pyarrow.compute as pc

    def proj_image(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.Table.from_arrays(
            [
                t["doc_id"].combine_chunks(),
                t["media_ref"].combine_chunks(),
                pa.array(["image"] * n, pa.string()),
                pa.array([0] * n, pa.int64()),
                t["height"].combine_chunks().cast(pa.int64()),
                t["width"].combine_chunks().cast(pa.int64()),
                t["n_frames_sampled"].combine_chunks().cast(pa.int64()),
                t["status"].combine_chunks(),
            ],
            schema=UNION_SCHEMA,
        )

    def proj_frame(t: pa.Table) -> pa.Table:
        n = len(t)
        nf = pc.list_value_length(t["features"]).cast(pa.int64())
        zeros = pa.array([0] * n, pa.int64())
        return pa.Table.from_arrays(
            [
                t["doc_id"].combine_chunks(),
                t["media_ref"].combine_chunks(),
                pa.array(["frame"] * n, pa.string()),
                t["frame_idx"].combine_chunks().cast(pa.int64()),
                zeros, zeros,
                nf.combine_chunks() if isinstance(nf, pa.ChunkedArray) else nf,
                pa.array(["ok"] * n, pa.string()),
            ],
            schema=UNION_SCHEMA,
        )

    def proj_audio(t: pa.Table) -> pa.Table:
        n = len(t)
        zeros = pa.array([0] * n, pa.int64())
        return pa.Table.from_arrays(
            [
                t["doc_id"].combine_chunks(),
                t["media_ref"].combine_chunks(),
                pa.array(["audio"] * n, pa.string()),
                t["dominant_freq_bin"].combine_chunks().cast(pa.int64()),
                t["n_samples"].combine_chunks().cast(pa.int64()),
                zeros, zeros,
                t["status"].combine_chunks(),
            ],
            schema=UNION_SCHEMA,
        )

    img = media_features(docs, batch_size=batch_size)
    frm = frame_features(docs, batch_size=batch_size)
    aud = audio_features(docs, batch_size=batch_size)
    return (
        img.map_batches(proj_image, batch_format="pyarrow")
        .union(frm.map_batches(proj_frame, batch_format="pyarrow"))
        .union(aud.map_batches(proj_audio, batch_format="pyarrow"))
    )


def fused_media_features(
    docs: "ray.data.Dataset", batch_size: int = 64
) -> "ray.data.Dataset":
    """Single-pool multimodal union: explode once → FusedMediaStage."""
    media = docs.map_batches(explode_media, batch_format="pyarrow")
    return actor_map(media, FusedMediaStage, batch_size=batch_size)
