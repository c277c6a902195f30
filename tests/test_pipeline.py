"""The core correctness gate: the distributed Ray pipeline must equal
the serial oracle under span-sequence equality (kind, text, media_ref,
order) per doc_id — BASELINE.json north_rule — plus dedup-cluster
equality, skew-path equivalence and resume-after-crash identity."""

from __future__ import annotations

import glob
import shutil

import pyarrow.parquet as pq
import pytest

from file_analyzer_ray.corpus import build_doc, docs_table
from file_analyzer_ray.oracle import dedup_clusters, extract_doc

N_DOCS = 300


@pytest.fixture(scope="module")
def ray_docs(ray_session):
    import ray.data

    return ray.data.from_arrow(docs_table(range(N_DOCS)))


@pytest.fixture(scope="module")
def oracle_rows():
    return {r["doc_id"]: r for r in (extract_doc(build_doc(i)) for i in range(N_DOCS))}


@pytest.fixture(scope="module")
def pipeline_rows(ray_session, ray_docs):
    from file_analyzer_ray.pipelines.extract import extract_pipeline

    out = extract_pipeline(ray_docs, score=True, concurrency=2, batch_size=64)
    return {r["doc_id"]: r for r in out.take_all()}


def _tuples(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]


def test_span_sequence_equality(pipeline_rows, oracle_rows):
    assert set(pipeline_rows) == set(oracle_rows)
    for doc_id, exp in oracle_rows.items():
        got = pipeline_rows[doc_id]
        assert _tuples(got["spans"]) == _tuples(exp["spans"]), doc_id
        assert got["content_hash"] == exp["content_hash"], doc_id
        assert got["n_spans"] == exp["n_spans"], doc_id
        assert got["status"] == "success"


def test_scorer_columns_deterministic(pipeline_rows):
    from file_analyzer_ray.functions.scoring import score_doc
    from file_analyzer_ray.functions.text import TOKEN_RE

    for doc_id in list(pipeline_rows)[:50]:
        row = pipeline_rows[doc_id]
        words = []
        for s in row["spans"]:
            if s["kind"] in ("text", "ocr"):
                words.extend(TOKEN_RE.findall(s["text"]))
                if len(words) >= 16:
                    break
        exp = score_doc(row["content_hash"], words[:16])
        assert row["mode"] == exp["mode"]
        assert row["description"] == exp["description"]
        assert list(row["tags"]) == exp["tags"]
        assert [dict(o) for o in row["objects"]] == exp["objects"]
        assert row["recommended_filename"] == exp["recommended_filename"]
        assert row["model_status"] == exp["model_status"]


def test_standalone_scorer_equals_fused(ray_session, ray_docs, pipeline_rows):
    """The standalone ScorerStage (pipelines that score PRE-EXTRACTED
    tables) must emit byte-identical scoring columns to the fused
    ExtractStage(score=True) path — pinned across the r4 port of the
    standalone stage onto the fused flat-Arrow kernel."""
    from file_analyzer_ray.pipelines.extract import extract_pipeline
    from file_analyzer_ray.stages.scorer import ScorerStage

    ext = extract_pipeline(ray_docs, score=False, concurrency=2, batch_size=64)
    scored = ext.map_batches(
        ScorerStage, batch_format="pyarrow", batch_size=64, concurrency=2
    )
    got = {r["doc_id"]: r for r in scored.take_all()}
    assert set(got) == set(pipeline_rows)
    for doc_id, exp in pipeline_rows.items():
        row = got[doc_id]
        for col in ("mode", "description", "recommended_filename",
                    "model_status", "attempts"):
            assert row[col] == exp[col], (doc_id, col)
        assert list(row["tags"]) == list(exp["tags"]), doc_id
        assert [dict(o) for o in row["objects"]] == [dict(o) for o in exp["objects"]]


def test_detect_mode_objects_column(pipeline_rows):
    """Detect-mode rows surface the typed objects column (reference
    src/models/mock_adapter.py:190-218, src/utils/json_utils.py:190-196
    — VERDICT r2: the repo parsed these then dropped them). Extracted
    detect rows carry >=1 object with name/location/confidence; every
    non-detect row carries []."""
    n_detect_objs = 0
    for row in pipeline_rows.values():
        objs = [dict(o) for o in row["objects"]]
        if row["mode"] == "detect" and row["model_status"] == "extracted":
            assert objs, row["doc_id"]
            for o in objs:
                assert set(o) == {"name", "location", "confidence"}
                assert o["name"]
                assert o["confidence"] is None or 0.0 <= o["confidence"] <= 1.0
            n_detect_objs += len(objs)
        elif row["mode"] != "detect":
            assert objs == [], row["doc_id"]
    assert n_detect_objs > 0


def test_exact_dedup_clusters_match_oracle(ray_session, ray_docs, oracle_rows):
    from file_analyzer_ray.pipelines.extract import extract_pipeline
    from file_analyzer_ray.stages.dedup import exact_dedup_clusters

    extracted = extract_pipeline(ray_docs, score=False, concurrency=2).materialize()
    exp = dedup_clusters(list(oracle_rows.values()))
    # default single-task merge, then the sorted-run merge (threshold 0)
    for threshold in (2_000_000, 0):
        got = {
            r["content_hash"]: r
            for r in exact_dedup_clusters(
                extracted, merge_threshold=threshold
            ).take_all()
        }
        assert set(got) == set(exp), threshold
        for h, e in exp.items():
            g = got[h]
            assert g["canonical_doc_id"] == e["canonical_doc_id"]
            assert g["cluster_size"] == e["cluster_size"]
            assert list(g["member_ids"]) == e["member_ids"], threshold


def test_near_dup_phash_banding(ray_session, ray_docs):
    from file_analyzer_ray.stages.dedup import phash_near_dup_pairs

    pairs = phash_near_dup_pairs(ray_docs, max_hamming=6).take_all()
    pairset = {(p["doc_id_a"], p["doc_id_b"]) for p in pairs}
    # Every planted near-dup (off 44 vs off 3, both with payloads) must be found.
    from file_analyzer_ray.corpus import BLOCK, parse_frames

    for block in range(N_DOCS // BLOCK):
        a, b = build_doc(block * BLOCK + 3), build_doc(block * BLOCK + 44)
        if parse_frames(a["binary"]):
            pair = tuple(sorted((a["doc_id"], b["doc_id"])))
            assert pair in pairset, f"planted near-dup {pair} not found"
    # All reported pairs actually verify under the hamming threshold.
    for p in pairs:
        assert p["hamming"] <= 6


def test_skew_carve_exploded_matches_oracle(ray_session, ray_docs, oracle_rows):
    from file_analyzer_ray.stages.skew import carve_exploded

    got = {r["doc_id"]: r["hits"] for r in carve_exploded(ray_docs, chunk_size=4096).take_all()}
    for doc_id, exp_row in oracle_rows.items():
        exp_hits = [
            (s["media_ref"], s["text"]) for s in exp_row["spans"] if s["kind"] == "embedded"
        ]
        got_hits = got.get(doc_id, [])
        # Reconstruct (media_ref, name@offset) from the exploded path: the
        # payload_idx indexes media/binary spans in original span order.
        raw = build_doc(int(doc_id[3:]))
        refs = [s["media_ref"] for s in raw["spans"] if s["kind"] in ("media", "binary")]
        got_pairs = [(refs[h["payload_idx"]], f"{h['name']}@{h['offset']}") for h in got_hits]
        # The oracle orders embedded spans per source span; exploded path
        # orders by (payload_idx, offset) — compare as ordered-per-payload.
        assert sorted(got_pairs) == sorted(exp_hits), doc_id


def test_resume_after_injected_crash(ray_session, tmp_path, ray_docs):
    from file_analyzer_ray.pipelines.extract import extract_pipeline
    from file_analyzer_ray.state.lineage import completed_partitions, write_partitioned

    out = str(tmp_path / "out")
    clean = str(tmp_path / "clean")

    def make():
        return extract_pipeline(ray_docs, score=False, concurrency=2)

    with pytest.raises(Exception):
        write_partitioned(make(), out, num_partitions=8, fail_partitions=frozenset({2, 6}))
    assert len(completed_partitions(out)) < 8
    write_partitioned(make(), out, num_partitions=8)
    assert sorted(completed_partitions(out)) == list(range(8))
    write_partitioned(make(), clean, num_partitions=8, resume=False)
    a = pq.read_table(sorted(glob.glob(out + "/part-*.parquet")))
    b = pq.read_table(sorted(glob.glob(clean + "/part-*.parquet")))
    assert a.equals(b)
    shutil.rmtree(out)


def test_error_channel_rows_not_exceptions(ray_session):
    """A poisoned document yields a status row, never a failed block."""
    import ray.data

    from file_analyzer_ray.stages.extract import ExtractStage

    bad = {"doc_id": "bad", "spans": None, "binary": None}
    stage = ExtractStage()
    import pyarrow as pa

    from file_analyzer_ray.corpus import DOCS_SCHEMA

    table = pa.Table.from_pylist([bad], schema=DOCS_SCHEMA)
    out = stage(table)
    assert out.num_rows == 1
    assert out.column("status")[0].as_py() == "success"  # None spans → empty doc
    assert out.column("n_spans")[0].as_py() == 0


def test_exported_rows_conform_to_json_schema(pipeline_rows):
    """Every exported row validates against the engine's versioned
    JSON-Schema contract (schemas/extracted/v1.0/schema.json) —
    mirroring the reference's per-artifact schema discipline
    (reference schemas/*/v1.0/schema.json, src/cli/validate/main.py:
    43-185)."""
    import json
    import os

    import jsonschema

    schema_path = os.path.join(
        os.path.dirname(__file__), "..", "schemas", "extracted", "v1.0", "schema.json"
    )
    with open(schema_path) as f:
        schema = json.load(f)
    validator = jsonschema.Draft7Validator(schema)
    for doc_id, row in pipeline_rows.items():
        row = {
            k: (list(v) if isinstance(v, (list, tuple)) else v) for k, v in row.items()
        }
        row["spans"] = [dict(s) for s in row["spans"]]
        row["tags"] = [str(t) for t in row["tags"]]
        errors = list(validator.iter_errors(row))
        assert not errors, f"{doc_id}: {errors[:2]}"
        assert row["n_spans"] == len(row["spans"])  # cross-field invariant


def test_sink_path_guard(ray_session, tmp_path):
    """PathGuard analog: protected/system/read-only/bare-temp sinks are
    rejected at construction; a named /tmp subdirectory passes."""
    import pytest as _pytest

    from file_analyzer_ray.state.guard import SinkPathError, validate_sink_dir
    from file_analyzer_ray.state.lineage import PartitionWriter
    from file_analyzer_ray.state.shards import run_sharded

    for bad in ["/etc/fa_out", "/usr/lib/fa", "/root/reference/out",
                "/root/testdata/sf0.001", "/tmp", "/var/tmp", "/", ""]:
        with _pytest.raises(SinkPathError):
            validate_sink_dir(bad)
    assert validate_sink_dir("/tmp/fa_named_out").startswith("/tmp/")
    assert validate_sink_dir(str(tmp_path / "ok"))
    with _pytest.raises(SinkPathError):
        PartitionWriter("/etc/fa_out")
    with _pytest.raises(SinkPathError):
        run_sharded(str(tmp_path), "/tmp")


def test_web_prep_invariants(ray_session):
    """The crawl-to-chunks composition: deterministic, strictly gated,
    dedup keeps min doc_id, every chunk's text is a window of a
    surviving doc's normalized text."""
    import hashlib

    import pyarrow.parquet as pq

    import ray.data

    from file_analyzer_ray.functions.text import detect_language, normalize_ws
    from file_analyzer_ray.pipelines.web_prep import web_prep_pipeline
    from file_analyzer_ray.stages.classifier import QualityClassifier

    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(
        f"{sf}/documents.parquet", columns=["doc_id", "source", "text"]
    ).repartition(5)
    out = web_prep_pipeline(ds).take_all()
    assert len(out) > 0

    # serial reference of the gate chain
    t = pq.read_table(f"{sf}/documents.parquet",
                      columns=["doc_id", "text"])
    norm = {d: " ".join((x or "").split())
            for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
    clf = QualityClassifier()
    import pyarrow as pa

    scored = clf(pa.Table.from_arrays(
        [pa.array(list(norm), pa.int64()),
         pa.array([norm[d] for d in norm], pa.string())],
        names=["doc_id", "text"],
    ))
    kept_quality = {
        d for d, k in zip(scored.column("doc_id").to_pylist(),
                          scored.column("keep").to_pylist()) if k
    }
    # exact dedup: min doc_id per fingerprint among quality survivors
    first: dict = {}
    for d in sorted(kept_quality):
        f = hashlib.md5(normalize_ws(norm[d]).lower().encode()).hexdigest()
        first.setdefault(f, d)
    expected_docs = set(first.values())

    got_docs = {r["doc_id"] for r in out}
    assert got_docs == expected_docs
    # chunk text is the right window of the doc's normalized text
    for r in out[:200]:
        toks = norm[r["doc_id"]].lower().split()
        assert r["chunk_text"] == " ".join(
            toks[r["start_tok"] : r["start_tok"] + r["n_tok"]]
        )
    # deterministic rerun
    again = web_prep_pipeline(ds).take_all()
    key = lambda rows: sorted((r["doc_id"], r["chunk_id"], r["chunk_text"]) for r in rows)
    assert key(out) == key(again)
