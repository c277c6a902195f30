"""Near-dup family + multimodal stage tests: banding recall proofs
against brute force, LSH precision/recall, letterbox geometry,
deterministic decode stub."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# simhash banding == brute force (recall 1.0 guaranteed by pigeonhole)


def test_simhash_near_dup_matches_brute_force(ray_session):
    import ray.data

    from file_analyzer_ray.functions.hashing import hamming64, simhash64
    from file_analyzer_ray.functions.text import tokenize
    from file_analyzer_ray.stages.text_dedup import simhash_near_dup_pairs

    tab = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    ids = tab["doc_id"].to_pylist()
    hashes = [simhash64(tokenize(t.lower())) for t in tab["text"].to_pylist()]
    expected = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if hamming64(hashes[i], hashes[j]) <= 3:
                a, b = sorted((ids[i], ids[j]))
                expected.add((a, b))

    ds = ray.data.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    got_df = simhash_near_dup_pairs(ds, max_hamming=3).to_pandas()
    got = set(zip(got_df["doc_id_a"], got_df["doc_id_b"]))
    assert got == expected


# ---------------------------------------------------------------------------
# phash banding == brute force (n_bands = max_hamming + 1 pigeonhole)


def test_phash_near_dup_matches_brute_force(ray_session):
    import pyarrow.dataset as pds
    import ray.data

    from file_analyzer_ray.corpus import parse_frames
    from file_analyzer_ray.functions.hashing import hamming64, phash64
    from file_analyzer_ray.pipelines.extract import corpus_path
    from file_analyzer_ray.stages.dedup import phash_near_dup_pairs

    src = corpus_path(1000)
    tab = pds.dataset(src).to_table(columns=["doc_id", "binary"])
    hashes = {}
    for d, b in zip(tab["doc_id"].to_pylist(), tab["binary"].to_pylist()):
        bodies = parse_frames(b or b"")
        h = phash64(b"".join(bodies)) if bodies else 0
        if h:
            hashes[d] = h
    ids = sorted(hashes)
    expected = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if hamming64(hashes[ids[i]], hashes[ids[j]]) <= 6:
                expected.add((ids[i], ids[j]))

    ds = ray.data.read_parquet(src, file_extensions=["parquet"])
    got_df = phash_near_dup_pairs(ds, max_hamming=6).to_pandas()
    got = set(zip(got_df["doc_id_a"], got_df["doc_id_b"]))
    assert len(expected) > 0
    assert got == expected  # recall AND precision 1.0 at the default threshold


# ---------------------------------------------------------------------------
# distributed connected components == driver union-find


def test_ngram_clusters_distributed_matches_driver(ray_session):
    import ray.data

    from file_analyzer_ray.stages.text_dedup import ngram_dedup_clusters

    ds = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=8,
    )
    drv = ngram_dedup_clusters(ds, assembly="driver").to_pandas()
    dst = ngram_dedup_clusters(ds, assembly="distributed").to_pandas()
    assert len(drv) > 0

    def canon(df):
        df = df.sort_values("canonical_doc_id").reset_index(drop=True)
        return (
            df["canonical_doc_id"].astype("int64").tolist(),
            df["cluster_size"].astype("int64").tolist(),
            [list(m) for m in df["member_ids"]],
        )

    assert canon(drv) == canon(dst)


# ---------------------------------------------------------------------------
# minhash verify: streaming join path == driver broadcast path


def test_minhash_verify_join_path_matches_driver_path(ray_session):
    """The all-streaming two-hash-join verify (candidate texts never on
    the driver) must produce the identical verified pair set."""
    import ray.data

    from file_analyzer_ray.stages.text_dedup import minhash_near_dup_pairs

    ds = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=8,
    )

    def canon(df):
        return (
            df.sort_values(["doc_id_a", "doc_id_b"]).reset_index(drop=True)
        )

    drv = canon(minhash_near_dup_pairs(ds, verify_mode="driver").to_pandas())
    jnd = canon(minhash_near_dup_pairs(ds, verify_mode="join").to_pandas())
    assert len(drv) > 0
    pd.testing.assert_frame_equal(drv, jnd.astype(drv.dtypes.to_dict()))


# ---------------------------------------------------------------------------
# pairwise image compare: SSIM + pixel-diff kernels and the operator


def _ssim_naive(x, y, win=7, k1=0.01, k2=0.03, dr=255.0):
    """Direct windowed implementation (double loop) — the oracle for
    the summed-area-table kernel."""
    x = x.astype(np.float64)
    y = y.astype(np.float64)
    c1, c2 = (k1 * dr) ** 2, (k2 * dr) ** 2
    h, w = x.shape
    vals = []
    for i in range(h - win + 1):
        for j in range(w - win + 1):
            a = x[i : i + win, j : j + win].ravel()
            b = y[i : i + win, j : j + win].ravel()
            ua, ub = a.mean(), b.mean()
            va, vb = a.var(ddof=1), b.var(ddof=1)
            vab = ((a - ua) * (b - ub)).sum() / (a.size - 1)
            vals.append(
                ((2 * ua * ub + c1) * (2 * vab + c2))
                / ((ua**2 + ub**2 + c1) * (va + vb + c2))
            )
    return float(np.mean(vals))


def test_ssim_matches_naive_windowed_oracle():
    from file_analyzer_ray.stages.compare import ssim

    rng = np.random.default_rng(7)
    x = rng.integers(0, 256, size=(24, 31)).astype(np.float64)
    y = np.clip(x + rng.normal(0, 12, size=x.shape), 0, 255)
    assert abs(ssim(x, x) - 1.0) < 1e-12
    assert abs(ssim(x, y) - _ssim_naive(x, y)) < 1e-9
    assert ssim(x, y) < 1.0


def test_pixel_mismatch_kernel():
    from file_analyzer_ray.stages.compare import pixel_mismatch_count

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    assert pixel_mismatch_count(img, img) == 0
    img2 = img.copy()
    img2[5, 5] = [255, 255, 255] if img[5, 5].sum() < 380 else [0, 0, 0]
    assert pixel_mismatch_count(img, img2) == 1
    # sub-threshold perturbation is NOT a mismatch
    img3 = img.copy()
    img3[2, 2] = np.clip(img[2, 2].astype(int) + 2, 0, 255).astype(np.uint8)
    assert pixel_mismatch_count(img, img3) == 0


def test_const_image_closed_forms():
    """The pairwise-compare driver oracle's whole premise: for two
    constant-color images the REAL kernels collapse to the closed forms
    the SQL states — SSIM to (2·ga·gb+c1)/(ga²+gb²+c1) of the planted
    grays (zero variance), pixelmatch to one YIQ threshold test."""
    from file_analyzer_ray.stages.compare import (
        pixel_mismatch_count,
        ssim,
        to_grayscale,
    )
    from file_analyzer_ray.stages.harness import const_color
    from file_analyzer_ray.stages.multimodal import resize_letterbox

    c1 = (0.01 * 255) * (0.01 * 255)
    for da in (0, 10, 12, 20, 96, 130):
        db = da + 1
        ca, cb = const_color(da), const_color(db)
        side_a, side_b = 16 + da % 17, 16 + db % 17
        ia = resize_letterbox(
            np.broadcast_to(np.array(ca, np.uint8), (side_a, side_a, 3)).copy(), 64
        )
        ib = resize_letterbox(
            np.broadcast_to(np.array(cb, np.uint8), (side_b, side_b, 3)).copy(), 64
        )
        # a constant square survives the letterbox exactly
        assert (ia == np.array(ca, np.uint8)).all() and ia.shape == (64, 64, 3)
        ga = 0.299 * ca[0] + 0.587 * ca[1] + 0.114 * ca[2]
        gb = 0.299 * cb[0] + 0.587 * cb[1] + 0.114 * cb[2]
        expect = (2 * ga * gb + c1) / (ga * ga + gb * gb + c1)
        assert abs(ssim(to_grayscale(ia), to_grayscale(ib)) - expect) < 1e-9
        mm = pixel_mismatch_count(ia, ib)
        assert mm in (0, 64 * 64)  # all-or-nothing for constant pairs
    # the planted rules: %10==1 clones (identical), %10==3 is +1/channel
    # (different bytes, still below the YIQ mismatch threshold)
    assert const_color(11) == const_color(10)
    assert const_color(13) == tuple(v + 1 for v in const_color(12))


def test_pairwise_compare_operator_invariants(ray_session):
    """Byte-identical first payloads → SSIM 1.0 / 0 mismatched pixels;
    different payloads (stub decode reseeds) → SSIM < 1. (hamming 0 is
    NOT the clone oracle — a ≤2-byte perturbation can leave every
    64-bucket phash bit unchanged.) The call leaves no
    ``fa_compare_imgs_*`` checkpoint behind."""
    import glob
    import os
    import tempfile

    import pyarrow.dataset as pds
    import ray.data

    from file_analyzer_ray.corpus import parse_frames
    from file_analyzer_ray.pipelines.extract import corpus_path
    from file_analyzer_ray.stages.compare import pairwise_image_compare
    from file_analyzer_ray.stages.dedup import phash_near_dup_pairs

    src = corpus_path(1000)
    tab = pds.dataset(src).to_table(columns=["doc_id", "binary"])
    first_payload = {}
    for d, b in zip(tab["doc_id"].to_pylist(), tab["binary"].to_pylist()):
        bodies = parse_frames(b or b"")
        if bodies:
            first_payload[d] = bodies[0]

    docs = ray.data.read_parquet(src, file_extensions=["parquet"])
    ckpt_glob = os.path.join(tempfile.gettempdir(), "fa_compare_imgs_*")
    before = set(glob.glob(ckpt_glob))
    got = pairwise_image_compare(docs, phash_near_dup_pairs(docs)).to_pandas()
    assert set(glob.glob(ckpt_glob)) == before
    assert len(got) > 0
    same = got.apply(
        lambda r: first_payload.get(r["doc_id_a"]) == first_payload.get(r["doc_id_b"]),
        axis=1,
    )
    clones, perturbed = got[same], got[~same]
    assert len(clones) > 0 and len(perturbed) > 0
    assert (clones["ssim"] == 1.0).all()
    assert (clones["mismatch_pct"] == 0.0).all()
    assert clones["identical"].all()
    assert (perturbed["ssim"] < 1.0).all()
    assert not perturbed["identical"].any()


# ---------------------------------------------------------------------------
# LSH near-dup: precision 1.0, recall bounded below vs exact baseline


def test_lsh_near_dup_precision_and_recall(ray_session):
    from file_analyzer_ray.stages.ann import cosine_near_dup_pairs, lsh_near_dup_pairs

    exact = cosine_near_dup_pairs(SF_DIR, threshold=0.35).to_pandas()
    approx = lsh_near_dup_pairs(SF_DIR, threshold=0.35).to_pandas()
    exact_pairs = set(zip(exact["vec_id_a"], exact["vec_id_b"]))
    approx_pairs = set(zip(approx["vec_id_a"], approx["vec_id_b"]))
    assert len(exact_pairs) > 0
    # precision 1.0: every LSH pair is verified with exact cosine
    assert approx_pairs <= exact_pairs
    recall = len(approx_pairs) / len(exact_pairs)
    assert recall >= 0.3, f"LSH recall {recall} too low"


def test_cosine_sims_match_duckdb_within_tolerance(ray_session):
    """Pair set must match DuckDB exactly; similarity values to 2e-4
    (last-ulp summation-order differences flip the 4th decimal)."""
    import duckdb

    from file_analyzer_ray.stages.ann import cosine_near_dup_pairs

    rdf = cosine_near_dup_pairs(SF_DIR, threshold=0.35).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{SF_DIR}/embeddings.parquet')"
    )
    sdf = con.execute(
        """
        SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
               list_dot_product(a.embedding, b.embedding)
               / sqrt(list_dot_product(a.embedding, a.embedding))
               / sqrt(list_dot_product(b.embedding, b.embedding)) AS sim
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE round(list_dot_product(a.embedding, b.embedding)
              / sqrt(list_dot_product(a.embedding, a.embedding))
              / sqrt(list_dot_product(b.embedding, b.embedding)), 4) >= 0.35
        """
    ).df()
    rset = set(zip(rdf["vec_id_a"], rdf["vec_id_b"]))
    sset = set(zip(sdf["vec_id_a"], sdf["vec_id_b"]))
    assert rset == sset
    sm = {(a, b): s for a, b, s in zip(sdf["vec_id_a"], sdf["vec_id_b"], sdf["sim"])}
    for a, b, s in zip(rdf["vec_id_a"], rdf["vec_id_b"], rdf["cosine_sim"]):
        assert abs(s - sm[(a, b)]) < 2e-4


def test_cosine_near_dup_symmetric_ids(ray_session):
    from file_analyzer_ray.stages.ann import cosine_near_dup_pairs

    df = cosine_near_dup_pairs(SF_DIR, threshold=0.35).to_pandas()
    assert (df["vec_id_a"] < df["vec_id_b"]).all()
    assert (df["cosine_sim"] >= 0.35).all()
    # no duplicate pairs
    assert not df.duplicated(["vec_id_a", "vec_id_b"]).any()


# ---------------------------------------------------------------------------
# multimodal stages


def test_resize_letterbox_geometry():
    from file_analyzer_ray.stages.multimodal import resize_letterbox

    img = np.full((40, 80, 3), 200, dtype=np.uint8)  # 1:2 aspect
    out = resize_letterbox(img, 64)
    assert out.shape == (64, 64, 3)
    # content occupies 32 rows (scaled by 64/80), letterboxed top+bottom
    filled_rows = (out.sum(axis=(1, 2)) > 0).sum()
    assert 30 <= filled_rows <= 34
    # letterbox bands are black
    assert out[0].sum() == 0 and out[-1].sum() == 0
    # full-width content where filled
    mid = out[32]
    assert (mid > 0).all()


def test_frame_sample_bounds():
    from file_analyzer_ray.stages.multimodal import frame_sample

    payload = bytes(range(256)) * 64  # 16 KiB
    frames = frame_sample(payload, frame_bytes=4096, stride=2)
    assert len(frames) == 2  # frames 0 and 2 of 4
    assert frames[0] == payload[:4096]
    assert frame_sample(b"", frame_bytes=4096, stride=4) == [b""]


def test_decode_stage_deterministic_and_error_channel(ray_session):
    import pyarrow as pa

    from file_analyzer_ray.stages.multimodal import MEDIA_ROW_SCHEMA, DecodeStage

    batch = pa.Table.from_pylist(
        [
            {"doc_id": "d1", "media_ref": "m/1", "media_type": "media",
             "payload": b"payload-bytes-abc" * 100},
            {"doc_id": "d2", "media_ref": "m/2", "media_type": "binary",
             "payload": b""},
        ],
        schema=MEDIA_ROW_SCHEMA,
    )
    stage = DecodeStage(target=64)
    out1 = stage(batch).to_pylist()
    out2 = DecodeStage(target=64)(batch).to_pylist()
    assert out1 == out2  # pure function of payload bytes
    assert out1[0]["status"] == "success"
    assert len(out1[0]["features"]) == DecodeStage.N_BINS + 2
    hist = np.array(out1[0]["features"][: DecodeStage.N_BINS])
    assert abs(hist.sum() - 1.0) < 1e-5  # normalized histogram
    assert out1[0]["height"] >= 32 and out1[0]["width"] >= 32


def test_mode_dependent_preprocess_resolutions(ray_session):
    """Reference policy (src/core/vision.py:62-72): describe 512²,
    document 768², detect 384² — both via the constructor mode and via
    a per-row mode column."""
    import pyarrow as pa

    from file_analyzer_ray.stages.multimodal import (
        MEDIA_ROW_SCHEMA,
        MODE_TARGETS,
        DecodeStage,
    )

    rows = [
        {"doc_id": "d1", "media_ref": "m/1", "media_type": "media",
         "payload": b"payload-bytes-abc" * 100},
    ]
    batch = pa.Table.from_pylist(rows, schema=MEDIA_ROW_SCHEMA)
    for mode, res in MODE_TARGETS.items():
        out = DecodeStage(mode=mode)(batch).to_pylist()
        assert out[0]["boxed_size"] == res, (mode, out[0]["boxed_size"])
    # no mode → raw target
    assert DecodeStage(target=64)(batch).to_pylist()[0]["boxed_size"] == 64
    # per-row mode column overrides the constructor default
    batch_modes = batch.append_column("mode", pa.array(["document"]))
    out = DecodeStage(mode="describe")(batch_modes).to_pylist()
    assert out[0]["boxed_size"] == MODE_TARGETS["document"]


def test_media_features_pipeline_covers_all_media_spans(ray_session):
    import ray.data

    from file_analyzer_ray.pipelines.extract import corpus_path
    from file_analyzer_ray.stages.multimodal import media_features

    src = corpus_path(200)
    docs = ray.data.read_parquet(src, file_extensions=["parquet"])
    n_media = 0
    for row in docs.take_all():
        n_media += sum(1 for s in row["spans"] if s["kind"] in ("media", "binary"))
    feats = media_features(docs).to_pandas()
    assert len(feats) == n_media
    assert (feats["status"] == "success").all()
    assert feats["media_ref"].is_unique


def test_decontaminate_broadcast_equals_join(ray_session):
    """The broadcast path (probe gram set via ray.put) and the
    distributed join path (explode ⋈ probe table + left_anti zero-row
    recovery) must emit identical per-doc match counts; spot-check the
    counts against a pure-Python oracle."""
    import ray.data

    from file_analyzer_ray.stages.decontaminate import (
        decontaminate,
        gram_hashes,
        probe_gram_set,
    )

    tab = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    ids = tab["doc_id"].to_pylist()
    texts = tab["text"].to_pylist()
    probe_texts = [t for i, t in zip(ids, texts) if i % 37 == 0]
    corpus = [(i, t) for i, t in zip(ids, texts) if i % 37 != 0]
    probe = probe_gram_set(probe_texts, n=3)
    assert len(probe) > 0

    ds = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).filter(lambda r: r["doc_id"] % 37 != 0)

    def norm(res):
        df = res.to_pandas().sort_values("doc_id").reset_index(drop=True)
        return df.astype({"doc_id": "int64", "n_matched": "int64",
                          "contaminated": "bool"})

    bc = norm(decontaminate(ds, probe, n=3, mode="broadcast"))
    jn = norm(decontaminate(ds, probe, n=3, mode="join"))
    pd.testing.assert_frame_equal(bc, jn)

    # python oracle: distinct-gram intersection sizes
    probe_set = set(probe.tolist())
    exp = {i: len(set(gram_hashes(t, 3).tolist()) & probe_set) for i, t in corpus}
    got = dict(zip(bc["doc_id"], bc["n_matched"]))
    assert got == exp
    assert bc["contaminated"].equals(bc["n_matched"] > 0)
    # a doc sharing no text with the probe set must not be flagged:
    # synthetic corpus guarantees some of each
    assert bc["contaminated"].any()


def test_fused_media_equals_union(ray_session):
    """FusedMediaStage (one pool, one pass, shared frame-0 decode) must
    emit EXACTLY the rows of the three-pool DecodeStage +
    FrameFeatureStage + AudioFeatureStage union plan."""
    import ray.data

    from file_analyzer_ray.pipelines.extract import corpus_path
    from file_analyzer_ray.stages.multimodal import (
        fused_media_features,
        union_media_features,
    )

    src = corpus_path(200)
    key = ["doc_id", "media_ref", "modality", "idx"]

    def norm(ds):
        df = ds.to_pandas().sort_values(key).reset_index(drop=True)
        assert not df.duplicated(key).any()
        return df

    fused = norm(fused_media_features(ray.data.read_parquet(src)))
    union = norm(union_media_features(ray.data.read_parquet(src)))
    pd.testing.assert_frame_equal(fused, union)
    assert (fused["modality"].value_counts()[["image", "audio"]] > 0).all()
    assert (fused["modality"] == "frame").any()


def test_audio_feature_stage_deterministic_and_sane(ray_session):
    import pyarrow as pa

    from file_analyzer_ray.stages.multimodal import MEDIA_ROW_SCHEMA, AudioFeatureStage

    # 1 kHz-bin sine encoded as int16 PCM: dominant bin must match.
    t = np.arange(4096)
    wave = (np.sin(2 * np.pi * 64 * t / 4096) * 20000).astype("<i2")
    batch = pa.Table.from_pylist(
        [
            {"doc_id": "d1", "media_ref": "a/1", "media_type": "media",
             "payload": wave.tobytes()},
            {"doc_id": "d2", "media_ref": "a/2", "media_type": "binary",
             "payload": b""},
        ],
        schema=MEDIA_ROW_SCHEMA,
    )
    out1 = AudioFeatureStage()(batch).to_pylist()
    out2 = AudioFeatureStage()(batch).to_pylist()
    assert out1 == out2
    assert out1[0]["status"] == "success"
    assert out1[0]["dominant_freq_bin"] == 64
    assert out1[0]["zero_crossing_rate"] == pytest.approx(2 * 64 / 4096, rel=0.05)
    assert out1[0]["rms"] == pytest.approx(20000 / np.sqrt(2), rel=0.01)
    assert out1[1]["status"].startswith("error")


def test_training_prep_pipeline_invariants(ray_session):
    """End-to-end prep composition: unique fingerprints, no surviving
    verified near-dup pair, all languages gated, token counts exact."""
    import ray.data

    from file_analyzer_ray.functions.text import bpe_token_count
    from file_analyzer_ray.pipelines.prep import KEEP_LANGS, training_prep_pipeline
    from file_analyzer_ray.stages.text_dedup import minhash_near_dup_pairs

    out = training_prep_pipeline(SF_DIR).to_pandas()
    assert len(out) > 0
    assert out["fingerprint"].is_unique
    assert set(out["lang_pred"]) <= set(KEEP_LANGS)
    # no verified near-dup pair survives in full
    ds = ray.data.from_pandas(out[["doc_id", "text"]])
    leftover = minhash_near_dup_pairs(ds).to_pandas()
    assert len(leftover) == 0
    # token budget column is the exact BPE-ish count
    sample = out.head(20)
    assert [bpe_token_count(t) for t in sample["text"]] == sample["n_bpe_tokens"].tolist()
    # fewer rows than input (gates + dedup actually removed something)
    import pyarrow.parquet as pq
    n_in = pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows
    assert len(out) < n_in


def test_bloom_filter_semijoin_pushdown(ray_session):
    """No false negatives ever; FP rate within theory; distributed
    build == serial build; the pushdown keeps every true match."""
    import ray.data

    from file_analyzer_ray.stages.bloom import (
        BloomFilter,
        bloom_semi_filter,
        build_bloom,
    )

    rng = np.random.default_rng(5)
    build_keys = rng.choice(10_000_000, size=20_000, replace=False).astype(np.int64)
    bf = BloomFilter(log2_m=20, k=4)
    bf.add(build_keys)
    # no false negatives
    assert bf.contains(build_keys).all()
    # FP rate near theory: (1 - e^{-kn/m})^k with n=20k, m=2^20 -> ~0.3%
    probe = rng.choice(10_000_000, size=50_000, replace=False).astype(np.int64)
    outside = np.setdiff1d(probe, build_keys)
    fp = bf.contains(outside).mean()
    assert fp < 0.02, fp

    # distributed build merges to the same filter
    ds = ray.data.from_pandas(pd.DataFrame({"k": build_keys}))
    dist = build_bloom(ds, "k", log2_m=20, k=4)
    assert (dist.bits == bf.bits).all()

    # pushdown keeps every true semi-join match
    probe_df = pd.DataFrame({"k": np.concatenate([build_keys[:500], outside[:5000]])})
    kept = bloom_semi_filter(ray.data.from_pandas(probe_df), "k", dist).to_pandas()
    assert set(build_keys[:500]) <= set(kept["k"])
    assert len(kept) < len(probe_df)  # most non-matches pruned before the join


def test_semdedup_distributed_matches_serial(ray_session):
    """SemDeDup: the distributed path (broadcast-reduce k-means +
    sorted-run in-cluster dedup incl. the boundary side-channel) must
    equal the single-process oracle bit-for-bit. Multi-block input so
    partial-sum reduction and cluster runs straddling block boundaries
    are actually exercised."""
    import pyarrow.parquet as pq

    import ray.data

    from file_analyzer_ray.stages.semdedup import semdedup, semdedup_serial

    t = pq.read_table(
        f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.stack(t["embedding"].to_pylist()).astype(np.float64)

    ds = ray.data.read_parquet(
        f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).repartition(7)
    for eps in (0.35, 0.4):
        # ALL trainer paths must equal the serial oracle bit-for-bit.
        # "sample" at sf scale: input_rows ≤ the sample bound → stride
        # 1 → the content-addressed sample IS the full set, training
        # streams to the driver and the tag/kernel passes stream from
        # the source (no corpus-sized materialize anywhere) — the
        # 10^12 code path, equality-pinned here (r3 verdict #3).
        for mode in ("distributed", "driver", "sample"):
            got = sorted(
                (r["vec_id"], r["cluster"], r["kept"])
                for r in semdedup(
                    ds, k=8, iters=2, eps=eps, train_mode=mode
                ).take_all()
            )
            exp = semdedup_serial(ids, mat, k=8, iters=2, eps=eps)
            assert got == exp, mode
    # the threshold actually bites: some rows dropped, most kept
    kept = sum(1 for _, _, k in exp if k)
    assert 0 < kept < len(exp)


def test_semdedup_blocked_kernel_matches(ray_session, monkeypatch):
    """The hot-cluster blocked kernel (runs > _KERNEL_RUN_BLOCK compare
    column blocks against all earlier rows) must give exactly the
    single-matmul answer — forced here by shrinking the block bound far
    below the run length."""
    import ray.data

    from file_analyzer_ray.stages import semdedup as sd

    ds = ray.data.read_parquet(
        f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).repartition(5)
    base = sorted(
        (r["vec_id"], r["cluster"], r["kept"])
        for r in sd.semdedup(ds, k=2, iters=1, eps=0.35).take_all()
    )
    monkeypatch.setattr(sd, "_KERNEL_RUN_BLOCK", 13)
    blocked = sorted(
        (r["vec_id"], r["cluster"], r["kept"])
        for r in sd.semdedup(ds, k=2, iters=1, eps=0.35).take_all()
    )
    assert blocked == base


def test_semdedup_strided_sample_training(ray_session):
    """Above the training bound the content-addressed sample strides:
    force stride > 1 by lying about input_rows far above the bound via
    a tiny bound. The result is deterministic, covers every row exactly
    once, and flags at least one duplicate on the sf table."""
    import ray.data

    from file_analyzer_ray.stages import semdedup as sd

    ds = ray.data.read_parquet(
        f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).repartition(4)
    ids_sample, mat_sample = sd._train_sample(ds, bound=100, input_rows=500)
    assert 0 < len(ids_sample) <= 200  # ≈ bound, hard-capped at 2×
    assert len(set(ids_sample.tolist())) == len(ids_sample)
    a = sorted(
        (r["vec_id"], r["cluster"], r["kept"])
        for r in sd.semdedup(ds, k=4, iters=2, eps=0.35,
                             train_mode="sample", input_rows=500).take_all()
    )
    b = sorted(
        (r["vec_id"], r["cluster"], r["kept"])
        for r in sd.semdedup(ds, k=4, iters=2, eps=0.35,
                             train_mode="sample", input_rows=500).take_all()
    )
    assert a == b
    assert len(a) == 500 and len({v for v, _, _ in a}) == 500


def test_semdedup_empty_cluster_vanishes(ray_session):
    """If an init centroid captures no members after an update, its cid
    must disappear from later assignments on BOTH paths (the SQL oracle
    drops it via GROUP BY) — regression pin for the k > distinct-points
    edge."""
    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.semdedup import semdedup, semdedup_serial

    # two exact point-masses with interleaved ids: init picks centroids
    # (a, b, a, b); every a-point tie-breaks to cid 0 and every b-point
    # to cid 1, so cids 2 and 3 are empty after the first update
    a = np.array([10.0] + [0.0] * 7)
    b = np.array([0.0] * 7 + [10.0])
    mat = np.stack([a if i % 2 == 0 else b for i in range(12)]).astype(np.float32)
    ids = np.arange(12, dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids, "embedding": [list(map(float, r)) for r in mat]})
    ds = ray.data.from_pandas(df).repartition(3)
    got = sorted(
        (r["vec_id"], r["cluster"], r["kept"])
        for r in semdedup(ds, k=4, iters=2, eps=0.9).take_all()
    )
    exp = semdedup_serial(ids, mat.astype(np.float64), k=4, iters=2, eps=0.9)
    assert got == exp
    assert len({c for _, c, _ in got}) == 2  # empty centroids vanished


def test_quality_classifier_kernel_edges(ray_session):
    """The segmented-sum kernel must survive empty texts at the start,
    middle and end of a batch (reduceat offset arithmetic) and match a
    per-doc serial computation exactly."""
    import hashlib

    import pandas as pd
    import pyarrow as pa

    import ray.data

    from file_analyzer_ray.stages.classifier import (
        QualityClassifier,
        classify_quality,
        model_weights,
        token_bucket,
    )

    texts = ["", "fast key order", "", "join join join", "slow", ""]
    ids = np.arange(len(texts), dtype=np.int64)
    t = pa.Table.from_arrays(
        [pa.array(ids), pa.array(texts)], names=["doc_id", "text"]
    )
    out = QualityClassifier()(t)
    w = model_weights()
    for i, txt in enumerate(texts):
        toks = [x.lower() for x in txt.split() if x]
        exp = round(float(np.mean([w[token_bucket(x)] for x in toks])), 6) if toks else 0.0
        assert out.column("score")[i].as_py() == exp
        assert out.column("keep")[i].as_py() == (exp >= 0)

    # dataset path: tasks over multiple blocks, same values
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": ids, "text": texts})
    ).repartition(3)
    rows = {r["doc_id"]: r for r in classify_quality(ds).take_all()}
    for i in range(len(texts)):
        assert rows[i]["score"] == out.column("score")[i].as_py()


def test_source_overlap_matches_serial(ray_session):
    """Cross-source overlap: distributed (hash grams, bitmask runs,
    boundary channel) == string-gram serial oracle, multi-block."""
    import pyarrow.parquet as pq

    import ray.data

    from file_analyzer_ray.stages.overlap import (
        source_overlap,
        source_overlap_serial,
    )

    t = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["source", "text"])
    exp = source_overlap_serial(
        t["source"].to_pylist(), t["text"].to_pylist(), n=3
    )
    ds = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["source", "text"]
    ).repartition(6)
    got = sorted(
        (r["source_a"], r["source_b"], r["n_shared"])
        for r in source_overlap(ds, n=3).take_all()
    )
    assert len(got) > 0
    assert got == exp


def test_source_overlap_hand_case(ray_session):
    """Known-answer: A∩B share exactly the grams of one sentence."""
    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.overlap import source_overlap

    shared = "alpha beta gamma delta"  # 2 distinct 3-grams
    df = pd.DataFrame(
        {
            "source": ["A", "A", "B", "C"],
            "text": [shared, "only a words here", shared + " epsilon", "zzz yyy xxx"],
        }
    )
    got = sorted(
        (r["source_a"], r["source_b"], r["n_shared"])
        for r in source_overlap(
            ray.data.from_pandas(df).repartition(2), n=3
        ).take_all()
    )
    assert got == [("A", "B", 2)]


def test_bpe_word_counts_distributed_matches_counter(ray_session):
    from collections import Counter

    import ray.data

    from file_analyzer_ray.functions.text import tokenize
    from file_analyzer_ray.stages.bpe_train import word_counts

    t = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["text"])
    exp = Counter()
    for txt in t["text"].to_pylist():
        exp.update(x.lower() for x in tokenize(txt))
    ds = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["text"]
    ).repartition(6)
    got = {r["word"]: r["n"] for r in word_counts(ds).take_all()}
    assert got == dict(exp)


def test_bpe_train_hand_case_and_determinism():
    from file_analyzer_ray.stages.bpe_train import bpe_train_from_counts

    counts = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    merges = bpe_train_from_counts(counts, 6)
    # es / st / t</w> all have freq 9; the tie breaks lexicographically
    assert merges[0] == ("e", "s", 9)
    assert merges == bpe_train_from_counts(counts, 6)  # deterministic
    assert all(m[2] >= 2 for m in merges)


def test_bpe_train_end_to_end_and_encode(ray_session):
    from collections import Counter

    import ray.data

    from file_analyzer_ray.functions.text import tokenize
    from file_analyzer_ray.stages.bpe_train import (
        _encode_word,
        bpe_encode,
        bpe_train,
        bpe_train_from_counts,
    )

    t = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    exp_counts = Counter()
    for txt in t["text"].to_pylist():
        exp_counts.update(x.lower() for x in tokenize(txt))
    ds = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).repartition(4)
    merges = bpe_train(ds, num_merges=20)
    exp_merges = bpe_train_from_counts(dict(exp_counts), 20)
    got_merges = list(
        zip(
            merges.column("left").to_pylist(),
            merges.column("right").to_pylist(),
            merges.column("freq").to_pylist(),
        )
    )
    assert got_merges == exp_merges
    assert len(got_merges) == 20

    # encode: dataset path == per-word dynamic program
    rank = {(a, b): i for i, (a, b, _) in enumerate(exp_merges)}
    enc = {r["doc_id"]: r["n_bpe_tokens"] for r in bpe_encode(ds, merges).take_all()}
    for did, txt in zip(t["doc_id"].to_pylist()[:50], t["text"].to_pylist()[:50]):
        n = sum(len(_encode_word(w.lower(), rank)) for w in tokenize(txt))
        assert enc[did] == n
    # merges actually compress: fewer pieces than chars+1 for merged words
    assert len(_encode_word(exp_merges[0][0] + exp_merges[0][1], rank)) < len(
        exp_merges[0][0] + exp_merges[0][1]
    ) + 1


def test_mg_truncate_keeps_every_heavy_hitter():
    from file_analyzer_ray.stages.sketches import _mg_truncate

    rng = np.random.default_rng(11)
    counts = rng.zipf(1.5, 500).astype(np.int64)
    words = np.array([f"w{i}" for i in range(500)], dtype=object)
    k = 16
    w, c = _mg_truncate(words, counts, k)
    assert len(w) <= k
    n = counts.sum()
    heavy = set(words[counts > n / (k + 1)].tolist())
    assert heavy <= set(w.tolist())  # MG guarantee: no heavy hitter lost


def test_heavy_hitter_terms_exact_topk(ray_session):
    from collections import Counter

    import ray.data

    from file_analyzer_ray.functions.text import tokenize
    from file_analyzer_ray.stages.sketches import heavy_hitter_terms

    t = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["text"])
    cnt = Counter()
    for txt in t["text"].to_pylist():
        cnt.update(x.lower() for x in tokenize(txt))
    exp = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:10]

    ds = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["text"]
    ).repartition(6)
    out = heavy_hitter_terms(ds, k=10, sketch_k=256).take_all()
    got = [(r["term"], r["n"]) for r in out]
    assert got == exp
    assert all(r["guarantee_ok"] for r in out)


def test_heavy_hitter_small_sketch_still_finds_giant(ray_session):
    """With a sketch far smaller than the vocabulary, the dominant term
    must survive (MG guarantee); the self-verify flag reports whether
    the full top-k is provably exact."""
    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.sketches import heavy_hitter_terms

    rows = ["giant " * 50] * 20 + [f"rare{i} word{i%7}" for i in range(300)]
    ds = ray.data.from_pandas(pd.DataFrame({"text": rows})).repartition(5)
    out = heavy_hitter_terms(ds, k=3, sketch_k=8).take_all()
    assert out[0]["term"] == "giant" and out[0]["n"] == 1000


def test_bpe_word_counts_min_count_prunes(ray_session):
    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.bpe_train import word_counts

    ds = ray.data.from_pandas(
        pd.DataFrame({"text": ["aa aa aa bb", "bb cc", "dd"]})
    ).repartition(2)
    got = {r["word"]: r["n"] for r in word_counts(ds, min_count=2).take_all()}
    assert got == {"aa": 3, "bb": 2}  # cc/dd hapaxes pruned globally


def test_new_ops_survive_null_and_empty_text(ray_session):
    """Crawl data has nulls: every round-3 text operator must pass
    None/empty/whitespace text through without raising and produce the
    right degenerate outputs."""
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from file_analyzer_ray.stages.classifier import QualityClassifier
    from file_analyzer_ray.stages.maincontent import (
        MainContentStage,
        wrap_documents_html,
    )
    from file_analyzer_ray.stages.layout import (
        LayoutParseStage,
        wrap_documents_layout,
    )
    from file_analyzer_ray.stages.overlap import source_overlap
    from file_analyzer_ray.stages.packing import chunk_documents
    from file_analyzer_ray.stages.bpe_train import word_counts

    t = pa.Table.from_arrays(
        [
            pa.array([1, 2, 3], pa.int64()),
            pa.array(["web", "web", "web"]),
            pa.array([None, "", "   "], pa.string()),
        ],
        names=["doc_id", "source", "text"],
    )
    out = MainContentStage()(wrap_documents_html(t))
    assert out.column("main_text").to_pylist() == ["", "", ""]
    out = LayoutParseStage()(wrap_documents_layout(t))
    assert out.column("main_text").to_pylist() == ["", "", ""]
    assert out.column("n_pages").to_pylist() == [2, 2, 2]

    clf = QualityClassifier()(
        pa.Table.from_arrays(
            [t.column("doc_id"), t.column("text")], names=["doc_id", "text"]
        )
    )
    assert clf.column("score").to_pylist() == [0.0, 0.0, 0.0]

    df = pd.DataFrame({"doc_id": [1, 2], "source": ["a", "b"],
                       "text": [None, ""]})
    ds = ray.data.from_pandas(df)
    assert source_overlap(ds, n=3).take_all() == []
    assert word_counts(ds).take_all() == []
    chunks = chunk_documents(ds).take_all()
    assert sorted(r["n_tok"] for r in chunks) == [0, 0]


def test_bpe_encode_ids_roundtrip(ray_session):
    """Token ids are decodable back to the exact symbol sequence, and
    n_bpe_tokens agrees with the count-only encoder."""
    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.bpe_train import (
        END, END_ID, MERGE_ID_BASE, _encode_word,
        bpe_encode, bpe_encode_ids, bpe_train,
    )

    texts = ["low lower lowest", "newest widest low", ""]
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [1, 2, 3], "text": texts})
    ).repartition(2)
    merges = bpe_train(ds, num_merges=10)
    merged_syms = [
        l + r for l, r in zip(merges.column("left").to_pylist(),
                              merges.column("right").to_pylist())
    ]
    rank = {(l, r): i for i, (l, r) in enumerate(zip(
        merges.column("left").to_pylist(), merges.column("right").to_pylist()
    ))}

    def decode(i):
        if i == END_ID:
            return END
        if i >= MERGE_ID_BASE:
            return merged_syms[i - MERGE_ID_BASE]
        return chr(i)

    got = {r["doc_id"]: r for r in bpe_encode_ids(ds, merges).take_all()}
    counts = {r["doc_id"]: r["n_bpe_tokens"]
              for r in bpe_encode(ds, merges).take_all()}
    import re
    for did, txt in zip([1, 2, 3], texts):
        syms = []
        for w in re.findall(r"[A-Za-z0-9]+", txt.lower()):
            syms.extend(_encode_word(w, rank))
        assert [decode(i) for i in got[did]["ids"]] == syms
        assert got[did]["n_bpe_tokens"] == counts[did] == len(syms)


def test_pagerank_modes_match_serial(ray_session):
    """Broadcast and join iteration paths both equal the serial
    quantized oracle on a small undirected graph."""
    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.graph import pagerank, pagerank_serial

    rng = np.random.default_rng(13)
    pairs = {(int(a), 100 + int(b))
             for a, b in rng.integers(0, 12, size=(60, 2))}
    und = [(u, v) for u, v in pairs] + [(v, u) for u, v in pairs]
    df = pd.DataFrame({"src": [e[0] for e in und], "dst": [e[1] for e in und]})
    ds = ray.data.from_pandas(df).repartition(3)
    exp = sorted(pagerank_serial(und).items())
    for mode in ("broadcast", "join"):
        got = sorted(
            (r["v"], r["pagerank"])
            for r in pagerank(ds, iters=3, mode=mode).take_all()
        )
        assert got == exp, mode
    assert abs(sum(v for _, v in exp) - 1.0) < 1e-6  # mass conserved


def test_dsir_distributed_equals_serial(ray_session):
    """DSIR weights + scores from the distributed broadcast-reduce path
    equal the single-process oracle (scores compared at 1e-9 — both
    sides round to 6 decimals, summation order may differ in ULPs)."""
    import pyarrow.parquet as pq

    import ray.data

    from file_analyzer_ray.stages.dsir import dsir_score, dsir_serial, dsir_weights

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    exp = {
        d: (n, s, k)
        for d, n, s, k in dsir_serial(
            t["doc_id"].to_pylist(), t["text"].to_pylist()
        )
    }
    ds = ray.data.read_parquet(
        f"{sf}/documents.parquet", columns=["doc_id", "text"]
    ).repartition(4)
    got = dsir_score(ds, dsir_weights(ds)).take_all()
    assert len(got) == len(exp)
    for r in got:
        n, s, k = exp[r["doc_id"]]
        assert r["n_bigrams"] == n
        assert abs(r["score"] - s) < 1e-9
        assert r["kept"] == k
    # the target slice scores higher than the raw slice on average
    # (it IS the target distribution)
    import numpy as np

    tgt = np.mean([r["score"] for r in got if r["doc_id"] % 7 == 0])
    raw = np.mean([r["score"] for r in got if r["doc_id"] % 3 == 1])
    assert tgt >= raw


def test_pagerank_undirected_pairs_equals_expanded(ray_session):
    """pagerank_undirected_pairs over each edge ONCE is bit-identical
    to broadcast-mode pagerank over the 2x expanded edge list."""
    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.graph import pagerank, pagerank_undirected_pairs

    rng = np.random.default_rng(29)
    pairs = sorted({(int(a), 100 + int(b))
                    for a, b in rng.integers(0, 15, size=(80, 2))})
    pdf = pd.DataFrame({"a": [p[0] for p in pairs], "b": [p[1] for p in pairs]})
    ds_pairs = ray.data.from_pandas(pdf).repartition(3)
    und = pairs + [(v, u) for u, v in pairs]
    edf = pd.DataFrame({"src": [e[0] for e in und], "dst": [e[1] for e in und]})
    ds_edges = ray.data.from_pandas(edf).repartition(3)
    got = sorted(
        (r["v"], r["pagerank"])
        for r in pagerank_undirected_pairs(ds_pairs, iters=3).take_all()
    )
    exp = sorted(
        (r["v"], r["pagerank"])
        for r in pagerank(ds_edges, iters=3, mode="broadcast").take_all()
    )
    assert got == exp


def test_countmin_overestimates_and_bounds(ray_session):
    """CMS point estimates are NEVER below the true count (structural:
    every occurrence lands in each row's counter), and with a tiny
    width the collision overshoot stays within the e/width*N bound for
    the top terms (the self-verifying flag the driver query emits)."""
    import math

    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.sketches import countmin_query, countmin_sketch

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(40)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(5, 30)))
        for _ in range(300)
    ]
    ds = ray.data.from_pandas(pd.DataFrame({"text": texts})).repartition(4)

    from collections import Counter

    truth = Counter(t for txt in texts for t in txt.split())
    n_total = sum(truth.values())

    for width, depth in [(8, 4), (512, 3)]:
        sketch, n = countmin_sketch(ds, width=width, depth=depth)
        assert n == n_total
        est = countmin_query(sketch, vocab, width, depth)
        exact = np.array([truth[w] for w in vocab], dtype=np.int64)
        assert (est >= exact).all(), "CMS must never under-count"
        bound = math.ceil(math.e / width * n_total)
        frac_ok = float(((est <= exact + bound)).mean())
        # Markov guarantee is per-query >= 1 - e^-depth; with depth>=3
        # virtually all of a 40-term vocab must be in bound
        assert frac_ok >= 0.9, f"width={width}: only {frac_ok} in bound"


def test_inverted_index_hand_case(ray_session):
    """Tiny corpus with known postings: df/total_tf/argmax tie-break
    (max tf, ties -> lowest doc_id) and the bounded postings head."""
    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.inverted import inverted_index

    docs = ray.data.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "apple apple banana",      # apple tf=2
            "apple cherry",            # apple tf=1
            "banana banana banana",    # banana tf=3
            "apple apple cherry",      # apple tf=2 -> tie with doc 1
        ],
    })).repartition(2)
    out = {r["term"]: r for r in inverted_index(docs, head=2).take_all()}
    assert out["apple"]["df"] == 3
    assert out["apple"]["total_tf"] == 5
    # max tf=2 shared by docs 1 and 4 -> lowest doc_id wins
    assert out["apple"]["top_doc"] == 1
    assert out["apple"]["postings_head"] == "1,2"  # head=2 of [1,2,4]
    assert out["banana"]["top_doc"] == 3
    assert out["banana"]["df"] == 2
    assert out["cherry"]["postings_head"] == "2,4"


def test_inverted_index_matches_brute_force(ray_session):
    """Random corpus: distributed index equals a serial dict oracle."""
    import re
    from collections import Counter, defaultdict

    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.inverted import inverted_index

    rng = np.random.default_rng(13)
    vocab = [f"t{i}" for i in range(25)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(3, 40)))
             for _ in range(200)]
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(200), "text": texts})
    ).repartition(5)
    got = {r["term"]: r for r in inverted_index(docs, head=8).take_all()}

    postings = defaultdict(Counter)
    for i, txt in enumerate(texts):
        for tok in re.findall(r"[a-z0-9]+", txt.lower()):
            postings[tok][i] += 1
    assert sorted(got) == sorted(postings)
    for term, pc_ in postings.items():
        r = got[term]
        assert r["df"] == len(pc_)
        assert r["total_tf"] == sum(pc_.values())
        best = min(pc_, key=lambda d: (-pc_[d], d))
        assert r["top_doc"] == best, term
        head = ",".join(str(d) for d in sorted(pc_)[:8])
        assert r["postings_head"] == head, term


def test_r4_ops_survive_null_and_empty_text(ray_session):
    """The r4 text operators (inverted index, Gopher gate, CMS) must
    pass None/empty/whitespace text through without raising and produce
    the right degenerate outputs."""
    import pandas as pd

    import ray.data

    from file_analyzer_ray.stages.gopher import gopher_rules
    from file_analyzer_ray.stages.inverted import inverted_index
    from file_analyzer_ray.stages.sketches import countmin_sketch

    df = pd.DataFrame({"doc_id": [1, 2, 3, 4],
                       "text": [None, "", "   ", "only real row"]})
    ds = ray.data.from_pandas(df).repartition(2)

    idx = {r["term"]: r for r in inverted_index(ds).take_all()}
    assert sorted(idx) == ["only", "real", "row"]
    assert all(r["df"] == 1 and r["top_doc"] == 4 for r in idx.values())

    g = {r["doc_id"]: r for r in gopher_rules(ds).take_all()}
    assert len(g) == 4
    for d in (1, 2, 3):
        assert g[d]["n_words"] == 0
        assert g[d]["mean_word_len"] == 0.0
        assert not g[d]["keep"]
    assert g[4]["n_words"] == 3

    sketch, total = countmin_sketch(ds, width=64, depth=2)
    assert total == 3
    assert sketch.sum() == 3 * 2  # each token lands once per row
