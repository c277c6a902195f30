"""Shard-level checkpointed extraction: resume-after-crash, content
identity across parallelism levels, fingerprint order-independence."""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq
import pytest


def _read_sorted(out_dir: str):
    tab = pq.read_table(sorted(glob.glob(os.path.join(out_dir, "shard-*.parquet"))))
    return tab.sort_by("doc_id")


def test_sharded_resume_after_injected_crash(ray_session, tmp_path):
    from file_analyzer_ray.pipelines.extract import corpus_path
    from file_analyzer_ray.state.shards import completed_shards, run_sharded

    src = corpus_path(6000)  # 3 shards of 2000
    out = str(tmp_path / "out")
    clean = str(tmp_path / "clean")
    shards = sorted(glob.glob(src + "/*.parquet"))
    assert len(shards) >= 3
    # Deterministic partial progress: one actor processes shards in
    # order and crashes on the LAST one, so every earlier shard is
    # already fenced when the job dies.
    victim = os.path.splitext(os.path.basename(shards[-1]))[0]

    with pytest.raises(Exception):
        run_sharded(src, out, fail_shards=frozenset({victim}), concurrency=1)
    done = completed_shards(out)
    assert victim not in done
    assert 0 < len(done) < len(shards)  # partial progress is fenced

    res = run_sharded(src, out)  # resume: only the missing shard runs
    assert res["shards"] == len(shards) - len(done)
    assert res["skipped"] == len(done)
    assert len(completed_shards(out)) == len(shards)

    run_sharded(src, clean, resume=False)
    assert _read_sorted(out).equals(_read_sorted(clean))

    # fully fenced → nothing executes
    res2 = run_sharded(src, out)
    assert res2["shards"] == 0 and res2["skipped"] == len(shards)


def test_sharded_fingerprints_stable_across_runs(ray_session, tmp_path):
    from file_analyzer_ray.pipelines.extract import corpus_path
    from file_analyzer_ray.state.shards import completed_shards, run_sharded

    src = corpus_path(4000)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_sharded(src, a, resume=False, concurrency=2)
    run_sharded(src, b, resume=False, concurrency=4)
    fa = {k: m["output_fingerprint"] for k, m in completed_shards(a).items()}
    fb = {k: m["output_fingerprint"] for k, m in completed_shards(b).items()}
    assert fa == fb  # identity independent of pool size / scheduling


def test_warm_pool_rerun_identical_and_cleaned_up(ray_session, tmp_path):
    """keep_pool=True: a second run with the same key reuses live
    workers and produces byte-identical output even after the caller
    deleted and recreated the out_dir between runs (the warm worker
    must not rely on init-time makedirs)."""
    import shutil

    from file_analyzer_ray.pipelines.extract import corpus_path
    from file_analyzer_ray.state import shards as sh

    src = corpus_path(4000)
    out = str(tmp_path / "warm")
    cold = str(tmp_path / "cold")
    try:
        sh.run_sharded(src, out, resume=False, concurrency=2, keep_pool=True)
        assert sh._POOL_CACHE is not None
        first = _read_sorted(out)
        shutil.rmtree(out)
        sh.run_sharded(src, out, resume=False, concurrency=2, keep_pool=True)
        assert first.equals(_read_sorted(out))
        sh.run_sharded(src, cold, resume=False, concurrency=2)  # no keep
        assert sh._POOL_CACHE is None  # default path killed the pool
        assert first.equals(_read_sorted(cold))
    finally:
        sh.shutdown_pool()


def test_warm_pool_rebuilds_after_actor_death(ray_session, tmp_path):
    """A cached pooled worker killed between runs (node loss analog)
    must not poison the pool: the next keep_pool run detects the dead
    actor, rebuilds cold, and still produces identical output."""
    import ray

    from file_analyzer_ray.pipelines.extract import corpus_path
    from file_analyzer_ray.state import shards as sh

    src = corpus_path(4000)
    out = str(tmp_path / "o")
    try:
        sh.run_sharded(src, out, resume=False, concurrency=2, keep_pool=True)
        first = _read_sorted(out)
        assert sh._POOL_CACHE is not None
        ray.kill(sh._POOL_CACHE[1][0])  # simulate losing a worker
        import shutil

        shutil.rmtree(out)
        sh.run_sharded(src, out, resume=False, concurrency=2, keep_pool=True)
        assert first.equals(_read_sorted(out))
    finally:
        sh.shutdown_pool()


def test_warm_pool_kept_across_single_shard_resume(ray_session, tmp_path):
    """A keep_pool resume with fewer unfenced shards than actors reuses
    the warm pool (keyed on the requested actor count) instead of
    cold-starting a smaller one."""
    from file_analyzer_ray.pipelines.extract import corpus_path
    from file_analyzer_ray.state import shards as sh

    src = corpus_path(4000)
    out = str(tmp_path / "o")
    try:
        sh.run_sharded(src, out, resume=False, concurrency=2, keep_pool=True)
        actors = list(sh._POOL_CACHE[1])
        assert len(actors) == 2
        victim = sorted(sh.completed_shards(out))[-1]
        os.remove(os.path.join(out, f"shard-{victim}{sh.MANIFEST_SUFFIX}"))
        res = sh.run_sharded(src, out, concurrency=2, keep_pool=True)
        assert res["shards"] == 1 and res["skipped"] >= 1
        assert sh._POOL_CACHE[1] == actors
    finally:
        sh.shutdown_pool()


def test_resume_reprocesses_regenerated_input_shard(ray_session, tmp_path):
    """A changed input shard with the SAME filename must NOT be skipped
    on resume (the fence records the input file's fingerprint)."""
    import shutil

    from file_analyzer_ray.pipelines.extract import corpus_path
    from file_analyzer_ray.state.shards import run_sharded

    src_orig = corpus_path(4000)
    src = str(tmp_path / "src")
    shutil.copytree(src_orig, src)
    out = str(tmp_path / "out")
    res1 = run_sharded(src, out, resume=False, concurrency=2)
    assert res1["shards"] > 0

    # regenerate one input shard with different content, same filename
    shards = sorted(glob.glob(src + "/*.parquet"))
    victim = shards[0]
    tab = pq.read_table(victim)
    pq.write_table(tab.slice(0, tab.num_rows // 2), victim)

    res2 = run_sharded(src, out)  # resume
    assert res2["shards"] == 1  # only the regenerated shard re-ran
    assert res2["skipped"] == len(shards) - 1
    assert res2["rows"] == tab.num_rows // 2


def test_content_fingerprint_order_independent():
    from file_analyzer_ray.state.shards import content_fingerprint

    ids = [f"doc{i}" for i in range(100)]
    hs = [f"h{i}" for i in range(100)]
    f1 = content_fingerprint(ids, hs)
    f2 = content_fingerprint(list(reversed(ids)), list(reversed(hs)))
    assert f1 == f2
    f3 = content_fingerprint(ids[:99], hs[:99])
    assert f1 != f3


def test_sharded_matches_pipeline_output(ray_session, tmp_path):
    """Shard path and Dataset-pipeline path produce identical rows."""
    import ray.data

    from file_analyzer_ray.pipelines.extract import corpus_path, extract_pipeline
    from file_analyzer_ray.state.shards import run_sharded

    src = corpus_path(4000)
    out = str(tmp_path / "sharded")
    run_sharded(src, out, resume=False)
    sharded = _read_sorted(out)
    piped = (
        extract_pipeline(src, score=True)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert sharded.num_rows == len(piped)
    assert sharded.column("content_hash").to_pylist() == piped["content_hash"].tolist()
    assert sharded.column("n_spans").to_pylist() == piped["n_spans"].tolist()
    assert (
        sharded.column("recommended_filename").to_pylist()
        == piped["recommended_filename"].tolist()
    )


def test_bucketed_layout_join_matches_duckdb(ray_session, tmp_path):
    """Write-once hash bucketing, then a bucket-local co-partitioned
    join with no exchange — result equals the DuckDB join."""
    import duckdb
    import ray.data

    from file_analyzer_ray.state.bucketed import (
        bucket_of,
        bucketed_join,
        write_bucketed,
    )

    sf = "/root/testdata/sf0.001"
    da = str(tmp_path / "orders_b")
    db = str(tmp_path / "cust_b")
    write_bucketed(
        ray.data.read_parquet(f"{sf}/orders.parquet", columns=["o_orderkey", "o_custkey"]),
        da, "o_custkey", num_buckets=8,
    )
    write_bucketed(
        ray.data.read_parquet(f"{sf}/customer.parquet", columns=["c_custkey", "c_mktsegment"]),
        db, "c_custkey", num_buckets=8,
    )
    # Arrow join semantics: the right key column is coalesced into the
    # left key (o_custkey), not duplicated the way pandas merge does.
    got = (
        bucketed_join(da, db, "o_custkey", "c_custkey", 8)
        .to_pandas()[["o_orderkey", "o_custkey", "c_mktsegment"]]
        .sort_values(["o_orderkey"])
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        f"""SELECT o_orderkey, c_custkey, c_mktsegment
            FROM read_parquet('{sf}/orders.parquet') o
            JOIN read_parquet('{sf}/customer.parquet') c ON o.o_custkey = c.c_custkey
            ORDER BY o_orderkey"""
    ).df()
    assert got["o_orderkey"].tolist() == exp["o_orderkey"].tolist()
    assert got["o_custkey"].tolist() == exp["c_custkey"].tolist()
    assert got["c_mktsegment"].tolist() == exp["c_mktsegment"].tolist()
    # bucketing is deterministic and stable
    assert bucket_of(42, 8) == bucket_of(42, 8)


def test_bucketed_layout_outer_joins_match_duckdb(ray_session, tmp_path):
    """left / full-outer variants of the bucket-local join equal the
    DuckDB joins — customers without orders (and vice versa) survive
    exchange-free."""
    import duckdb
    import ray.data

    from file_analyzer_ray.state.bucketed import bucketed_join, write_bucketed

    sf = "/root/testdata/sf0.001"
    da = str(tmp_path / "orders_b")
    db = str(tmp_path / "cust_b")
    write_bucketed(
        ray.data.read_parquet(f"{sf}/orders.parquet", columns=["o_orderkey", "o_custkey"]),
        da, "o_custkey", num_buckets=8,
    )
    write_bucketed(
        ray.data.read_parquet(f"{sf}/customer.parquet", columns=["c_custkey", "c_mktsegment"]),
        db, "c_custkey", num_buckets=8,
    )
    for how, sql_how in (("left", "LEFT JOIN"), ("outer", "FULL OUTER JOIN")):
        got = (
            bucketed_join(da, db, "o_custkey", "c_custkey", 8, how=how)
            .to_pandas()
            .sort_values(["o_custkey", "o_orderkey"], na_position="last")
            .reset_index(drop=True)
        )
        exp = duckdb.sql(
            f"""SELECT coalesce(o.o_custkey, c.c_custkey) AS o_custkey,
                       o.o_orderkey, c.c_mktsegment
                FROM read_parquet('{sf}/orders.parquet') o
                {sql_how} read_parquet('{sf}/customer.parquet') c
                  ON o.o_custkey = c.c_custkey
                ORDER BY 1, 2 NULLS LAST"""
        ).df()
        assert len(got) == len(exp), how
        assert got["o_custkey"].fillna(-1).tolist() == exp["o_custkey"].fillna(-1).tolist(), how
        assert (
            got["c_mktsegment"].fillna("-").tolist()
            == exp["c_mktsegment"].fillna("-").tolist()
        ), how
