"""``query_utils.actor_map``: the one actor-pool primitive. The pool
size rule is a pure function of the session's CPUs, each pool logs one
decision record, and both extraction paths finish in a 1-CPU session."""

from __future__ import annotations

import json
import logging
import os
import signal
import subprocess
import sys

import pyarrow as pa
import pytest

from test_extension_surface import SF_DIR

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "cpus,dataset_pool,shard_pool",
    [(1, (1, 0), (1, 0)), (2, (2, 1), (2, 1)), (4, (2, 1), (4, 1)),
     (8, (6, 1), (8, 1)), (32, (30, 1), (30, 1))],
)
def test_pool_size_rule(cpus, dataset_pool, shard_pool):
    from file_analyzer_ray.query_utils import _pool_size

    assert _pool_size(cpus) == dataset_pool
    assert _pool_size(cpus, streaming=False) == shard_pool


def _records(caplog):
    return [
        json.loads(r.getMessage())
        for r in caplog.records
        if r.name == "file_analyzer_ray.query_utils"
        and '"op": "actor_map"' in r.getMessage()
    ]


def _add_step_cls():
    class _AddOne:  # local: pickled by value, workers cannot import tests
        def __init__(self, step: int = 1):
            self.step = step

        def __call__(self, t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return t.set_column(0, "v", pc.add(t.column("v"), self.step))

    return _AddOne


def test_actor_map_logs_one_decision_per_pool(ray_session, caplog):
    import ray.data

    import file_analyzer_ray.query_utils as qu

    _AddOne = _add_step_cls()
    caplog.set_level(logging.INFO, logger=qu.__name__)
    ds = ray.data.from_arrow(pa.table({"v": list(range(10))}))
    out = qu.actor_map(ds, _AddOne, ctor_kwargs={"step": 2}, batch_size=4)
    assert sorted(out.to_pandas()["v"]) == list(range(2, 12))
    cpus = int(ray_session.cluster_resources()["CPU"])
    hi, per_actor = qu._pool_size(cpus)
    assert _records(caplog) == [{
        "op": "actor_map", "stage": "_AddOne", "cpus": cpus,
        "concurrency": [1, hi], "num_cpus": per_actor,
    }]


def test_registry_actor_stage_forwards_its_options(ray_session, caplog):
    """A registered actor stage's own ``map_batches`` options (here a
    fractional ``num_cpus`` default and a call-site ``concurrency``)
    reach ``map_batches`` through ``actor_map`` and win over the rule."""
    import ray.data

    import file_analyzer_ray.query_utils as qu
    from file_analyzer_ray.registry import build_pipeline, register_stage

    register_stage("test_add_step", _add_step_cls(), num_cpus=0.5,
                   zero_copy_batch=True)
    caplog.set_level(logging.INFO, logger=qu.__name__)
    ds = ray.data.from_arrow(pa.table({"v": list(range(10))}))
    out = build_pipeline(ds, [("test_add_step", {
        "fn_constructor_kwargs": {"step": 3}, "concurrency": 1,
    })])
    assert sorted(out.to_pandas()["v"]) == list(range(3, 13))
    (rec,) = _records(caplog)
    assert (rec["concurrency"], rec["num_cpus"]) == (1, 0.5)


def test_two_cpu_pools_keep_benchmark_sizes(ray_session, tmp_path,
                                            monkeypatch, caplog):
    """At the benchmark's 2 CPUs: the extraction pool is (1, 2) and the
    shard pool starts 2 actors."""
    import file_analyzer_ray.query_utils as qu
    import file_analyzer_ray.state.shards as sh
    from file_analyzer_ray.pipelines.extract import corpus_path, extract_pipeline

    monkeypatch.setattr(qu, "_session_cpus", lambda: 2)
    caplog.set_level(logging.INFO, logger=qu.__name__)
    src = corpus_path(200)
    extract_pipeline(src)  # lazy: sizing happens at plan build
    (rec,) = _records(caplog)
    assert (rec["stage"], rec["concurrency"], rec["num_cpus"]) == (
        "ExtractStage", [1, 2], 1)
    sh.shutdown_pool()
    try:
        sh.run_sharded(src, str(tmp_path / "out"), resume=False, keep_pool=True)
        assert len(sh._POOL_CACHE[1]) == 2
    finally:
        sh.shutdown_pool()


_ONE_CPU_CHILD = r"""
import json, os, sys

import numpy as np
import pyarrow.parquet as pq
import ray

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", object_store_memory=200 * 1024 * 1024)
import ray.data

ray.data.DataContext.get_current().enable_progress_bars = False
from file_analyzer_ray.corpus import docs_table
from file_analyzer_ray.pipelines.extract import extract_pipeline
from file_analyzer_ray.queries import QUERIES
from file_analyzer_ray.state.lineage import write_partitioned

tmp, sf = sys.argv[1], sys.argv[2]
src = os.path.join(tmp, "src")
os.makedirs(src)
for i in range(2):
    pq.write_table(docs_table(np.arange(i * 100, (i + 1) * 100)),
                   os.path.join(src, f"part-{i}.parquet"))
man = write_partitioned(extract_pipeline(src), os.path.join(tmp, "out"),
                        num_partitions=4)
clusters = QUERIES["extract_dedup_clusters"](sf).count()
print(json.dumps({"rows": sum(m["row_count"] for m in man),
                  "clusters": clusters}))
ray.shutdown()
"""


def test_one_cpu_session_extraction_completes(tmp_path):
    """A fresh 1-CPU session: the partitioned extraction and the
    extraction-backed dedup query both finish. An actor holding the
    only CPU starves the unfused read upstream of it, and both hang.
    The child runs in its own process group, killed whole on timeout."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CHILD, str(tmp_path), SF_DIR],
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("1-CPU extraction did not finish within 240 s")
    assert proc.returncode == 0, err[-2000:]
    rec = json.loads(out.strip().splitlines()[-1])
    assert rec["rows"] == 200
    assert rec["clusters"] > 0
