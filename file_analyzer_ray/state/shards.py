"""Shard-level checkpointed extraction: the shuffle-free scale path.

At 10^12-document scale the natural resume unit is the INPUT SHARD
(one storage fragment / parquet file): shards are stable across runs
and cluster sizes, every row of a shard is processed by exactly one
task, so a shard's output can be written and FENCED the moment it
finishes — mid-run crashes lose only in-flight shards, and nothing
about the plan requires an all-to-all exchange. This complements the
key-partitioned sink (state/lineage.py), which co-locates output by
``hash(doc_id)`` for downstream keyed consumption at the cost of one
shuffle; pipelines that only need resumable bulk extraction use this.

Layout:
    out_dir/shard-<stem>.parquet            (atomic tmp+rename)
    out_dir/shard-<stem>.manifest.json      (the fence, written last)
manifest = {shard, input_file_fingerprint (size + head/tail sha256 of
the INPUT shard file — resume compares this, so a regenerated input
with the same filename is re-processed, not skipped), output_fingerprint
(order-independent sha over the output (doc_id, content_hash) set —
the cross-parallelism identity check), row_count, span_count,
engine_version, run_meta}.

Ray shape: ``ray.util.ActorPool.map_unordered`` over the shard paths
— each pooled actor holds a ``ShardWorker`` with the fused
ExtractStage (automata compiled once per actor) and processes one
shard per call.
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from .. import __version__

# NOTE: no module-level ``ray``/``ray.data``/pandas import — this module
# is the actor-side dependency chain, and every worker process pays its
# import time at actor cold-start (measured ~0.9 s for ray.data+pandas
# on this box, ×30 contending actors ≈ 2 s of the timed job).

MANIFEST_SUFFIX = ".manifest.json"


def _shard_stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def completed_shards(out_dir: str) -> dict[str, dict]:
    """shard stem → manifest for every fenced shard."""
    done: dict[str, dict] = {}
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        if name.startswith("shard-") and name.endswith(MANIFEST_SUFFIX):
            try:
                with open(os.path.join(out_dir, name)) as f:
                    m = json.load(f)
                if os.path.exists(os.path.join(out_dir, m["data_file"])):
                    done[m["shard"]] = m
            except (json.JSONDecodeError, KeyError, OSError):
                continue  # torn manifest == not fenced
    return done


def input_file_fingerprint(path: str, probe: int = 1 << 20) -> str:
    """Fast fingerprint of an input shard FILE: size + sha256 of the
    first and last ``probe`` bytes. Mtime-free (stable across copies);
    head+tail probing keeps resume validation O(probe) per shard
    instead of re-reading 100 TB — parquet files carry their footer
    metadata (row counts, column stats) in the probed tail, so any
    regeneration that changes row content perturbs the tail bytes."""
    st = os.stat(path)
    h = hashlib.sha256()
    h.update(str(st.st_size).encode())
    with open(path, "rb") as f:
        h.update(f.read(probe))
        if st.st_size > probe:
            f.seek(max(probe, st.st_size - probe))
            h.update(f.read(probe))
    return h.hexdigest()


def content_fingerprint(doc_ids: list[str], hashes: list[str]) -> str:
    """Order-independent fingerprint of a (doc_id, content_hash) set:
    sum of per-row sha256 values mod 2^128. Stable across parallelism
    levels, batch boundaries and row order."""
    acc = 0
    mod = 1 << 128
    for d, h in zip(doc_ids, hashes):
        row = hashlib.sha256(d.encode() + b"\x00" + h.encode()).digest()[:16]
        acc = (acc + int.from_bytes(row, "little")) % mod
    return f"{acc:032x}"


class ShardWorker:
    """Actor: one input shard per call → extracted+scored output shard,
    atomically published and fenced. Returns the manifest row."""

    def __init__(self, out_dir: str, score: bool = True,
                 run_meta: dict | None = None,
                 fail_shards: frozenset[str] = frozenset()):
        from ..stages.extract import ExtractStage
        from .guard import validate_sink_dir

        # This worker is scheduled at num_cpus=1, but pyarrow's default
        # thread pool is cpu_count-wide — 30 such actors × 32 threads
        # oversubscribe the box ~30x and the parquet read of a 14 MB
        # shard measures 0.35 s threaded vs 0.026 s single-threaded
        # under that contention. Cap Arrow to the CPU this actor owns.
        pa.set_cpu_count(1)
        pa.set_io_thread_count(2)
        self.out_dir = validate_sink_dir(out_dir)
        self.stage = ExtractStage(score=score)
        self.run_meta = run_meta or {}
        self.fail_shards = fail_shards
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, batch: dict) -> pa.Table:
        rows = []
        for path in batch["item"]:
            stem = _shard_stem(path)
            if stem in self.fail_shards:
                raise RuntimeError(f"injected failure for shard {stem}")
            table = pq.read_table(path)
            out = self.stage(table)
            data_file = f"shard-{stem}.parquet"
            # per-call, not per-actor: a warm pooled worker (keep_pool)
            # outlives an out_dir that the caller deleted and recreated
            os.makedirs(self.out_dir, exist_ok=True)
            final = os.path.join(self.out_dir, data_file)
            tmp = final + f".tmp{os.getpid()}"
            pq.write_table(out, tmp)
            os.replace(tmp, final)
            manifest = {
                "shard": stem,
                "data_file": data_file,
                "input_file_fingerprint": input_file_fingerprint(path),
                "output_fingerprint": content_fingerprint(
                    out.column("doc_id").to_pylist(),
                    out.column("content_hash").to_pylist(),
                ),
                "row_count": out.num_rows,
                "span_count": int(
                    sum(out.column("n_spans").to_pylist())
                ),
                "engine_version": __version__,
                "run_meta": self.run_meta,
            }
            mfinal = os.path.join(self.out_dir, f"shard-{stem}{MANIFEST_SUFFIX}")
            mtmp = mfinal + f".tmp{os.getpid()}"
            with open(mtmp, "w") as f:
                json.dump(manifest, f, sort_keys=True)
            os.replace(mtmp, mfinal)  # the fence
            rows.append(
                {
                    "shard": stem,
                    "row_count": out.num_rows,
                    "span_count": manifest["span_count"],
                    "output_fingerprint": manifest["output_fingerprint"],
                }
            )
        return pa.Table.from_pylist(rows)


#: Process-global warm worker pool (Spark-executor analog): repeated
#: ``run_sharded(..., keep_pool=True)`` calls with identical worker
#: parameters reuse live actors instead of paying ~0.5-1 s of actor
#: spin-up per run. At most ONE pool is cached; a call with a different
#: key kills the old pool first. Default is still kill-per-run —
#: a cached num_cpus=1 × n pool would pin every CPU of a small test
#: session and deadlock later Dataset executions.
_POOL_CACHE: "tuple[tuple, list] | None" = None


def shutdown_pool() -> None:
    """Kill the cached warm pool (idempotent)."""
    global _POOL_CACHE
    if _POOL_CACHE is not None:
        import ray

        for a in _POOL_CACHE[1]:
            ray.kill(a)
        _POOL_CACHE = None


def run_sharded(
    src_dir: str,
    out_dir: str,
    *,
    score: bool = True,
    concurrency: int | tuple[int, int] | None = None,
    resume: bool = True,
    run_meta: dict | None = None,
    fail_shards: frozenset[str] = frozenset(),
    keep_pool: bool = False,
) -> dict:
    """Extract every parquet shard under ``src_dir`` into fenced output
    shards. Resume skips fenced shards BEFORE any read is scheduled
    (input pruning, not row filtering). Returns run metrics.

    Shards are driven through ``ShardWorker`` actors by
    ``ray.util.ActorPool.map_unordered`` — dynamic work-stealing
    balancing with none of the Dataset streaming executor's per-task
    scheduling cost, which measures ~40% of wall time for these
    sub-second shard tasks (81k vs 43k docs/s at 32 CPUs on the
    800k-doc corpus). ``concurrency`` is the actor count (a
    ``(min, max)`` tuple uses its max); the default is every CPU of
    the session on small hosts and all but two on larger ones. With
    ``keep_pool=True`` the pool is cached for the next call with the
    same parameters, keyed on the requested actor count — a resume of
    fewer shards than actors reuses the warm pool."""
    import glob as _glob

    import ray
    from ray.util import ActorPool

    from .guard import validate_sink_dir

    global _POOL_CACHE
    out_dir = validate_sink_dir(out_dir)
    shards = sorted(_glob.glob(os.path.join(src_dir, "*.parquet")))
    done = completed_shards(out_dir) if resume else {}

    def _is_done(p: str) -> bool:
        """Fenced AND the input file is byte-wise the same one the fence
        describes — a regenerated input shard with a reused filename is
        re-processed, never silently skipped."""
        m = done.get(_shard_stem(p))
        if m is None:
            return False
        return m.get("input_file_fingerprint") == input_file_fingerprint(p)

    todo = [p for p in shards if not _is_done(p)]
    n_skipped = len(shards) - len(todo)
    if not todo:
        return {"shards": 0, "rows": 0, "span_count": 0, "skipped": n_skipped}
    if concurrency is None:
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        # Use EVERY core as an actor on small hosts (measured: 8 CPUs /
        # 8 actors = 47k docs/s vs 31k at 6 actors — the driver's
        # dispatch loop is cheap enough to share a core); reserve 2
        # driver/system cores only on larger hosts. Never more actors
        # than CPUs: a num_cpus=1 actor that cannot be placed leaves
        # ActorPool waiting on it forever.
        concurrency = max(1, cpus if cpus <= 8 else cpus - 2)
    n_actors = concurrency[1] if isinstance(concurrency, tuple) else concurrency
    ctor_kwargs = {
        "out_dir": out_dir,
        "score": score,
        "run_meta": run_meta,
        "fail_shards": fail_shards,
    }
    key = (
        n_actors, out_dir, score,
        json.dumps(run_meta or {}, sort_keys=True),
        tuple(sorted(fail_shards)),
    )
    actors = None
    if keep_pool and _POOL_CACHE is not None and _POOL_CACHE[0] == key:
        actors = _POOL_CACHE[1]
    for attempt in range(2):
        if actors is None:
            shutdown_pool()
            worker_cls = ray.remote(num_cpus=1)(_PooledShardWorker)
            # a kept pool serves later full runs too: start it at the
            # requested size, not clipped to this call's shard count
            n = n_actors if keep_pool else min(n_actors, len(todo))
            actors = [worker_cls.remote(ctor_kwargs) for _ in range(n)]
        try:
            results = [
                row
                for rows in ActorPool(actors).map_unordered(
                    lambda a, p: a.run.remote(p), todo
                )
                for row in rows
            ]
            break
        except Exception as exc:
            # a failed run leaves no live pool behind
            for a in actors:
                ray.kill(a)
            _POOL_CACHE = None
            actors = None
            # a cached actor that died between runs: rebuild once, cold
            if attempt or not isinstance(exc, ray.exceptions.RayActorError):
                raise
    if keep_pool:
        _POOL_CACHE = (key, actors)
    else:
        for a in actors:
            ray.kill(a)
    return {
        "shards": len(results),
        "rows": sum(r["row_count"] for r in results),
        "span_count": sum(r["span_count"] for r in results),
        "skipped": n_skipped,
    }


class _PooledShardWorker:
    """ActorPool wrapper around :class:`ShardWorker` (one shard per
    call, returns manifest rows as plain dicts)."""

    def __init__(self, ctor_kwargs: dict):
        self.worker = ShardWorker(**ctor_kwargs)

    def run(self, path: str) -> list[dict]:
        return self.worker({"item": [path]}).to_pylist()

    def reset_caches(self) -> None:
        """Drop per-content result caches (score memo) but keep the
        expensive compiled state. Benchmarks that re-run the SAME input
        through a warm pool call this between runs so they measure
        steady-state compute, not a content-cache replay."""
        self.worker.stage._score_memo.clear()
