"""Benchmark worker: owns the Ray session and runs one workload.

Started by ``run.py`` as a child process. Protocol lines (one JSON
object each) go to the file descriptor named by ``--proto-fd``; the
worker's own stdout is pointed at stderr before anything is imported,
so nothing the program or Ray prints can reach the result stream.

Events: ``setup_done``; ``begin`` {op, deadline_s}; ``end`` {op, ok,
check_failed, samples, error}; ``done``. ``run.py`` aggregates samples,
enforces the deadlines and reaps processes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import gen
from checks import (
    CheckFailed,
    check_dedup_clusters,
    check_extracted,
    check_near_dups,
    check_resume,
    check_sessions,
    check_shard_manifests,
    check_totals,
    read_dir,
    snapshot,
)

NUM_CPUS = 2
QUERY_NAMES = ["events_sessionize", "docs_minhash_near_dup", "extract_dedup_clusters"]
OP_DEADLINE_S = 60.0


def _warm_worker_fn() -> None:
    import file_analyzer_ray.queries  # noqa: F401 -- the import is the warm-up

    time.sleep(0.3)  # hold this worker, so each call lands on its own



class Proto:
    def __init__(self, fd: int):
        self.f = os.fdopen(fd, "w", buffering=1)

    def emit(self, ev: str, **kw) -> None:
        self.f.write(json.dumps({"ev": ev, **kw}) + "\n")
        self.f.flush()


class Bench:
    """State of one run: inputs, record, sink directories, program
    modules (imported after Ray is up)."""

    def __init__(self, args, proto: Proto):
        self.args = args
        self.proto = proto
        self.prof = gen.PROFILES[args.workload]
        self.inputs, self.record = gen.inputs(args.workload, args.seed, args.input_dir)
        self.corpus = os.path.join(self.inputs, "corpus")
        self.tables = os.path.join(self.inputs, "tables")
        self.shard_files = sorted(
            os.path.join(self.corpus, f) for f in os.listdir(self.corpus) if f.endswith(".parquet")
        )
        self.work = args.work_dir
        self.out = os.path.join(self.work, "sink")
        self.full = None  # the last full pass's output table

    # -- Ray ----------------------------------------------------------
    def start_ray(self) -> None:
        import pyarrow as pa
        import ray

        pa.set_cpu_count(NUM_CPUS)
        pa.set_io_thread_count(NUM_CPUS)
        ray.init(
            address="local", num_cpus=NUM_CPUS, include_dashboard=False,
            logging_level="ERROR", object_store_memory=512 * 2**20,
            _temp_dir=self.args.ray_dir,
            # keep idle task workers alive while a shard pool holds every
            # CPU: the default limit (one per CPU) kills them, and the
            # next query would time worker start-up
            _system_config={"num_workers_soft_limit": 2 * NUM_CPUS},
        )
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        self.ray = ray
        self.warm_task = ray.remote(num_cpus=1)(_warm_worker_fn)
        from file_analyzer_ray import queries
        from file_analyzer_ray.pipelines import extract as pipeline
        from file_analyzer_ray.state import lineage, shards

        self.ray, self.queries, self.pipeline = ray, queries.QUERIES, pipeline
        self.lineage, self.shards = lineage, shards
        self.warm_up()

    # -- operations ---------------------------------------------------
    def op(self, name: str, fn) -> None:
        """Run ``fn`` as one operation: it returns {metric: sample};
        an exception or a failed check counts the operation failed."""
        self.proto.emit("begin", op=name, deadline_s=OP_DEADLINE_S)
        ok, check_failed, samples, err = True, False, {}, None
        t0 = time.perf_counter()
        try:
            samples = fn() or {}
        except CheckFailed as exc:
            ok, check_failed, err = False, True, str(exc)
        except Exception as exc:  # the run continues; the op is failed
            ok, err = False, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        print(f"[bench] {time.monotonic():.2f} {name} {'ok' if ok else 'FAILED: ' + err} "
              f"{time.perf_counter() - t0:.2f}s {json.dumps(samples)}", file=sys.stderr)
        self.proto.emit("end", op=name, ok=ok, check_failed=check_failed, samples=samples, error=err)
        self.settle()

    def settle(self, limit_s: float = 30.0) -> None:
        """Untimed, between operations: wait until every CPU that no
        kept shard pool holds is free again. A finished Dataset's actor
        pool can keep its CPU until this process's garbage collector drops
        the pool's handle, and the next operation would time that wait."""
        t0 = time.monotonic()
        pool = self.shards._POOL_CACHE
        want = NUM_CPUS - (len(pool[1]) if pool else 0)  # a kept pool holds 1 CPU per actor
        collected = False
        while self.ray.available_resources().get("CPU", 0) < want:
            waited = time.monotonic() - t0
            if waited > limit_s:
                print(f"[bench] CPUs still held after {limit_s}s", file=sys.stderr)
                return
            if waited > 0.3 and not collected:
                gc.collect()
                collected = True
            time.sleep(0.02)
        if collected:
            print(f"[bench] {time.monotonic():.2f} waited {time.monotonic() - t0:.2f}s and "
                  "collected garbage for free CPUs", file=sys.stderr)

    def warm_up(self) -> None:
        """Untimed, in set-up: one task worker per CPU with the program
        imported, one sessionize pass and, on the partitioned path, one
        extraction pass. The first run of each in a process costs 1-2 s
        more than later ones; the other operations show no such cost."""
        self.ray.get([self.warm_task.remote() for _ in range(NUM_CPUS)])
        try:
            self.collect(self.queries["events_sessionize"](self.tables))
            if self.prof.path == "partitioned":
                self.lineage.write_partitioned(
                    self.pipeline.extract_pipeline(self.corpus),
                    os.path.join(self.work, "warm-up"), num_partitions=gen.NUM_PARTITIONS,
                )
        except Exception:  # the timed operation will fail and count it
            traceback.print_exc(file=sys.stderr)
        self.settle()

    def collect(self, ds):
        import pyarrow as pa

        return pa.concat_tables(self.ray.get(ds.to_arrow_refs()))

    # sharded path: state.shards.run_sharded -> shard-*.parquet + manifests
    def reset_pool_memo(self) -> None:
        """Empty the score memo of a warm pool, so that a timed pass
        scores content instead of replaying the previous pass."""
        cached = self.shards._POOL_CACHE
        if cached is not None:
            self.ray.get([a.reset_caches.remote() for a in cached[1]])

    def _shard_manifests(self) -> dict[str, dict]:
        out = {}
        for name in os.listdir(self.out):
            if name.startswith("shard-") and name.endswith(".manifest.json"):
                with open(os.path.join(self.out, name)) as f:
                    m = json.load(f)
                out[m["shard"]] = m
        return out

    def _sharded_pass(self) -> tuple[float, dict]:
        self.reset_pool_memo()
        t0 = time.perf_counter()
        res = self.shards.run_sharded(self.corpus, self.out, keep_pool=True)
        return time.perf_counter() - t0, res

    def sharded_extract(self) -> dict:
        self.full = None
        self.shards.shutdown_pool()
        shutil.rmtree(self.out, ignore_errors=True)
        dt, res = self._sharded_pass()
        if res["rows"] != self.record["n_docs"] or res["skipped"] != 0:
            raise CheckFailed(f"run_sharded returned {res}")
        check_shard_manifests(self._shard_manifests(), self.record)
        self.full = read_dir(self.out, "shard-")
        check_extracted(self.full, self.record, scored=True)
        return {"extract.docs_per_s": self.record["n_docs"] / dt}

    def resume_stem(self) -> str:
        """The resume subset: the last shard only, fewer unfenced shards
        than the pool has actors."""
        return sorted(self.record["shards"])[-1]

    def sharded_resume(self) -> dict:
        if self.full is None:
            raise RuntimeError("no full pass to resume")
        stem = self.resume_stem()
        manifest = f"shard-{stem}.manifest.json"
        os.remove(os.path.join(self.out, manifest))
        before = snapshot(self.out)
        dt, res = self._sharded_pass()
        if res["shards"] != 1 or res["rows"] != len(self.record["shards"][stem]):
            raise CheckFailed(f"resume of {stem} returned {res}")
        check_resume(before, snapshot(self.out), {manifest: f"shard-{stem}.parquet"},
                     self.full, read_dir(self.out, "shard-"))
        check_shard_manifests(self._shard_manifests(), self.record)
        return {"resume_s": dt}

    # partitioned path: extract_pipeline -> lineage.write_partitioned
    RESUME_PARTITION = 5

    def _partitioned_pass(self):
        t0 = time.perf_counter()
        manifests = self.lineage.write_partitioned(
            self.pipeline.extract_pipeline(self.corpus), self.out,
            num_partitions=gen.NUM_PARTITIONS,
        )
        return time.perf_counter() - t0, manifests

    def partitioned_extract(self) -> dict:
        self.full = None
        shutil.rmtree(self.out, ignore_errors=True)
        dt, manifests = self._partitioned_pass()
        if sorted(m["partition_id"] for m in manifests) != list(range(gen.NUM_PARTITIONS)):
            raise CheckFailed(f"wrote partitions {sorted(m['partition_id'] for m in manifests)}")
        check_totals(manifests, self.record, "partition")
        self.full = read_dir(self.out, "part-")
        check_extracted(self.full, self.record, scored=True)
        return {"extract.docs_per_s": self.record["n_docs"] / dt}

    def partitioned_resume(self) -> dict:
        if self.full is None:
            raise RuntimeError("no full pass to resume")
        pid = self.RESUME_PARTITION
        manifest = f"{pid:05d}.manifest.json"
        os.remove(os.path.join(self.out, manifest))
        before = snapshot(self.out)
        dt, manifests = self._partitioned_pass()
        if [m["partition_id"] for m in manifests] != [pid]:
            raise CheckFailed(f"resume rewrote partitions {[m['partition_id'] for m in manifests]}")
        check_resume(before, snapshot(self.out), {manifest: f"part-{pid:05d}.parquet"},
                     self.full, read_dir(self.out, "part-"))
        return {"resume_s": dt}

    # queries
    QUERY_CHECKS = {
        "events_sessionize": check_sessions,
        "docs_minhash_near_dup": check_near_dups,
        "extract_dedup_clusters": check_dedup_clusters,
    }

    def query(self, name: str) -> dict:
        t0 = time.perf_counter()
        table = self.collect(self.queries[name](self.tables))
        dt = time.perf_counter() - t0
        self.QUERY_CHECKS[name](table, self.record)
        return {f"q.{name}_s": dt}

    def round(self) -> None:
        if self.prof.path == "sharded":
            self.op("extract", self.sharded_extract)
            self.op("resume", self.sharded_resume)
            # a warm num_cpus=1 pool holds every CPU of this session;
            # Dataset executions would wait on it forever
            self.shards.shutdown_pool()
            self.settle()
        else:
            self.op("extract", self.partitioned_extract)
            self.op("resume", self.partitioned_resume)
        for name in QUERY_NAMES:
            self.op(f"q.{name}", lambda n=name: self.query(n))


def run(args) -> None:
    proto = Proto(args.proto_fd)
    bench = Bench(args, proto)
    os.makedirs(bench.work, exist_ok=True)
    bench.start_ray()
    proto.emit("setup_done")
    t_start = time.monotonic()
    rounds: list[float] = []
    if args.trace:
        import layers

        probe = layers.Tracer(bench)
        while not rounds or time.monotonic() - t_start + statistics.median(rounds) <= args.seconds:
            t0 = time.monotonic()
            probe.round()
            rounds.append(time.monotonic() - t0)
    else:
        while not rounds or time.monotonic() - t_start + statistics.median(rounds) <= args.seconds:
            t0 = time.monotonic()
            bench.round()
            rounds.append(time.monotonic() - t0)
    bench.shards.shutdown_pool()
    bench.ray.shutdown()
    proto.emit("done", rounds=len(rounds))


def main() -> None:
    # stdout belongs to run.py's result line: everything printed here goes to stderr
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.PROFILES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--proto-fd", type=int, required=True)
    ap.add_argument("--input-dir", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--ray-dir", required=True)
    run(ap.parse_args())


if __name__ == "__main__":
    main()
