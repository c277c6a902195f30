"""Per-layer probes for ``--trace 1``.

Each probe times a call into one module's public functions from here,
or reads Ray Data's own operator stats of the execution it timed, and
checks what the call returned. Probes run in the worker's Ray session;
the in-process ones (``stages.extract``, ``functions.scoring``, the
shard timings) run in the worker process itself.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

import gen
from checks import (
    CheckFailed,
    check_clusters,
    check_extracted,
    check_near_dups,
    check_sessions,
    check_totals,
)


def op_stats(ds) -> dict[str, dict]:
    """operator name → {wall_s, rows} from Ray Data's stats tree of an
    executed dataset. A union repeats its branches' cached ancestors, so
    the first entry of each name is kept."""
    out: dict[str, dict] = {}

    def walk(summary):
        for op in summary.operators_stats:
            if op.wall_time is None or op.operator_name in out:
                continue
            out[op.operator_name] = {"wall_s": op.wall_time["sum"],
                                     "rows": op.output_num_rows["sum"]}
        for parent in summary.parents:
            walk(parent)

    walk(ds._get_stats_summary())
    return out


def find_op(stats: dict[str, dict], needle: str) -> dict:
    """The one operator whose name contains ``needle``; a missing or
    ambiguous operator is an error, never a zero."""
    hits = [v for k, v in stats.items() if needle in k]
    if len(hits) != 1:
        raise RuntimeError(f"operator {needle!r}: {len(hits)} matches in {sorted(stats)}")
    return hits[0]


def _count_rows(counter_dir: str):
    """map_batches fn recording each batch's row count as a file, so
    the rows an execution extracts are counted across worker processes."""
    def count(batch: pa.Table) -> pa.Table:
        with open(os.path.join(counter_dir, uuid.uuid4().hex), "w") as f:
            f.write(str(batch.num_rows))
        return batch
    return count


class Tracer:
    def __init__(self, bench):
        self.b = bench
        self.rec = bench.record
        self.work = os.path.join(bench.work, "trace")
        self.extracted = None  # the pipeline probe's output, clustered by the dedup probe

    def _fresh(self, name: str) -> str:
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def _corpus_tables(self) -> list[pa.Table]:
        return [pq.read_table(p) for p in self.b.shard_files]

    # -- stages.extract / functions.scoring (one process) ---------------
    def extract_kernel(self) -> dict:
        from file_analyzer_ray.stages.extract import ExtractStage

        tables = self._corpus_tables()
        stage = ExtractStage(score=False)
        t0 = time.perf_counter()
        outs = [stage(t) for t in tables]
        dt = time.perf_counter() - t0
        out = pa.concat_tables(outs)
        check_extracted(out, self.rec, scored=False)
        return {
            "stages.extract.kernel_s": dt,
            "stages.extract.spans_out": sum(out.column("n_spans").to_pylist()),
            "stages.extract.payload_mb": sum(pa.compute.sum(pa.compute.binary_length(
                t.column("binary"))).as_py() for t in tables) / 1e6,
        }

    def scoring(self) -> dict:
        from file_analyzer_ray.functions import scoring
        from file_analyzer_ray.stages.extract import ExtractStage

        tables = self._corpus_tables()
        stage = ExtractStage(score=True)
        calls, spent = [0], [0.0]
        inner = scoring.score_doc

        def timed_score_doc(*a, **kw):
            t = time.perf_counter()
            try:
                return inner(*a, **kw)
            finally:
                spent[0] += time.perf_counter() - t
                calls[0] += 1

        scoring.score_doc = timed_score_doc
        try:
            out = pa.concat_tables([stage(t) for t in tables])
        finally:
            scoring.score_doc = inner
        check_extracted(out, self.rec, scored=True)
        return {
            "functions.scoring.score_s": spent[0],
            "functions.scoring.memo_hit_ratio": 1 - calls[0] / out.num_rows,
        }

    # -- state.shards ---------------------------------------------------
    def shards_pool(self) -> dict:
        """Cold minus warm run_sharded, then the fence check and the
        output fingerprint over the warm pass's sink."""
        shards = self.b.shards
        out = self.b.out
        times = []
        shards.shutdown_pool()
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            self.b.reset_pool_memo()
            t0 = time.perf_counter()
            res = shards.run_sharded(self.b.corpus, out, keep_pool=True)
            times.append(time.perf_counter() - t0)
            if res["rows"] != self.rec["n_docs"]:
                raise CheckFailed(f"run_sharded returned {res}")
        shards.shutdown_pool()

        t0 = time.perf_counter()
        done = shards.completed_shards(out)
        fresh = [done[os.path.splitext(os.path.basename(p))[0]]["input_file_fingerprint"]
                 == shards.input_file_fingerprint(p) for p in self.b.shard_files]
        fence_s = time.perf_counter() - t0
        if not all(fresh) or len(done) != len(self.b.shard_files):
            raise CheckFailed("a fenced shard's input fingerprint does not match its input")

        table = pa.concat_tables(
            [pq.read_table(os.path.join(out, m["data_file"])) for m in done.values()])
        ids = table.column("doc_id").to_pylist()
        hashes = table.column("content_hash").to_pylist()
        t0 = time.perf_counter()
        whole = shards.content_fingerprint(ids, hashes)
        fp_s = time.perf_counter() - t0
        # the fingerprint is a sum of per-row values mod 2^128
        parts = sum(int(m["output_fingerprint"], 16) for m in done.values()) % (1 << 128)
        if int(whole, 16) != parts:
            raise CheckFailed("corpus fingerprint != sum of the shard fingerprints")
        return {
            "state.shards.cold_start_s": times[0] - times[1],
            "state.shards.fence_check_s": fence_s,
            "state.shards.output_fingerprint_s": fp_s,
        }

    def shard_skew(self) -> dict:
        """Each shard through a ShardWorker in this process: the slowest
        shard's time over the median shard's."""
        from file_analyzer_ray.state.shards import ShardWorker

        out = self._fresh("shard_skew")
        worker = ShardWorker(out_dir=out, score=True)
        times, rows = [], {}
        for path in self.b.shard_files:
            t0 = time.perf_counter()
            res = worker({"item": [path]}).to_pylist()[0]
            times.append(time.perf_counter() - t0)
            rows[res["shard"]] = {"row_count": res["row_count"], "span_count": res["span_count"]}
        check_totals(list(rows.values()), self.rec, "shard")
        return {"state.shards.shard_s_max_over_median": max(times) / statistics.median(times)}

    # -- pipelines.extract / state.lineage ------------------------------
    def pipeline_and_sink(self) -> dict:
        lineage, pipeline = self.b.lineage, self.b.pipeline
        t0 = time.perf_counter()
        mat = pipeline.extract_pipeline(self.b.corpus).materialize()
        mat_s = time.perf_counter() - t0
        stats = op_stats(mat)
        self.extracted = None
        extracted = self.b.collect(mat)
        check_extracted(extracted, self.rec, scored=True)
        self.extracted = extracted

        out = self._fresh("partitioned")
        P = gen.NUM_PARTITIONS
        t0 = time.perf_counter()
        manifests = lineage.write_partitioned(mat, out, num_partitions=P)
        write_s = time.perf_counter() - t0
        check_totals(manifests, self.rec, "partition")
        rows = [m["row_count"] for m in manifests]
        exchange = mat.map_batches(
            lambda b: lineage.add_partition_id(b, P), batch_format="pyarrow").materialize()

        # resume: one partition unfenced; count the rows extracted again
        counter = self._fresh("counter")
        os.remove(os.path.join(out, "00005.manifest.json"))
        ds = pipeline.extract_pipeline(self.b.corpus).map_batches(
            _count_rows(counter), batch_format="pyarrow")
        again = lineage.write_partitioned(ds, out, num_partitions=P)
        if [m["partition_id"] for m in again] != [5]:
            raise CheckFailed(f"resume rewrote {[m['partition_id'] for m in again]}")
        extracted_rows = 0
        for name in os.listdir(counter):
            with open(os.path.join(counter, name)) as f:
                extracted_rows += int(f.read())
        return {
            "pipelines.extract.materialize_s": mat_s,
            "pipelines.extract.op_s.read": find_op(stats, "ReadParquet")["wall_s"],
            "pipelines.extract.op_s.extract": find_op(stats, "ExtractStage")["wall_s"],
            "state.lineage.write_s": write_s,
            "state.lineage.exchange_mb": exchange.size_bytes() / 1e6,
            "state.lineage.partition_rows_max_over_mean": max(rows) / statistics.mean(rows),
            "state.lineage.resume_useful_ratio": sum(m["row_count"] for m in again) / extracted_rows,
        }

    # -- query_utils / stages.text_dedup / stages.dedup -----------------
    def reads(self) -> dict:
        from file_analyzer_ray.query_utils import read_parquet_clean

        out = {}
        for table in ("events", "documents"):
            path = os.path.join(self.b.tables, f"{table}.parquet")
            t0 = time.perf_counter()
            n = read_parquet_clean(path).materialize().count()
            out[f"query_utils.read_s.{table}"] = time.perf_counter() - t0
            if n != pq.read_metadata(path).num_rows:
                raise CheckFailed(f"{table}: read {n} rows")
        return out

    def sessionize(self) -> dict:
        ds = self.b.queries["events_sessionize"](self.b.tables).materialize()
        stats = op_stats(ds)
        check_sessions(self.b.collect(ds), self.rec)
        return {
            "query_utils.sort_s.events_sessionize":
                find_op(stats, "SortMap")["wall_s"] + find_op(stats, "SortReduce")["wall_s"],
            "query_utils.side_channel_rows.events_sessionize":
                find_op(stats, "RepartitionSplit")["rows"],
        }

    def text_dedup(self) -> dict:
        from file_analyzer_ray.functions.hashing import (
            char_shingle_hashes,
            char_shingle_hashes_batch,
        )
        from file_analyzer_ray.query_utils import read_parquet_clean
        from file_analyzer_ray.stages import text_dedup

        def docs():
            return read_parquet_clean(os.path.join(self.b.tables, "documents.parquet"),
                                      columns=["doc_id", "text"], override_num_blocks=8)

        n = len(self.rec["texts"])
        t0 = time.perf_counter()
        pairs = self.b.collect(text_dedup.minhash_near_dup_pairs(docs(), threshold=0.8, input_rows=n))
        dt = time.perf_counter() - t0
        check_near_dups(pairs, self.rec)
        cands = self.b.collect(text_dedup._lsh_candidate_pairs(
            docs(), lambda t: char_shingle_hashes(t, 5), 0.8,
            batch_hash_fn=lambda ts: char_shingle_hashes_batch(ts, 5)))
        distinct = len(set(zip(cands.column("doc_id_a").to_pylist(),
                               cands.column("doc_id_b").to_pylist())))
        return {
            "stages.text_dedup.s": dt,
            "stages.text_dedup.candidate_pairs": distinct,
            "stages.text_dedup.verify_yield": pairs.num_rows / distinct if distinct else 1.0,
        }

    def dedup(self) -> dict:
        import ray.data

        from file_analyzer_ray.stages.dedup import exact_dedup_clusters

        if self.extracted is None:
            raise RuntimeError("no extracted corpus to cluster")
        proj = ray.data.from_arrow(self.extracted.select(["doc_id", "content_hash"]))
        t0 = time.perf_counter()
        clusters = self.b.collect(exact_dedup_clusters(proj, input_rows=self.rec["n_docs"]))
        dt = time.perf_counter() - t0
        check_clusters(clusters, self.rec)
        return {"stages.dedup.clusters_s": dt}

    def round(self) -> None:
        op = self.b.op
        op("trace.extract_kernel", self.extract_kernel)
        op("trace.scoring", self.scoring)
        op("trace.shard_skew", self.shard_skew)
        op("trace.shards_pool", self.shards_pool)
        op("trace.pipeline_and_sink", self.pipeline_and_sink)
        op("trace.reads", self.reads)
        op("trace.sessionize", self.sessionize)
        op("trace.text_dedup", self.text_dedup)
        op("trace.dedup", self.dedup)
