"""Resumable partitioned Parquet sink with per-partition lineage
manifests.

North-rule requirement: "resumable with per-partition lineage +
metrics". Design (SURVEY.md §4 checkpoint/resume):

- output partition = ``hash(doc_id) % P`` (stable across reruns — the
  hash is sha256 of the doc_id string, never Python's salted ``hash``)
- each partition is published and fenced through state/guard.py:
  ``part-<pid:05d>.parquet`` by ``guard.publish`` (tmp file, then an
  atomic rename), then ``<pid:05d>.manifest.json`` by ``guard.fence``,
  written last (a partition without a fence is incomplete and is redone)
- the manifest carries lineage + metrics:
  ``{partition_id, num_partitions, data_file, output_fingerprint
  (guard.content_fingerprint over the partition's (doc_id,
  content_hash) rows — the same order-independent sum the shard sink
  records), row_count, span_count, engine_version, run_meta}`` — the
  Ray-native analog of the reference's artifact manifest
  (src/core/artifact_guard.py:125-186: created/owner/git_commit/
  ci_job/pid/context)
- resume = list fenced manifests → filter those partitions out of the
  input → process only the rest. A fence written with another
  ``num_partitions`` describes another layout: the call raises rather
  than mixing the two. Rows are sorted by doc_id inside a partition so
  a resumed run's output is content-identical to a clean run's.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from .. import __version__
from ..functions.hashing import stable_u64
from ..query_utils import read_parquet_clean
from .guard import (MANIFEST_SUFFIX, content_fingerprint, fence, fenced,
                     publish, validate_sink_dir)


def partition_of(doc_id: str, num_partitions: int) -> int:
    return stable_u64(doc_id.encode(), b"part:") % num_partitions


def add_partition_id(batch: pa.Table, num_partitions: int) -> pa.Table:
    pids = [
        partition_of(d, num_partitions) for d in batch.column("doc_id").to_pylist()
    ]
    if "partition_id" in batch.column_names:
        batch = batch.drop_columns(["partition_id"])
    return batch.append_column("partition_id", pa.array(pids, pa.int32()))


def completed_partitions(out_dir: str) -> dict[int, dict]:
    """partition_id → manifest for every fenced (complete) partition."""
    return {int(m["partition_id"]): m for m in fenced(out_dir) if "partition_id" in m}


class PartitionWriter:
    """``map_groups`` callable: writes one partition of a
    ``num_partitions``-way layout atomically, returns its manifest row.
    ``fail_partitions`` injects crashes for resume tests."""

    def __init__(self, out_dir: str, run_meta: dict | None = None,
                 fail_partitions: frozenset[int] = frozenset(),
                 num_partitions: int = 32):
        self.out_dir = validate_sink_dir(out_dir)
        self.num_partitions = num_partitions
        self.run_meta = run_meta or {}
        self.fail_partitions = fail_partitions

    def __call__(self, group: pa.Table) -> pa.Table:
        pid = int(group.column("partition_id")[0].as_py())
        if pid in self.fail_partitions:
            raise RuntimeError(f"injected failure for partition {pid}")
        # Deterministic partition content: sort rows by doc_id.
        group = group.sort_by("doc_id")
        ids = group.column("doc_id").to_pylist()
        hashes = (group.column("content_hash").to_pylist()
                  if "content_hash" in group.column_names else [""] * len(ids))
        span_count = 0
        if "n_spans" in group.column_names:
            span_count = int(sum(group.column("n_spans").to_pylist()))
        data_file = f"part-{pid:05d}.parquet"
        os.makedirs(self.out_dir, exist_ok=True)
        publish(os.path.join(self.out_dir, data_file),
                lambda tmp: pq.write_table(group, tmp))
        row = {
            "partition_id": pid,
            "row_count": group.num_rows,
            "span_count": span_count,
            "output_fingerprint": content_fingerprint(ids, hashes),
        }
        fence(self.out_dir, f"{pid:05d}{MANIFEST_SUFFIX}", {
            **row,
            "num_partitions": self.num_partitions,
            "data_file": data_file,
            "engine_version": __version__,
            "run_meta": self.run_meta,
        })
        return pa.Table.from_pylist([row])


def write_partitioned(
    ds: "ray.data.Dataset",
    out_dir: str,
    num_partitions: int = 32,
    run_meta: dict | None = None,
    resume: bool = True,
    fail_partitions: frozenset[int] = frozenset(),
) -> list[dict]:
    """Write ``ds`` (must carry ``doc_id``) as ``num_partitions`` atomic
    parquet partitions + manifests; skips already-fenced partitions when
    resuming. Returns the manifest rows written this run. The sink URI
    is validated at construction (guard.py PathGuard analog), and
    ``ValueError`` is raised, resuming or not, when ``out_dir`` holds
    fences of another ``num_partitions``."""
    out_dir = validate_sink_dir(out_dir)
    done = completed_partitions(out_dir)
    found = {m.get("num_partitions") for m in done.values()}
    if found - {num_partitions}:
        raise ValueError(
            f"{out_dir} holds partitions fenced with num_partitions="
            f"{sorted(found, key=str)}; this call asks for num_partitions="
            f"{num_partitions}: write to a fresh directory or remove the old output"
        )
    if not resume:
        done = {}
    if set(range(num_partitions)) <= set(done):
        return []  # everything fenced: nothing to execute at all
    parted = ds.map_batches(
        lambda b: add_partition_id(b, num_partitions), batch_format="pyarrow"
    )
    if done:
        done_keys = frozenset(done)
        parted = parted.map_batches(
            lambda b: b.filter(
                pa.array([p not in done_keys for p in b.column("partition_id").to_pylist()])
            ),
            batch_format="pyarrow",
        )
    writer = PartitionWriter(out_dir, run_meta, fail_partitions, num_partitions)

    def write_partition(group: pa.Table) -> pa.Table:
        return writer(group)

    result = parted.groupby("partition_id").map_groups(
        write_partition, batch_format="pyarrow"
    )
    return result.take_all()


def read_partitioned(out_dir: str) -> "ray.data.Dataset":
    return read_parquet_clean(out_dir, file_extensions=["parquet"])
