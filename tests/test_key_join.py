"""``query_utils.key_join``: the broadcast branch reproduces the hash
branch (``Dataset.join``) row for row and schema for schema, every call
logs its decision, and the hash branch is sized to the session."""

from __future__ import annotations

import json
import logging

import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data

import file_analyzer_ray.query_utils as qu


def _left(kind):
    k = [1, 2, 2, 3, None, 7, 9] if kind == "int" else ["a", "b", "b", "c", None, "g", "i"]
    return pa.table(
        {
            "lk": pa.array(k, pa.int64() if kind == "int" else pa.string()),
            "lv": pa.array([10, 20, 21, 30, 40, 70, 90], pa.int64()),
        }
    )


def _right(kind, dup=False):
    k = [2, 3, 4, None, 9] if kind == "int" else ["b", "c", "d", None, "i"]
    if dup:
        k[1] = k[0]
    return pa.table(
        {
            "rk": pa.array(k, pa.int64() if kind == "int" else pa.string()),
            "rv": pa.array([0.5, 1.5, 2.5, 3.5, 4.5], pa.float64()),
            "rs": pa.array(["p", "q", "r", "s", "t"], pa.string()),
        }
    )


def _run(left: pa.Table, right: pa.Table, how: str, branch: str):
    lds = ray.data.from_arrow(left).repartition(3)
    rds = ray.data.from_arrow(right)
    if right.num_rows:  # repartition drops an empty block's schema
        rds = rds.repartition(2)
    est = 0 if branch == "broadcast" else qu._BROADCAST_MAX_BYTES + 1
    out = qu.key_join(lds, rds, on="lk", right_on="rk", how=how, broadcast_bytes=est)
    t = pa.concat_tables(
        [b for b in ray.get(out.to_arrow_refs()) if b.num_columns]
    )
    df = t.to_pandas()
    return t.schema.remove_metadata(), df.sort_values(
        list(df.columns), na_position="first"
    ).reset_index(drop=True)


def _records(caplog):
    return [
        json.loads(r.getMessage())
        for r in caplog.records
        if r.name == qu.__name__ and r.getMessage().startswith("{")
    ]


@pytest.mark.parametrize("how", ["inner", "left_semi", "left_anti"])
@pytest.mark.parametrize("kind", ["int", "str"])
def test_key_join_broadcast_equals_hash(ray_session, how, kind):
    """Null keys on both sides and keys missing from either side: both
    branches give the same rows and schema."""
    bs, bdf = _run(_left(kind), _right(kind), how, "broadcast")
    hs, hdf = _run(_left(kind), _right(kind), how, "hash")
    assert bs == hs
    pd.testing.assert_frame_equal(bdf, hdf)
    assert len(bdf) == {"inner": 4, "left_semi": 4, "left_anti": 3}[how]


@pytest.mark.parametrize("how", ["inner", "left_semi", "left_anti"])
@pytest.mark.parametrize("kind", ["int", "str"])
def test_key_join_broadcast_empty_right(ray_session, how, kind):
    """An empty right side. Ray 2.49's ``Dataset.join`` raises
    ArrowInvalid when either input has no rows, so the reference here
    is the Arrow join its aggregators run on each partition."""
    left, right = _left(kind), _right(kind).slice(0, 0)
    got_s, got = _run(left, right, how, "broadcast")
    exp = left.join(right, keys="lk", right_keys="rk", join_type=how.replace("_", " "))
    assert got_s == exp.schema
    assert len(got) == (len(left) if how == "left_anti" else 0)


def test_key_join_duplicate_right_key_takes_hash(ray_session, caplog):
    """``index_in`` returns the first match only, so an inner join
    whose right side repeats a key must not broadcast."""
    caplog.set_level(logging.INFO, logger=qu.__name__)
    left, right = _left("int"), _right("int", dup=True)
    got_s, got = _run(left, right, "inner", "broadcast")
    exp_s, exp = _run(left, right, "inner", "hash")
    assert got_s == exp_s
    pd.testing.assert_frame_equal(got, exp)
    assert (got["lk"] == 2).sum() == 4  # 2 left rows × 2 right rows
    recs = _records(caplog)
    assert recs[0]["branch"] == "hash" and recs[0]["broadcast_bytes"] == 0
    assert "reason" in recs[0]


def test_key_join_logs_one_decision_per_call(ray_session, caplog):
    caplog.set_level(logging.INFO, logger=qu.__name__)
    left, right = _left("int"), _right("int")
    bound = qu._BROADCAST_MAX_BYTES
    _run(left, right, "left_semi", "broadcast")
    _run(left, right, "left_semi", "hash")
    below, above = _records(caplog)
    assert below == {
        "op": "key_join", "how": "left_semi", "on": "lk",
        "broadcast_bytes": 0, "bound": bound,
        "branch": "broadcast", "num_partitions": None,
    }
    assert above["branch"] == "hash"
    assert above["broadcast_bytes"] == bound + 1 and above["bound"] == bound
    assert above["num_partitions"] == qu._join_partitions()


def test_join_partitions_fit_two_concurrent_joins(ray_session):
    """Two concurrent hash joins' aggregator ``memory`` requests fit
    the session's cluster; Ray's own per-aggregator estimate is the
    7 × partition size the sizing rule assumes."""
    from ray.data._internal.execution.operators.join import JoinOperator

    n = qu._join_partitions()
    block = ray.data.DataContext.get_current().target_max_block_size
    per_agg = JoinOperator._estimate_aggregator_memory_allocation(
        num_aggregators=n, num_partitions=n, partition_byte_size_estimate=block
    )
    assert per_agg == 7 * block
    res = ray.cluster_resources()
    assert 1 <= n <= res["CPU"]
    assert 2 * n * per_agg <= res["memory"]


def test_key_join_rejects_unknown_how(ray_session):
    ds = ray.data.from_arrow(_left("int"))
    with pytest.raises(ValueError):
        qu.key_join(ds, ds, on="lk", how="full_outer")
