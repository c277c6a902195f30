"""``query_utils.gather`` (the one driver pull of a bounded Dataset)
and ``_merge_partials`` (the windowed↔in-process merge switch)."""

from __future__ import annotations

import json
import logging

import pandas as pd
import pyarrow as pa


def _frames(n_blocks: int = 6, rows: int = 50) -> "list[pd.DataFrame]":
    return [
        pd.DataFrame({
            "k": [(b * rows + i) % 7 for i in range(rows)],
            "s": [f"v{b}-{i}" for i in range(rows)],
            "x": [float(b * rows + i) / 3 for i in range(rows)],
        })
        for b in range(n_blocks)
    ]


def test_gather_equals_take_all_over_many_blocks(ray_session):
    import ray
    import ray.data

    from file_analyzer_ray.query_utils import gather

    ds = ray.data.from_pandas(_frames()).materialize()
    assert ds.num_blocks() > 1
    t = gather(ds)
    assert t.to_pylist() == ds.take_all()
    # pandas-born blocks carry a b'pandas' blob; the gather drops it
    raw = ray.get(ds.to_arrow_refs())
    assert any(b.schema.metadata for b in raw)
    assert t.schema.metadata is None


def test_gather_of_empty_input_is_the_typed_empty_table(ray_session):
    import ray.data

    from file_analyzer_ray.query_utils import gather

    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])
    ds = ray.data.from_pandas(_frames())

    # every block filtered empty
    empty = ds.map_batches(
        lambda df: df[df["k"] < 0], batch_format="pandas", batch_size=None
    )
    assert gather(empty).num_rows == 0

    # a partial that returns an untyped frame for every batch
    untyped = ds.map_batches(
        lambda df: pd.DataFrame(), batch_format="pandas", batch_size=None
    )
    assert gather(untyped, schema).equals(schema.empty_table())
    assert gather(untyped).num_columns == 0


def _decisions(caplog) -> "list[dict]":
    """The merge-switch records (every record on this logger is JSON)."""
    recs = [json.loads(r.getMessage()) for r in caplog.records
            if r.name == "file_analyzer_ray.query_utils"]
    return [r for r in recs if r["op"] == "merge_partials"]


def test_merge_switch_logs_one_record_per_call(ray_session, caplog):
    import ray.data
    from ray.data.aggregate import Sum

    from file_analyzer_ray.query_utils import _preagg_native

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(n=1).groupby("k", as_index=False).agg(
            x=("x", "sum"), n=("n", "sum")
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": df["k"], "n": df["sum(n)"].astype("int64")})

    ds = ray.data.from_pandas(_frames())
    out = {}
    caplog.set_level(logging.INFO, logger="file_analyzer_ray.query_utils")
    for label, rows, threshold in (
        ("windowed", 300, 0), ("in_process", 300, 10**6),
        ("unknown_rows", None, 0),
    ):
        caplog.clear()
        res = _preagg_native(
            ds, ["k"], partial, [Sum("x"), Sum("n")], finalize,
            input_rows=rows, windowed_threshold=threshold,
        )
        (rec,) = _decisions(caplog)
        assert rec["input_rows"] == rows and rec["threshold"] == threshold
        out[label] = (rec["branch"], res.to_pandas().sort_values("k"))
    assert out["windowed"][0] == "windowed"
    assert out["in_process"][0] == "in_process"
    assert out["unknown_rows"][0] == "in_process"
    for _, df in out.values():
        assert df["n"].tolist() == [43, 43, 43, 43, 43, 43, 42]


def test_exact_dedup_without_row_count_merges_in_process(ray_session, caplog):
    import ray.data

    from file_analyzer_ray.stages.dedup import exact_dedup_clusters

    docs = ray.data.from_pandas([
        pd.DataFrame({"doc_id": [f"d{b}{i}" for i in range(4)],
                      "content_hash": ["h1", "h2", f"u{b}", "h1"]})
        for b in range(3)
    ])
    caplog.set_level(logging.INFO, logger="file_analyzer_ray.query_utils")
    got = {}
    for rows, threshold in ((None, 0), (12, 0)):
        caplog.clear()
        res = exact_dedup_clusters(
            docs, merge_threshold=threshold, input_rows=rows
        )
        (rec,) = _decisions(caplog)
        got[rec["branch"]] = {
            r["content_hash"]: (r["cluster_size"], list(r["member_ids"]))
            for r in res.take_all()
        }
    assert set(got) == {"in_process", "windowed"}
    assert got["in_process"] == got["windowed"]
    assert got["in_process"]["h1"] == (
        6, ["d00", "d03", "d10", "d13", "d20", "d23"]
    )
