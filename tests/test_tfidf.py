"""TF-IDF top-terms vs a DuckDB oracle over the same parquet (same
oracle-grade evidence as the driver's ✓SQL rows, run in-repo because
the driver registry is capped at 50 entries)."""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"

ORACLE = """
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[A-Za-z0-9]+')) AS term
  FROM documents
), tf AS (
  SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2
), df AS (
  SELECT term, count(*) AS df FROM tf GROUP BY 1
), n AS (
  SELECT count(*) AS n FROM documents
), scored AS (
  SELECT tf.doc_id, tf.term,
         tf.tf * ln(CAST(n.n AS DOUBLE) / df.df) AS tfidf
  FROM tf JOIN df USING (term), n
), ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY doc_id ORDER BY tfidf DESC, term
  ) AS term_rank FROM scored
)
SELECT doc_id, term, tfidf, term_rank FROM ranked WHERE term_rank <= 3
"""


def test_tfidf_matches_duckdb_oracle(ray_session):
    import pyarrow.parquet as pq

    import ray.data

    from file_analyzer_ray.stages.tfidf import tfidf_top_terms

    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    docs = ray.data.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=4,
    )
    got = (
        tfidf_top_terms(docs, n_docs=n_docs, k=3)
        .to_pandas()
        .sort_values(["doc_id", "term_rank"])
        .reset_index(drop=True)
    )

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    exp = (
        con.execute(ORACLE).df()
        .sort_values(["doc_id", "term_rank"])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got.astype({"doc_id": "int64", "term_rank": "int64"}),
        exp.astype({"doc_id": "int64", "term_rank": "int64"}),
        check_exact=False,
        rtol=1e-9,
    )


def test_tfidf_broadcast_equals_join(ray_session, monkeypatch):
    """The idf-broadcast path (the default at bounded vocab) and the
    distributed-join path must emit identical rows."""
    import pyarrow.parquet as pq

    import ray.data

    import file_analyzer_ray.query_utils as qu
    from file_analyzer_ray.stages.tfidf import tfidf_top_terms

    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows

    def run():
        docs = ray.data.read_parquet(
            f"{SF}/documents.parquet", columns=["doc_id", "text"],
            override_num_blocks=4,
        )
        return (
            tfidf_top_terms(docs, n_docs=n_docs, k=3)
            .to_pandas()
            .sort_values(["doc_id", "term_rank"])
            .reset_index(drop=True)
        )

    bc = run()
    monkeypatch.setattr(qu, "_BROADCAST_MAX_BYTES", 0)
    pd.testing.assert_frame_equal(bc, run())
