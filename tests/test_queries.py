"""Replica of the driver's correctness gate: run every queries() entry
at sf0.001 and compare the SQL-checkable ones against their DuckDB
oracle (row count, column names, values — exact for ints/strings,
bit-tolerant for floats)."""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SF_DIR), reason="driver testdata not present"
)


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


@pytest.fixture(scope="module")
def registry(ray_session):
    import sys

    sys.path.insert(0, "/root/repo")
    import importlib

    m = importlib.import_module("__ray_entry__")
    return m.queries(), m.oracle_sql()


def _to_pandas(res) -> pd.DataFrame:
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()  # pyarrow.Table


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _compare(got: pd.DataFrame, exp: pd.DataFrame, name: str):
    assert len(got) == len(exp), f"{name}: row count {len(got)} != {len(exp)}"
    assert sorted(got.columns) == sorted(exp.columns), (
        f"{name}: columns {sorted(got.columns)} != {sorted(exp.columns)}"
    )
    g, e = _normalize(got), _normalize(exp)
    for c in g.columns:
        gv, ev = g[c], e[c]
        if pd.api.types.is_float_dtype(ev):
            assert np.allclose(
                gv.astype(float), ev.astype(float), rtol=0, atol=1e-9, equal_nan=True
            ), f"{name}.{c}: float mismatch (max |Δ|={np.abs(gv.astype(float)-ev.astype(float)).max()})"
        else:
            assert gv.astype(str).tolist() == ev.astype(str).tolist(), (
                f"{name}.{c}: value mismatch"
            )


SQL_CHECKED = [
    "lineitem_pricing_summary",
    "lineitem_filter_project",
    "orders_topk",
    "customer_order_revenue",
    "supplier_lineitem_agg",
    "events_type_stats",
    "events_hourly_rollup",
    "events_hopping_rollup",
    "events_clicks_before_purchase",
    "events_dow_type_cube",
    "events_sessionize",
    "events_props_extract",
    "docs_token_stats",
    "docs_quality",
    "docs_length_by_lang",
    "docs_top_terms_per_lang",
    "docs_exact_dedup",
    "docs_fingerprint",
    "docs_perplexity",
    "docs_dup_spans",
    "docs_incremental_dedup",
    "docs_signature_scan",
    "embeddings_knn",
    "embeddings_label_stats",
    "orders_lineitem_join_agg",
    "orders_semi_lineitem_returns",
    "customers_without_orders",
    "top_customer_per_nation",
    "events_user_rolling_1h",
    "events_asof_purchase",
    "events_union_split",
    "embeddings_cosine_near_dup",
    "events_value_percentiles",
    "docs_deterministic_sample",
    "orders_status_pivot",
    "users_click_setops",
    "events_approx_users",
    "docs_simhash_near_dup",
    "docs_minhash_near_dup",
    "lineitem_rank_in_order",
    "docs_ngram_dedup",
    "docs_bpe_tokens",
    "bucketed_customer_revenue",
    "docs_langid",
    "training_prep",
    "embeddings_lsh_near_dup",
    "docs_decontaminate",
    "embeddings_semdedup",
    "docs_quality_classifier",
    "docs_main_content",
    "docs_source_overlap",
    "docs_layout_parse",
    "docs_pii_scrub",
    "graph_pagerank",
    "docs_crawl_frontier",
    "docs_train_val_split",
    "docs_dsir",
    # r4: flagship extraction family + multimodal + IVF driver oracles
    # (harness-wrap golden-output / self-verifying doctrine)
    "extract_spans",
    "extract_carve",
    "extract_dedup_clusters",
    "media_features",
    "embeddings_knn_ivf",
    # r4 additions: search-index build + rule-based quality gate
    "docs_inverted_index",
    "docs_gopher_rules",
    "docs_cms_top_terms",
    "events_funnel",
    "events_retention",
    "extract_pairwise_compare",
    # r4 additions: RAG chunking + zone-map range-pruned layout +
    # bin-overlap interval join
    "docs_chunk_windows",
    "events_range_pruned",
    "events_interval_join",
    # r4 additions: lakehouse upsert compaction + deterministic
    # shuffle-shard training-export layout
    "events_upsert_compact",
    "docs_shuffle_export",
    # r4 addition: degree-ordered distributed triangle counting
    "graph_triangles",
    # r4 additions: two-crawl snapshot delta + Bernoulli PPS sampling
    "docs_crawl_diff",
    "events_weighted_sample",
    # r4 addition: product-quantization ANN (self-verifying recall flag)
    "embeddings_knn_pq",
    # r4 addition: BM25 ranked keyword retrieval
    "docs_bm25_search",
    # r4 addition: hybrid lexical+semantic retrieval (RRF fusion)
    "docs_hybrid_search",
    # r4 addition: per-group HLL distinct (self-verifying)
    "events_users_by_type_approx",
    # r4 addition: distributed prefix scan — late-data watermark audit
    "events_late_arrivals",
    # r4 addition: Z-order (Morton) 2-D pruned layout
    "events_zorder_pruned",
    # r4 addition: global ntile via the distributed prefix scan
    "docs_length_deciles",
    # r4 addition: TPC-H Q3 analog (3 tables, one exchange)
    "orders_shipping_priority",
    # r4 addition: cooldown-window burst suppression (telemetry dedup)
    "events_burst_suppress",
    # r4 addition: grouped z-score outliers from exact integer moments
    "events_value_zscore",
    # r4 addition: table profiler (nulls / exact distinct / bounds + HLL flag)
    "events_table_profile",
    # r4 addition: blocked fuzzy record linkage (compression -> token
    # blocking -> vectorized-across-pairs Levenshtein)
    "part_fuzzy_match",
    # r4 addition: distributed Pareto skyline (combiner-shaped frontier)
    "events_skyline",
    # r4 addition: per-user event-transition (Markov bigram) counts
    "events_markov",
    # r4 addition: trailing-24h rolling distinct active users
    "events_rolling_active_users",
    # r4 addition: grouped OLS + Pearson r via six folded moments
    "events_hourly_regression",
    # r4 addition: per-user Shannon entropy of the event-type mix
    "events_user_entropy",
    # r4 addition: distributed Gram matrix (X^T X single-pass fold)
    "embeddings_gram",
    # r4 addition: chi-square independence screen (dow x type)
    "events_chi2_independence",
    # r4 addition: weakly connected components (min-label propagation)
    "graph_components",
    # r4 addition: trained multinomial Naive Bayes language classifier
    "docs_naive_bayes",
    # r4 additions: PMI phrase mining, DP counts, contrastive pair
    # mining, quality-argmax dedup
    "docs_pmi_collocations",
    "events_dp_counts",
    "embeddings_hard_negatives",
    "docs_dedup_keep_best",
    # r4 additions: BFS hop layers, recency-decayed user sums, MOSS
    # winnowing fingerprints
    "graph_bfs_layers",
    "events_user_ewma",
    "docs_winnow_fingerprints",
    # r4 addition: TPC-H Q17 correlated-aggregate analog, one sort
    "lineitem_small_order_revenue",
    # r4 additions: activity-concentration Gini, exact-rank winsorize
    "events_user_gini",
    "events_winsorize",
    # r4 addition: Johnson-Lindenstrauss hash-derived random projection
    "embeddings_jl_project",
    # r4 addition: langid reliability / calibration table
    "docs_langid_calibration",
    # r4 addition: Welch two-sample t-test from exact integer moments
    "events_welch_ttest",
    # r4 addition: word2vec negative-sampling CDF table
    "docs_negative_sampling_table",
]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_vs_duckdb(name, registry, con):
    queries, oracles = registry
    if name not in queries:
        # retired from the 50-entry driver registry, still oracle-
        # tested here so retiring never reduces verified coverage
        from file_analyzer_ray.queries import (
            RETIRED_ORACLE_SQL,
            RETIRED_QUERIES,
        )

        queries, oracles = RETIRED_QUERIES, RETIRED_ORACLE_SQL
    assert name in queries and name in oracles
    got = _to_pandas(queries[name](SF_DIR))
    exp = con.execute(oracles[name]).df()
    _compare(got, exp, name)


def test_every_registry_entry_has_an_oracle(registry):
    """r4 closes the last ``no_oracle`` row: every one of the 50 driver
    entries now ships a DuckDB oracle (extract_pairwise_compare was the
    final holdout — constant-color harness codec)."""
    queries, oracles = registry
    assert len(queries) == 50
    assert sorted(queries) == sorted(oracles)


def test_ivf_recall_vs_bruteforce(registry):
    """IVF with n_probe=2/8 cells must recover most of the exact top-10
    (the probe path directly — the driver entry now emits the exact
    top-k plus the self-verifying recall_ok flag this test underpins)."""
    from file_analyzer_ray.stages.ann import knn_ivf

    queries, _ = registry
    exact = set(_to_pandas(queries["embeddings_knn"](SF_DIR))["vec_id"])
    approx = set(_to_pandas(knn_ivf(SF_DIR, k=10, n_centroids=8, n_probe=2))["vec_id"])
    recall = len(exact & approx) / len(exact)
    assert recall >= 0.5, f"IVF recall {recall} too low"
    flagged = _to_pandas(queries["embeddings_knn_ivf"](SF_DIR))
    assert bool(flagged["recall_ok"].all())
    assert (flagged["ivf_n"] == 10).all()


CORPUS_VARIANTS = [
    "q_extract_spans_corpus",
    "q_extract_dedup_clusters_corpus",
    "q_extract_carve_corpus",
    "q_media_features_corpus",
    "q_extract_pairwise_compare_corpus",
]


@pytest.mark.parametrize("fname", CORPUS_VARIANTS)
def test_corpus_scale_variants_run(fname, ray_session):
    """The hash-seeded corpus variants of the driver-green harness
    entries stay exercised (they are the bench-scale path; span/carve/
    cluster semantics are pinned against the serial oracle elsewhere)."""
    from file_analyzer_ray import queries as q

    res = getattr(q, fname)(SF_DIR)
    df = _to_pandas(res)
    assert len(df) > 0


def test_ivf_layout_equals_scan_path(registry, tmp_path):
    """The bucketed IVF layout (probe reads ONLY its cells' files) must
    return exactly the scan-based knn_ivf result — same quantizer, same
    probes, pruned at storage instead of filtered after the read."""
    from file_analyzer_ray.stages.ann import (
        knn_ivf,
        knn_ivf_layout,
        write_ivf_layout,
    )

    layout = write_ivf_layout(SF_DIR, str(tmp_path / "ivf"), n_centroids=8)
    a = _to_pandas(knn_ivf(SF_DIR, k=10, n_centroids=8, n_probe=2))
    b = _to_pandas(knn_ivf_layout(layout, SF_DIR, k=10, n_probe=2))
    assert a["vec_id"].tolist() == b["vec_id"].tolist()
    assert a["cosine_sim"].tolist() == b["cosine_sim"].tolist()
    # the quantizer actually split the space (so the probe is a real prune)
    import glob

    all_cells = glob.glob(str(tmp_path / "ivf" / "cell=*"))
    assert len(all_cells) >= 4


def test_sq8_layout_knn(registry, tmp_path):
    """int8 scalar-quantized kNN: with the rerank window covering the
    whole table the result must be bit-identical to brute force
    (scores are exact after rerank by construction); with the default
    narrow window recall@10 must stay high and scores stay exact."""
    from file_analyzer_ray.stages.ann import knn_sq8, write_sq8_layout

    queries, _ = registry
    exact = _to_pandas(queries["embeddings_knn"](SF_DIR))
    layout = write_sq8_layout(SF_DIR, str(tmp_path / "sq8"))

    full = _to_pandas(knn_sq8(SF_DIR, layout, k=10, rerank=100))
    assert full["vec_id"].tolist() == exact["vec_id"].tolist()
    assert full["cosine_sim"].tolist() == exact["cosine_sim"].tolist()

    narrow = _to_pandas(knn_sq8(SF_DIR, layout, k=10, rerank=4))
    recall = len(set(narrow["vec_id"]) & set(exact["vec_id"])) / 10
    assert recall >= 0.9, f"SQ8 recall {recall} too low"
    sim_of = dict(zip(exact["vec_id"], exact["cosine_sim"]))
    for v, s in zip(narrow["vec_id"], narrow["cosine_sim"]):
        if v in sim_of:
            assert s == sim_of[v]  # rerank restored the exact score


def test_shipping_priority_both_paths_equal(registry, monkeypatch):
    """The broadcast joins and the two chained hash joins must produce
    identical top-10 rows."""
    import file_analyzer_ray.queries_joins as qj
    import file_analyzer_ray.query_utils as qu

    bc = _to_pandas(qj.q_orders_shipping_priority(SF_DIR)).reset_index(drop=True)
    monkeypatch.setattr(qu, "_BROADCAST_MAX_BYTES", 0)
    sj = _to_pandas(qj.q_orders_shipping_priority(SF_DIR)).reset_index(drop=True)
    pd.testing.assert_frame_equal(bc, sj)


def test_winsorize_invariants(registry):
    """Output-level invariants beyond the oracle: every clipped value
    sits inside its type's [lo, hi] band, and rows strictly inside the
    band pass through untouched (idempotence of the clip)."""
    from file_analyzer_ray.queries import RETIRED_QUERIES

    df = _to_pandas(RETIRED_QUERIES["events_winsorize"](SF_DIR))
    for et, g in df.groupby("event_type"):
        lo, hi = g["value_winsor"].min(), g["value_winsor"].max()
        assert ((g["value_winsor"] >= lo) & (g["value_winsor"] <= hi)).all()
        inner = g[(g["value"] > lo) & (g["value"] < hi)]
        assert (inner["value_winsor"] == inner["value"]).all()
    # clipping changed something (the sf data has tails)
    assert (df["value_winsor"] != df["value"]).any()


def test_jl_projection_preserves_norms(registry):
    """The JL guarantee the projection exists for: squared norms are
    preserved in expectation — the mean ratio ||y||²/||x||² over the
    corpus lands near 1 (m=8 gives wide per-vector variance, the
    corpus mean concentrates)."""
    import numpy as np

    from file_analyzer_ray.queries import RETIRED_QUERIES, _read

    proj = _to_pandas(RETIRED_QUERIES["embeddings_jl_project"](SF_DIR))
    y2 = sum(proj[f"y{j}"] ** 2 for j in range(8)).to_numpy()
    src = _read(SF_DIR, "embeddings", ["vec_id", "embedding"]).to_pandas()
    src = src.sort_values("vec_id").reset_index(drop=True)
    proj = proj.sort_values("vec_id").reset_index(drop=True)
    x2 = np.array([float(np.dot(v, v)) for v in src["embedding"]])
    ratio = (y2 / x2).mean()
    assert 0.8 < ratio < 1.2, ratio


def test_key_broadcast_joins_equal_hash_join_path(registry, monkeypatch):
    """The key-broadcast join paths (anti / semi / pre-aggregated
    inner) must produce exactly what the Dataset.join fallback does."""
    import file_analyzer_ray.query_utils as qu

    from file_analyzer_ray.queries import RETIRED_QUERIES

    names = (
        "customers_without_orders",
        "orders_semi_lineitem_returns",
        "orders_lineitem_join_agg",
        "orders_shipping_priority",
    )
    queries, _ = registry
    queries = {**RETIRED_QUERIES, **queries}
    bc = {n: _normalize(_to_pandas(queries[n](SF_DIR))) for n in names}
    monkeypatch.setattr(qu, "_BROADCAST_MAX_BYTES", 0)  # force Dataset.join
    for n in names:
        pd.testing.assert_frame_equal(
            bc[n], _normalize(_to_pandas(queries[n](SF_DIR)))
        )


def test_pairwise_compare_broadcast_equals_join_path(registry, monkeypatch):
    """The image-table broadcast (no exchange) must equal the
    parquet-checkpoint two-hash-join path exactly."""
    import file_analyzer_ray.query_utils as qu

    queries, _ = registry
    bc = _normalize(_to_pandas(queries["extract_pairwise_compare"](SF_DIR)))
    monkeypatch.setattr(qu, "_BROADCAST_MAX_BYTES", 0)  # force the two joins
    jp = _normalize(_to_pandas(queries["extract_pairwise_compare"](SF_DIR)))
    pd.testing.assert_frame_equal(bc, jp)


def test_carry_folds_survive_tiny_blocks(registry, con):
    """Force many tiny sorted blocks through the two-phase carry-fold
    operators (winsorize rank selection, Gini rank-weighted sum,
    negative-sampling running CDF): block-order bookkeeping must hold
    at ANY block count, not just the handful the default block size
    yields at sf0.001 (regression: winsorize once folded carries in
    event_id order, which only agreed with block order by luck on
    single-block runs)."""
    import ray.data as rd

    from file_analyzer_ray.queries import RETIRED_ORACLE_SQL, RETIRED_QUERIES

    ctx = rd.DataContext.get_current()
    old = ctx.target_max_block_size
    try:
        ctx.target_max_block_size = 16 * 1024  # ~dozens of blocks
        for name in (
            "events_winsorize",
            "events_user_gini",
            "docs_negative_sampling_table",
            # regression: tiny blocks once split dsir's dim-row
            # partials across block boundaries
            "docs_dsir",
        ):
            got = _to_pandas(RETIRED_QUERIES[name](SF_DIR))
            exp = con.execute(RETIRED_ORACLE_SQL[name]).df()
            _compare(got, exp, f"{name}@tiny-blocks")
    finally:
        ctx.target_max_block_size = old


def test_pmi_broadcast_and_distributed_paths_equal(registry):
    """The PMI scorer's broadcast path (merged count table pulled once
    below the row cap) and the web-scale explode + two-sort attach path
    must produce identical scored collocations."""
    from file_analyzer_ray.query_utils import _read
    from file_analyzer_ray.stages.pmi import collocations

    def run(**kw):
        return (
            _to_pandas(collocations(_read(SF_DIR, "documents", ["text"]), **kw))
            .sort_values(["w1", "w2"])
            .reset_index(drop=True)
        )

    pd.testing.assert_frame_equal(
        run(min_count=5), run(min_count=5, broadcast_max=0)
    )


def test_pq_layout_knn(registry, tmp_path):
    """Product-quantized kNN (8-byte codes, ADC scan): bit-identical
    to brute force when the rerank window covers the table; high
    recall with exact restored scores at the default narrow window."""
    from file_analyzer_ray.stages.ann import knn_pq, write_pq_layout

    queries, _ = registry
    exact = _to_pandas(queries["embeddings_knn"](SF_DIR))
    layout = write_pq_layout(SF_DIR, str(tmp_path / "pq"))

    full = _to_pandas(knn_pq(SF_DIR, layout, k=10, rerank=200))
    assert full["vec_id"].tolist() == exact["vec_id"].tolist()
    assert full["cosine_sim"].tolist() == exact["cosine_sim"].tolist()

    narrow = _to_pandas(knn_pq(SF_DIR, layout, k=10, rerank=4))
    recall = len(set(narrow["vec_id"]) & set(exact["vec_id"])) / 10
    assert recall >= 0.8, f"PQ recall {recall} too low"
    sim_of = dict(zip(exact["vec_id"], exact["cosine_sim"]))
    for v, s in zip(narrow["vec_id"], narrow["cosine_sim"]):
        if v in sim_of:
            assert s == sim_of[v]  # rerank restored the exact score


def test_pq_codes_are_m_bytes(registry, tmp_path):
    """The layout's whole point: M bytes per row, not 4·D."""
    import pyarrow.dataset as pds

    from file_analyzer_ray.stages.ann import write_pq_layout

    import glob

    layout = write_pq_layout(SF_DIR, str(tmp_path / "pq8"), m=8)
    t = pds.dataset(
        glob.glob(f"{layout}/*.parquet"), format="parquet"
    ).head(5, columns=["codes"])
    assert all(len(b) == 8 for b in t["codes"].to_pylist())


def test_langid_predictions_sensible(registry):
    """The testdata's ``lang`` labels are synthetic and uncorrelated with
    the (English word-soup) text, so accuracy-vs-label is meaningless
    here; the heuristic itself is accuracy-tested on real per-language
    text in test_functions.py. Assert the pipeline output is sane: every
    prediction is a known code and the English-looking corpus maps to
    en/und."""
    queries, _ = registry
    df = _to_pandas(queries["docs_langid"](SF_DIR))
    assert len(df) > 0
    assert set(df["lang_pred"]) <= {"en", "de", "fr", "es", "it", "und"}
    assert (df["lang_pred"].isin(["en", "und"])).mean() > 0.9


def test_global_aggregate_over_empty_input_returns_one_row(ray_session, tmp_path):
    """A global aggregate answers one row on an empty input, as its
    DuckDB oracle does: the per-block partials yield no typed block,
    and the merge still runs on the typed empty gather."""
    import pyarrow.parquet as pq

    from file_analyzer_ray.queries_joins import (SQL_ORDERS_STATUS_PIVOT,
                                                 q_orders_status_pivot)

    orders = pq.read_schema(f"{SF_DIR}/orders.parquet")
    pq.write_table(orders.empty_table(), tmp_path / "orders.parquet")
    got = _to_pandas(q_orders_status_pivot(str(tmp_path)))
    exp = duckdb.connect().execute(SQL_ORDERS_STATUS_PIVOT.replace(
        "FROM orders", f"FROM '{tmp_path}/orders.parquet'"
    )).df()
    assert len(exp) == 1 and exp["n_total"][0] == 0
    assert len(got) == 1
    assert got["n_total"][0] == 0
    assert (got[["n_f", "n_o", "n_p"]].to_numpy() == 0).all()
