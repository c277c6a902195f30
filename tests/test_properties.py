"""Property-based tests (hypothesis) for the pure kernels — adopting
the test kind the reference lacks (SURVEY.md §5 'Property-based: none')
for the invariants that must hold on ANY input, not just fixtures."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

# ---------------------------------------------------------------------------
# JSON extraction chain


@given(
    payload=st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=8),
        st.one_of(st.integers(-1000, 1000), st.text(max_size=20), st.booleans()),
        min_size=1,
        max_size=5,
    ),
    prefix=st.text(max_size=40),
    suffix=st.text(max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_json_extraction_finds_embedded_object(payload, prefix, suffix):
    from file_analyzer_ray.functions.json_extract import extract_json_from_text

    # Avoid the prefix/suffix accidentally containing braces that form
    # larger candidate objects around the payload.
    prefix = prefix.replace("{", "").replace("}", "")
    suffix = suffix.replace("{", "").replace("}", "")
    text = prefix + json.dumps(payload) + suffix
    got = extract_json_from_text(text)
    assert got == payload


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_json_extraction_never_raises(text):
    from file_analyzer_ray.functions.json_extract import extract_json_from_text

    got = extract_json_from_text(text)
    assert got is None or isinstance(got, dict)


# ---------------------------------------------------------------------------
# hashing invariants


@given(st.text(min_size=0, max_size=500))
@settings(max_examples=100, deadline=None)
def test_char_shingle_hashes_match_string_shingles_cardinality(text):
    from file_analyzer_ray.functions.hashing import char_shingle_hashes
    from file_analyzer_ray.functions.text import char_shingles

    hashes = char_shingle_hashes(text, 5)
    strings = char_shingles(text, 5)
    assert len(hashes) == len(strings)
    # distinct shingles → distinct-ish hashes (31-bit space, ≤500 items:
    # collisions astronomically unlikely; equality of sets of counts)
    assert len(np.unique(hashes)) == len(set(strings))


@given(st.lists(st.text(min_size=0, max_size=60), min_size=0, max_size=20))
@settings(max_examples=60, deadline=None)
def test_batched_signatures_equal_per_doc(texts):
    """The flat-broadcast batch path (one concat + per-perm reduceat)
    must produce BIT-IDENTICAL signatures to the per-doc path for any
    mix of empty / shorter-than-k / normal docs."""
    from file_analyzer_ray.functions.hashing import (
        MinHasher,
        char_shingle_hashes,
        char_shingle_hashes_batch,
    )

    mh = MinHasher(num_perm=16, seed=42)
    per_doc = np.stack(
        [mh.signature_from_hashes(char_shingle_hashes(t, 5)) for t in texts]
    ) if texts else np.empty((0, 16), dtype=np.uint64)
    flat, counts = char_shingle_hashes_batch(texts, 5)
    batched = mh.signatures_from_flat(flat, counts)
    assert np.array_equal(per_doc, batched)


_urlish = st.builds(
    lambda scheme, host, port, path, q, frag: (
        scheme + host + port + path + q + frag
    ),
    scheme=st.sampled_from(["", "http://", "https://", "HTTP://", "ftp://"]),
    host=st.text(alphabet="abcXYZ09.-", min_size=1, max_size=12),
    port=st.sampled_from(["", ":80", ":443", ":8080"]),
    path=st.text(alphabet="abcXYZ09/._-", max_size=16),
    q=st.sampled_from(
        ["", "?a=1", "?b=2&a=1", "?utm_source=x", "?a=1&utm_a=2&gclid=9", "?"]
    ),
    frag=st.sampled_from(["", "#f", "#a/b?c=1"]),
)


@given(_urlish)
@settings(max_examples=200, deadline=None)
def test_url_canonicalize_idempotent_and_clean(url):
    """canonicalize is a projection (f(f(x)) == f(x)) and its output
    never carries fragments, tracking params, default ports, or an
    unsorted query."""
    from file_analyzer_ray.stages.urls import canonicalize_url

    c = canonicalize_url(url)
    assert canonicalize_url(c) == c
    assert "#" not in c
    if c:
        assert "://" in c
        scheme, rest = c.split("://", 1)
        assert scheme == scheme.lower()
        hostport = rest.split("/", 1)[0]
        assert hostport == hostport.lower()
        assert not (scheme == "http" and hostport.endswith(":80"))
        assert not (scheme == "https" and hostport.endswith(":443"))
        if "?" in c:
            parts = c.split("?", 1)[1].split("&")
            assert parts == sorted(parts) and all(parts)
            for part in parts:
                k = part.split("=", 1)[0].lower()
                assert not k.startswith("utm_") and k not in ("gclid", "fbclid", "ref")


@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200),
)
@settings(max_examples=50, deadline=None)
def test_hll_merge_commutes(a, b):
    from file_analyzer_ray.stages.sketches import hll_registers

    ra = hll_registers(np.array(a, dtype=np.uint64), 8)
    rb = hll_registers(np.array(b, dtype=np.uint64), 8)
    both = hll_registers(np.array(a + b, dtype=np.uint64), 8)
    assert (np.maximum(ra, rb) == both).all()


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_simhash_banding_pigeonhole(h1, h2):
    """Hamming ≤ 3 ⇒ at least one of the 4 16-bit bands is identical."""
    from file_analyzer_ray.functions.hashing import hamming64, phash_bands

    if hamming64(h1, h2) <= 3:
        b1, b2 = phash_bands(h1, 4, 16), phash_bands(h2, 4, 16)
        assert any(x == y for x, y in zip(b1, b2))


@given(st.binary(min_size=0, max_size=2000))
@settings(max_examples=100, deadline=None)
def test_phash_small_perturbation_small_hamming(payload):
    from file_analyzer_ray.functions.hashing import hamming64, phash64

    if len(payload) < 128:
        return
    perturbed = bytearray(payload)
    perturbed[-1] = (perturbed[-1] + 1) % 256
    d = hamming64(phash64(payload), phash64(bytes(perturbed)))
    assert d <= 4  # one byte moves at most a couple of bucket means


# ---------------------------------------------------------------------------
# tag / filename rules


@given(st.lists(st.text(alphabet="abcdefgh XYZ", max_size=12), max_size=20))
@settings(max_examples=100, deadline=None)
def test_clean_tags_invariants(tags):
    from file_analyzer_ray.functions.signatures import GENERIC_TAGS
    from file_analyzer_ray.functions.tags import clean_tags

    out = clean_tags(tags)
    assert len(out) <= 10
    assert all(t == t.lower() and len(t) > 2 for t in out)
    assert not (set(out) & GENERIC_TAGS)
    assert len(out) == len(set(out))  # deduped


@given(st.text(max_size=120))
@settings(max_examples=100, deadline=None)
def test_suggest_filename_always_valid(description):
    from file_analyzer_ray.functions.tags import suggest_filename

    name = suggest_filename(None, description, "")
    assert name
    assert not set(name) & set('\\/*?:"<>| ')


def test_runscan_helpers_invariant_under_block_splits(ray_session):
    """_distinct_native and _window_by_key_arrow must produce identical
    results regardless of how rows are split into blocks (the boundary
    side-channel must exactly compensate for straddling key groups),
    including the degenerate single-key and hot-key-skew cases, with
    and without a side-channel precombine."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from file_analyzer_ray.query_utils import (
        _distinct_native,
        _run_starts_mask_arrow,
        _window_by_key_arrow,
    )

    rng = np.random.default_rng(11)
    n = 5000
    # skew: key 7 takes ~40% of rows; keys are unsorted on input
    keys = np.where(rng.random(n) < 0.4, 7, rng.integers(0, 200, n))
    vals = rng.integers(0, 50, n)
    df = pd.DataFrame({"k": keys.astype("int64"), "v": vals.astype("int64")})

    exp_distinct = (
        df.drop_duplicates().sort_values(["k", "v"]).reset_index(drop=True)
    )
    exp_window = (
        df.sort_values(["k", "v"])
        .groupby("k", as_index=False)
        .agg(n_rows=("v", "size"), v_sum=("v", "sum"))
        .astype("int64")
        .sort_values("k")
        .reset_index(drop=True)
    )

    def window_fn(t: pa.Table) -> pa.Table:
        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["k"]))
        ends = np.r_[starts[1:], t.num_rows]
        v = t.column("v").to_numpy()
        return pa.table({
            "k": t.column("k").to_numpy()[starts],
            "n_rows": (ends - starts).astype(np.int64),
            "v_sum": (np.add.reduceat(v, starts) if len(starts)
                      else v[:0]).astype(np.int64),
        })

    def window(ds):
        return (
            _window_by_key_arrow(ds, ["k"], ["k", "v"], window_fn).to_pandas()
            .sort_values("k").reset_index(drop=True).astype("int64")
        )

    for nblocks in (1, 3, 17):
        ds = ray.data.from_pandas(df).repartition(nblocks)
        got_d = (
            _distinct_native(ds, ["k", "v"]).to_pandas()
            .sort_values(["k", "v"]).reset_index(drop=True).astype("int64")
        )
        pd.testing.assert_frame_equal(got_d, exp_distinct)
        pd.testing.assert_frame_equal(window(ds), exp_window)

    # degenerate: every row the same key (everything is boundary)
    one = pd.DataFrame({"k": np.zeros(100, dtype="int64"),
                        "v": np.arange(100, dtype="int64") % 5})
    ds1 = ray.data.from_pandas(one).repartition(4)
    got = _distinct_native(ds1, ["k", "v"]).to_pandas()
    assert len(got) == 5
    gw = window(ds1)
    assert len(gw) == 1 and int(gw["n_rows"].iloc[0]) == 100


def _side_channel_rows(ds) -> int:
    """Rows the executed Dataset's boundary side-channel carried: the
    output rows of its ``RepartitionSplit`` operator in Ray Data's own
    stats tree."""
    rows = []

    def walk(summary):
        for op in summary.operators_stats:
            if "RepartitionSplit" in op.operator_name:
                rows.append(op.output_num_rows["sum"])
        for parent in summary.parents:
            walk(parent)

    walk(ds._get_stats_summary())
    assert rows, "no side-channel operator in the plan"
    return rows[0]


def test_precombine_bounds_side_channel_under_giant_key(ray_session):
    """A single key across every block (a forced giant key): without a
    precombine its whole run rides the side-channel; with an
    associative precombine each block sends at most its 2 edge runs,
    one row each, and the result is unchanged."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from file_analyzer_ray.query_utils import (
        _run_starts_mask_arrow,
        _window_by_key_arrow,
    )

    n, nblocks = 4000, 20
    t = pa.table({"k": np.zeros(n, dtype=np.int64),
                  "v": np.arange(n, dtype=np.int64)})

    def run_min(b: pa.Table) -> pa.Table:
        return b.take(pa.array(np.flatnonzero(_run_starts_mask_arrow(b, ["k"]))))

    def run(precombine):
        ds = ray.data.from_arrow(t).repartition(nblocks)
        out = _window_by_key_arrow(
            ds, ["k"], ["k", "v"], run_min, precombine=precombine
        ).materialize()
        assert out.take_all() == [{"k": 0, "v": 0}]
        return _side_channel_rows(out)

    # v is distinct, so the sort spreads key 0 over every block
    assert run(None) == n
    assert run(run_min) <= 2 * nblocks


def test_window_by_key_arrow_matches_pandas_twin(ray_session):
    """_window_by_key_arrow must equal a pandas groupby under every
    block split, including with STRING keys (the Arrow run-boundary
    mask works on the raw string buffers — this pins that path)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from file_analyzer_ray.query_utils import _window_by_key_arrow

    rng = np.random.default_rng(23)
    n = 4000
    keys = np.where(rng.random(n) < 0.35, 7, rng.integers(0, 150, n))
    df = pd.DataFrame(
        {
            "k": np.array([f"key_{k:04d}" for k in keys]),  # string key
            "v": rng.integers(0, 50, n).astype("int64"),
        }
    )
    exp = (
        df.groupby("k", as_index=False)
        .agg(n_rows=("v", "size"), v_sum=("v", "sum"))
        .sort_values("k")
        .reset_index(drop=True)
    )

    def window_fn(t: pa.Table) -> pa.Table:
        from file_analyzer_ray.query_utils import _run_starts_mask_arrow

        if t.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64()),
                 pa.array([], pa.int64())],
                names=["k", "n_rows", "v_sum"],
            )
        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["k"]))
        ends = np.r_[starts[1:], t.num_rows]
        v = t.column("v").to_numpy()
        return pa.Table.from_arrays(
            [
                t.column("k").take(pa.array(starts)),
                pa.array((ends - starts).astype(np.int64)),
                pa.array(np.add.reduceat(v, starts).astype(np.int64)),
            ],
            names=["k", "n_rows", "v_sum"],
        )

    for nblocks in (1, 3, 17):
        ds = ray.data.from_pandas(df).repartition(nblocks)
        got = (
            _window_by_key_arrow(ds, ["k"], ["k", "v"], window_fn).to_pandas()
            .sort_values("k").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got.astype({"n_rows": "int64", "v_sum": "int64"}), exp
        )


# ---------------------------------------------------------------------------
# golden-roundtrip properties of the wrap/parse extraction harnesses

_word = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8
)
_doc_text = st.lists(_word, min_size=0, max_size=120).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(txt=_doc_text, did=st.integers(min_value=0, max_value=10**9))
def test_html_wrap_strip_roundtrip_property(txt, did):
    import pyarrow as pa

    from file_analyzer_ray.stages.maincontent import (
        MainContentStage,
        wrap_documents_html,
    )

    t = pa.Table.from_arrays(
        [pa.array([did], pa.int64()), pa.array(["s"]), pa.array([txt])],
        names=["doc_id", "source", "text"],
    )
    out = MainContentStage()(wrap_documents_html(t))
    assert out.column("main_text")[0].as_py() == " ".join(txt.split())


@settings(max_examples=60, deadline=None)
@given(txt=_doc_text, did=st.integers(min_value=0, max_value=10**9))
def test_layout_wrap_parse_roundtrip_property(txt, did):
    import pyarrow as pa

    from file_analyzer_ray.stages.layout import (
        LayoutParseStage,
        wrap_documents_layout,
    )

    t = pa.Table.from_arrays(
        [pa.array([did], pa.int64()), pa.array(["s"]), pa.array([txt])],
        names=["doc_id", "source", "text"],
    )
    out = LayoutParseStage()(wrap_documents_layout(t))
    assert out.column("main_text")[0].as_py() == " ".join(txt.split())


@settings(max_examples=60, deadline=None)
@given(txt=_doc_text, did=st.integers(min_value=0, max_value=10**9))
def test_pii_inject_scrub_closed_form_property(txt, did):
    import pyarrow as pa

    from file_analyzer_ray.stages.pii import (
        IPV4_RE,
        MIN_TOKENS,
        PHONE_RE,
        PiiScrubStage,
        inject_pii,
    )

    # the closed form states "only the INJECTED tokens get masked" —
    # it holds only for base text that is itself PII-free (digit words
    # from the strategy can form accidental phone/IP shapes, which the
    # scrubber CORRECTLY masks; that's the scrubber working, not the
    # closed form failing)
    assume(not PHONE_RE.search(txt) and not IPV4_RE.search(txt))

    t = pa.Table.from_arrays(
        [pa.array([did], pa.int64()), pa.array([txt])],
        names=["doc_id", "text"],
    )
    out = PiiScrubStage()(inject_pii(t))
    toks = txt.split()
    if len(toks) >= MIN_TOKENS:
        exp = " ".join(toks[:2] + ["[EMAIL]"] + toks[2:] + ["[PHONE]"])
        ne = np_ = 1
    else:
        exp, ne, np_ = " ".join(toks), 0, 0
    assert out.column("clean_text")[0].as_py() == exp
    assert out.column("n_emails")[0].as_py() == ne
    assert out.column("n_phones")[0].as_py() == np_


@settings(max_examples=40, deadline=None)
@given(
    words=st.dictionaries(
        st.text(alphabet="abcdef", min_size=1, max_size=6),
        st.integers(min_value=1, max_value=50),
        min_size=1,
        max_size=12,
    ),
    nm=st.integers(min_value=0, max_value=15),
)
def test_bpe_merge_invariants_property(words, nm):
    """Training invariants on arbitrary count tables: encoding is
    LOSSLESS (symbols concatenate back to word+END), merge freqs are
    all ≥ 2, and more merges never increase any word's token count."""
    from file_analyzer_ray.stages.bpe_train import (
        END,
        _encode_word,
        bpe_train_from_counts,
    )

    merges = bpe_train_from_counts(words, nm)
    assert all(f >= 2 for _, _, f in merges)
    rank_full = {(a, b): i for i, (a, b, _) in enumerate(merges)}
    rank_half = {(a, b): i for i, (a, b, _) in enumerate(merges[: len(merges) // 2])}
    for w in words:
        full = _encode_word(w, rank_full)
        assert "".join(full) == w + END  # lossless
        assert len(full) <= len(_encode_word(w, rank_half))  # monotone
