"""Near-duplicate detection over text tables: MinHash+LSH and n-gram
Jaccard clustering.

Standard public algorithms (Broder '97 MinHash; banding LSH per
Leskovec/Rajaraman/Ullman) expressed Ray-Data-first:

    map_batches(signatures)            # vectorized minhash per doc
      → flat band explode              # (band_key, doc_id, sig) rows
      → sort(band_key)                 # the ONE exchange, narrow rows
      → vectorized run-scan pairs      # no per-bucket dispatch
        (+ boundary side-channel for buckets straddling block edges)
      → exact-Jaccard verify           # driver-broadcast or
                                       # two-hash-join, chosen by size

Cluster assembly (connected components): driver union-find over the
verified pair set (provably small after thresholding) by default, or
:func:`cc_star_contraction` — distributed large-star / small-star
rounds with only a convergence scalar on the driver — as the
10^12-scale path (equality-tested).
"""

from __future__ import annotations

import warnings

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..functions.hashing import (
    MinHasher,
    char_shingle_hashes,
    char_shingle_hashes_batch,
    jaccard,
    word_ngram_hashes,
)
from ..functions.text import char_shingles, word_ngrams
from ..query_utils import _window_by_key_arrow
from .banding import run_bounds

_N_PERM = 64
_N_BANDS = 16  # 4 rows/band → recall ≈ 0.9998 at J = 0.8


_HASHER: MinHasher | None = None


def _hasher() -> MinHasher:
    """Module-level MinHasher (deterministic seed): constructing it is
    two tiny numpy draws, so signature computation runs as plain TASKS
    — an actor pool here would only add ~2 s of spin-up latency."""
    global _HASHER
    if _HASHER is None:
        _HASHER = MinHasher(num_perm=_N_PERM, seed=42)
    return _HASHER


class SignatureStage:
    """Per-batch minhash signatures. Shingle hashing is fully
    vectorized (``hash_fn`` returns a uint64 array per doc — no
    per-shingle Python objects in the hot path), and when a
    ``batch_hash_fn`` is supplied (the char-shingle default) the whole
    batch runs as ONE flat broadcast + ``minimum.reduceat`` — no
    per-doc numpy dispatch either. Plain callable usable as a task fn
    (see :func:`_hasher`)."""

    def __init__(self, hash_fn, batch_hash_fn=None):
        self.hash_fn = hash_fn
        self.batch_hash_fn = batch_hash_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        mh = _hasher()
        texts = batch.column("text").to_pylist()
        if self.batch_hash_fn is not None:
            flat, counts = self.batch_hash_fn(texts)
            mat = mh.signatures_from_flat(flat, counts)
            sigs = [mat[i].tobytes() for i in range(len(texts))]
        else:
            sigs = [
                mh.signature_from_hashes(self.hash_fn(t)).tobytes()
                for t in texts
            ]
        return batch.select(["doc_id", "text"]).append_column(
            "sig", pa.array(sigs, pa.binary())
        )


# splitmix64 finalizer constants — the band-key mixer below only needs
# "equal chunks → equal key" plus decent spread; cross-chunk collisions
# merely add candidates that the exact-Jaccard verify removes.
_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)


def _explode_bands(batch: pa.Table) -> pa.Table:
    """Band rows (band, doc_id, sig): text never crosses the candidate
    shuffle; the signature (512 B) rides along so buckets can prefilter
    pairs by estimated Jaccard before the exact verify. Fully
    vectorized: the batch's signatures form ONE (n, _N_PERM) uint64
    matrix and every band key comes from a splitmix64-style mix over
    that matrix — no per-doc Python loop, no per-band sha256 call
    (the old path paid 16 hashlib round-trips per document)."""
    n = batch.num_rows
    rows_per_band = _N_PERM // _N_BANDS
    sig_arr = batch.column("sig")
    if isinstance(sig_arr, pa.ChunkedArray):
        sig_arr = sig_arr.combine_chunks()
    mat = np.frombuffer(
        b"".join(sig_arr.to_pylist()), dtype=np.uint64
    ).reshape(n, _N_PERM)
    chunks = mat.reshape(n, _N_BANDS, rows_per_band)
    h = np.zeros((n, _N_BANDS), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(rows_per_band):
            h = (h ^ chunks[:, :, j]) * _MIX1
            h ^= h >> np.uint64(29)
            h *= _MIX2
            h ^= h >> np.uint64(32)
    band_idx = np.arange(_N_BANDS, dtype=np.uint64)
    key = (band_idx[None, :] << np.uint64(48)) | (h & np.uint64((1 << 48) - 1))
    rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), _N_BANDS))
    return pa.Table.from_arrays(
        [
            pa.array(key.reshape(-1).astype(np.int64)),
            (
                batch.column("doc_id").combine_chunks()
                if isinstance(batch.column("doc_id"), pa.ChunkedArray)
                else batch.column("doc_id")
            ).take(rep),
            sig_arr.take(rep),
        ],
        names=["band", "doc_id", "sig"],
    )


def _pairs_from_runs(ids, sigs_bytes, starts, ends, cutoff, id_type) -> pa.Table:
    """Estimate-prefiltered candidate pairs for the given bucket runs
    (vectorized per run; singleton runs cost one comparison, not a
    per-group frame)."""
    out_a: list = []
    out_b: list = []
    multi = (ends - starts) >= 2  # vectorized singleton skip
    for s, e in zip(starts[multi].tolist(), ends[multi].tolist()):
        idx = np.argsort(ids[s:e], kind="stable") + s
        rid = ids[idx]
        sig = np.stack([np.frombuffer(sigs_bytes[i], dtype=np.uint64) for i in idx])
        est = (sig[:, None, :] == sig[None, :, :]).mean(axis=2)
        keep = np.triu(est >= cutoff, k=1)
        r, c = np.nonzero(keep)
        out_a.extend(rid[r])
        out_b.extend(rid[c])
    return pa.Table.from_arrays(
        [pa.array(out_a, id_type), pa.array(out_b, id_type)],
        names=["doc_id_a", "doc_id_b"],
    )


def _lsh_candidate_pairs(docs, hash_fn, threshold: float,
                         batch_hash_fn=None) -> "ray.data.Dataset":
    """(doc_id, text) → candidate pair dataset via MinHash-LSH:
    vectorized signatures → (band, doc_id, sig) explode → ONE sort by
    band key → vectorized run-scan per sorted block.

    The co-grouping is the sorted-run primitive
    (``query_utils._window_by_key_arrow``: SORT + per-block numpy run
    detection), NOT ``groupby(band).map_groups``: with 16 bands/doc
    nearly every bucket is a singleton, and Ray/pandas per-group
    dispatch costs ~100 µs of empty-frame construction per group —
    measured 10 s for a 5k-doc corpus vs ~1 s for the run-scan. Pairs
    surfacing from several bands appear multiply; the verify step
    dedups them.
    """
    # estimate prefilter: pairs whose estimated Jaccard (fraction of
    # agreeing minhash components) is below threshold − 0.15 never reach
    # the exact verify — this keeps mega-buckets (a 600-clone cluster is
    # C(600,2) raw pairs) from exploding the pair shuffle
    cutoff = threshold - 0.15
    sigs = docs.map_batches(
        SignatureStage(hash_fn, batch_hash_fn),
        batch_format="pyarrow", batch_size=1024,
    )
    bands = sigs.map_batches(_explode_bands, batch_format="pyarrow")

    def bucket_pairs(t: pa.Table) -> pa.Table:
        starts, ends = run_bounds(t.column("band").to_numpy())
        return _pairs_from_runs(
            t.column("doc_id").to_numpy(zero_copy_only=False),
            t.column("sig").to_numpy(zero_copy_only=False),
            starts, ends, cutoff, t.schema.field("doc_id").type,
        )

    return _window_by_key_arrow(bands, ["band"], ["band"], bucket_pairs)


_DRIVER_VERIFY_MAX_PAIRS = 100_000


def _verify_pairs_exact(
    pairs, docs, shingle_fn, threshold: float, mode: str = "auto"
) -> "ray.data.Dataset":
    """Exact-Jaccard verify for the LSH candidates. Two paths, chosen
    from the MEASURED candidate count (``mode='auto'``):

    - ``driver`` (small candidate sets): collect the deduped pairs,
      fetch the texts of only the referenced docs with one broadcast
      semi-filter pass, verify distributed with the text map in the
      object store. Fastest for the common post-banding case (hundreds
      of pairs) — two fewer exchanges than the join path.
    - ``join`` (the scale path): candidate texts NEVER transit the
      driver — the deduped pair set hash-joins the (doc_id, text)
      corpus twice (left side then right side), and the verify kernel
      runs per batch over (text_a, text_b) rows. All-streaming; the
      only driver-side value is the candidate count.
    """
    import pyarrow as pa

    empty = pa.Table.from_pylist(
        [], schema=pa.schema([("doc_id_a", pa.int64()), ("doc_id_b", pa.int64()),
                              ("jaccard", pa.float64())])
    )
    if mode == "auto":
        # the mode decision needs the measured candidate count — pay one
        # materialize. Callers that know the corpus row count up front
        # (parquet footer metadata) pass mode explicitly and skip this
        # barrier entirely (same static-choice pattern as _preagg_native).
        pairs = pairs.materialize()
        n_pairs = pairs.count()
        if n_pairs == 0:
            return ray.data.from_arrow(empty)
        mode = "driver" if n_pairs <= _DRIVER_VERIFY_MAX_PAIRS else "join"

    if mode == "driver":
        pair_df = pairs.to_pandas().drop_duplicates(["doc_id_a", "doc_id_b"])
        if pair_df.empty:
            return ray.data.from_arrow(empty)
        need = set(pair_df["doc_id_a"]) | set(pair_df["doc_id_b"])
        need_ref = ray.put(need)
        texts = docs.map_batches(
            lambda df: df.loc[df["doc_id"].isin(ray.get(need_ref)), ["doc_id", "text"]],
            batch_format="pandas",
        ).to_pandas()
        text_ref = ray.put(dict(zip(texts["doc_id"], texts["text"])))

        def verify(df: pd.DataFrame) -> pd.DataFrame:
            text_of = ray.get(text_ref)
            cache: dict = {}

            def sh(doc_id):
                if doc_id not in cache:
                    cache[doc_id] = set(shingle_fn(text_of[doc_id]))
                return cache[doc_id]

            rows = []
            for a, b in zip(df["doc_id_a"], df["doc_id_b"]):
                jac = jaccard(sh(a), sh(b))
                if jac >= threshold:
                    rows.append({"doc_id_a": a, "doc_id_b": b, "jaccard": jac})
            return pd.DataFrame(rows, columns=["doc_id_a", "doc_id_b", "jaccard"])

        return ray.data.from_pandas(pair_df).map_batches(verify, batch_format="pandas")

    # -- join path: dedup pairs natively, then two hash joins ------------
    # Join parallelism adapts to the cluster: each hash-join operator
    # holds num_partitions build shards, and TWO chained joins with
    # more total demand than the CPU count deadlock the streaming
    # executor on small clusters (measured at 4 CPUs with 16+16).
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_part = max(2, min(16, cpus // 2))
    from ..query_utils import _distinct_native

    deduped = _distinct_native(pairs, ["doc_id_a", "doc_id_b"])

    def rename_a(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id_a": df["doc_id"], "text_a": df["text"]})

    def rename_b(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"id_b": df["doc_id"], "text_b": df["text"]})

    ja = deduped.join(
        docs.map_batches(rename_a, batch_format="pandas"),
        join_type="inner",
        num_partitions=n_part,
        on=("doc_id_a",),
        right_on=("id_a",),
    )
    jb = ja.join(
        docs.map_batches(rename_b, batch_format="pandas"),
        join_type="inner",
        num_partitions=n_part,
        on=("doc_id_b",),
        right_on=("id_b",),
    )

    def verify_joined(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for a, b, ta, tb in zip(
            df["doc_id_a"], df["doc_id_b"], df["text_a"], df["text_b"]
        ):
            jac = jaccard(set(shingle_fn(ta)), set(shingle_fn(tb)))
            if jac >= threshold:
                rows.append({"doc_id_a": a, "doc_id_b": b, "jaccard": jac})
        return pd.DataFrame(rows, columns=["doc_id_a", "doc_id_b", "jaccard"])

    return jb.map_batches(verify_joined, batch_format="pandas")


#: below this input row count the verified-pair set cannot plausibly
#: exceed _DRIVER_VERIFY_MAX_PAIRS (the corpus plants ~1 near-dup per
#: 50 docs; even 1 pair per doc stays under the cap), so the verify
#: mode is decided statically and the candidate materialize-and-count
#: barrier is skipped.
_STATIC_DRIVER_VERIFY_MAX_ROWS = 50_000


def minhash_near_dup_pairs(
    docs: "ray.data.Dataset",
    threshold: float = 0.8,
    shingle_k: int = 5,
    verify_mode: str = "auto",
    input_rows: "int | None" = None,
) -> "ray.data.Dataset":
    """(doc_id, text) → verified near-dup pairs (doc_id_a, doc_id_b,
    jaccard). MinHash-LSH candidate generation (narrow shuffle),
    exact-Jaccard verification on the joined-back texts
    (``verify_mode``: auto | driver | join — see _verify_pairs_exact).
    Callers that know the corpus row count (free from parquet footer
    metadata) pass ``input_rows``: small corpora go straight to the
    driver verify with NO candidate count barrier, huge ones straight
    to the streaming join path."""
    shingle_fn = lambda t: char_shingles(t, shingle_k)  # noqa: E731
    hash_fn = lambda t: char_shingle_hashes(t, shingle_k)  # noqa: E731
    batch_fn = lambda ts: char_shingle_hashes_batch(ts, shingle_k)  # noqa: E731
    if verify_mode == "auto" and input_rows is not None:
        verify_mode = (
            "driver" if input_rows <= _STATIC_DRIVER_VERIFY_MAX_ROWS else "join"
        )
    pairs = _lsh_candidate_pairs(docs, hash_fn, threshold,
                                 batch_hash_fn=batch_fn)
    return _verify_pairs_exact(pairs, docs, shingle_fn, threshold, mode=verify_mode)


def simhash_near_dup_pairs(
    docs: "ray.data.Dataset", max_hamming: int = 3
) -> "ray.data.Dataset":
    """SimHash near-duplicate pairs (hamming ≤ ``max_hamming`` over the
    64-bit Charikar fingerprint). Pigeonhole banding: with 4 bands of
    16 bits, any pair within hamming 3 shares at least one identical
    band, so the band key is the ONE shuffle and recall is exactly 1.0;
    in-group pairs are verified with the true hamming distance."""
    from ..functions.hashing import simhash64
    from ..functions.text import tokenize

    def add_simhash(df: pd.DataFrame) -> pd.DataFrame:
        # dtype MUST be an explicit uint64: Python ints ≥ 2^63 in an
        # object column make the per-block Arrow conversion fall back
        # to lossy float64 for blocks that contain one — low fingerprint
        # bits silently round away and in-bucket hamming UNDERCOUNTS,
        # nondeterministically with block composition (caught by the
        # sf0.01 oracle at 16 CPUs).
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "simhash": np.fromiter(
                    (simhash64(tokenize(t.lower())) for t in df["text"]),
                    dtype=np.uint64,
                    count=len(df),
                ),
            }
        )

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        out_band, out_doc, out_hash = [], [], []
        for doc_id, h in zip(df["doc_id"], df["simhash"]):
            h = int(h)
            for b in range(4):
                out_band.append((b << 16) | ((h >> (16 * b)) & 0xFFFF))
                out_doc.append(doc_id)
                out_hash.append(h)
        return pd.DataFrame(
            {
                "band": np.asarray(out_band, dtype=np.int64),
                "doc_id": out_doc,
                "simhash": np.asarray(out_hash, dtype=np.uint64),
            }
        )

    from ..query_utils import _distinct_native
    from .banding import banded_pairs, hamming_pair_kernel

    sigs = docs.map_batches(add_simhash, batch_format="pandas")
    bands = sigs.map_batches(explode, batch_format="pandas")
    pairs = banded_pairs(
        bands,
        hamming_pair_kernel("simhash", max_hamming),
        pa.schema([("doc_id_a", pa.int64()), ("doc_id_b", pa.int64()),
                   ("hamming", pa.int64())]),
    )
    return _distinct_native(pairs, ["doc_id_a", "doc_id_b", "hamming"])


def _dedup_pairs(lo: np.ndarray, hi: np.ndarray):
    """Vectorized distinct over int64 pairs — full-range safe (no
    packing into one word, which would collide for ids ≥ 2³²)."""
    if len(lo) == 0:
        return lo, hi
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    keep = np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
    return lo[keep], hi[keep]


def cc_star_contraction(
    pairs: "ray.data.Dataset", max_iters: int = 50
) -> "ray.data.Dataset":
    """Distributed connected components by alternating large-star /
    small-star contraction (Kiveris et al., "Connected Components in
    MapReduce and Beyond", SoCC'14): (doc_id_a, doc_id_b) →
    (node, label), label = component min (pinned against brute-force
    union-find in pytest), in O(log) rounds where min-label
    propagation needs rounds ∝ component DIAMETER: each
    round rewires every node's neighbors at the minimum of its closed
    neighborhood, halving path lengths, so a sparse high-diameter
    graph (the part co-occurrence giant component: diameter ~50 at
    sf0.01) converges in ~8 rounds where min-label propagation pays
    ~50 (measured 11 min → tens of seconds).

    Per round: ONE sort of the 2m-row adjacency expansion + a
    vectorized run-scan (minimum.reduceat) emitting the rewired
    edges — no joins, no driver state but the convergence scalar
    (a wraparound hash-sum of the canonical edge set). Warns when
    ``max_iters`` runs out before that hash stops changing: the labels
    of a non-converged star graph need not be component minima."""
    def init_edges(t: pa.Table) -> pa.Table:
        a = t.column("doc_id_a").combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        b = t.column("doc_id_b").combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(a) and min(a.min(), b.min()) < 0:
            raise ValueError("cc_star_contraction requires nonnegative node ids")
        keep = a != b
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        lo, hi = _dedup_pairs(lo, hi)  # per-batch combiner
        return pa.Table.from_arrays(
            [pa.array(lo, pa.int64()), pa.array(hi, pa.int64())],
            names=["u", "v"],
        )

    edges = pairs.map_batches(init_edges, batch_format="pyarrow").materialize()

    def expand(t: pa.Table) -> pa.Table:
        u = t.column("u").combine_chunks()
        v = t.column("v").combine_chunks()
        return pa.Table.from_arrays(
            [pa.concat_arrays([u, v]), pa.concat_arrays([v, u])],
            names=["node", "nbr"],
        )

    _EMPTY_E = pa.schema([("u", pa.int64()), ("v", pa.int64())]).empty_table()

    def star_round(large: bool):
        def emit(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _EMPTY_E
            node = t.column("node").to_numpy(zero_copy_only=False)
            nbr = t.column("nbr").to_numpy(zero_copy_only=False)
            starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
            ends = np.r_[starts[1:], len(node)]
            # rows sorted by (node, nbr): run min is the first nbr
            m = np.minimum(nbr[starts], node[starts])
            run_of = np.repeat(np.arange(len(starts)), ends - starts)
            my_m = m[run_of]
            if large:
                # connect strictly larger neighbors to min(Γ⁺)
                mask = nbr > node
                out_a, out_b = nbr[mask], my_m[mask]
            else:
                # connect smaller neighbors AND the node itself to min(Γ⁺)
                mask = nbr < node
                out_a = np.concatenate([nbr[mask], node[starts]])
                out_b = np.concatenate([my_m[mask], m])
            keep = out_a != out_b
            out_a, out_b = out_a[keep], out_b[keep]
            lo, hi = np.minimum(out_a, out_b), np.maximum(out_a, out_b)
            lo, hi = _dedup_pairs(lo, hi)  # per-batch combiner
            return pa.Table.from_arrays(
                [pa.array(lo, pa.int64()), pa.array(hi, pa.int64())],
                names=["u", "v"],
            )

        return emit

    def edge_hash(ds: "ray.data.Dataset") -> int:
        # wraparound mixing hash-SUM over the (globally deduped) edge
        # set: addition is order- and partitioning-independent, so one
        # scalar per block leaves each task and the driver folds
        # #blocks-bounded partials
        def partial(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({"h": pa.array([0], pa.uint64())})
            lo = t.column("u").to_numpy(zero_copy_only=False).astype(np.uint64)
            hi = t.column("v").to_numpy(zero_copy_only=False).astype(np.uint64)
            with np.errstate(over="ignore"):
                h = (lo * np.uint64(0x9E3779B97F4A7C15)
                     + hi * np.uint64(0xC2B2AE3D27D4EB4F)) ^ (hi >> np.uint64(7))
                s = np.add.reduce(h) + np.uint64(len(h))
            return pa.table({"h": pa.array([int(s)], pa.uint64())})

        tot = np.uint64(0)
        for b in ds.map_batches(
            partial, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow"):
            with np.errstate(over="ignore"):
                for x in b.column("h").to_numpy(zero_copy_only=False):
                    tot = tot + np.uint64(x)
        return int(tot)

    from ..query_utils import _distinct_native, _pin_blocks

    prev = None
    converged = False
    for _ in range(max_iters):
        for large in (True, False):
            # the same rewired edge (v, m) is emitted by MANY node runs;
            # global dedup (one sort) keeps the next expansion lean and
            # makes the convergence hash a set hash, not a multiset one.
            # _pin_blocks (NOT bare materialize): loop state must cut
            # its logical plan or per-round planning compounds ×4
            edges = _pin_blocks(
                _distinct_native(
                    _window_by_key_arrow(
                        edges.map_batches(expand, batch_format="pyarrow"),
                        ["node"], ["node", "nbr"], star_round(large),
                    ),
                    ["u", "v"],
                )
            )
        cur = edge_hash(edges)
        if cur == prev:
            converged = True
            break
        prev = cur
    if not converged:
        warnings.warn(
            f"cc_star_contraction: edge set still changing after "
            f"max_iters={max_iters} rounds; labels may not be component "
            f"minima",
            RuntimeWarning,
            stacklevel=2,
        )

    def labels_fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema(
                [("node", pa.int64()), ("label", pa.int64())]
            ).empty_table()
        node = t.column("node").to_numpy(zero_copy_only=False)
        nbr = t.column("nbr").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
        m = np.minimum(nbr[starts], node[starts])
        return pa.Table.from_arrays(
            [pa.array(node[starts], pa.int64()), pa.array(m, pa.int64())],
            names=["node", "label"],
        )

    return _window_by_key_arrow(
        edges.map_batches(expand, batch_format="pyarrow"),
        ["node"], ["node", "nbr"], labels_fn,
    )


def ngram_dedup_clusters(
    docs: "ray.data.Dataset",
    threshold: float = 0.8,
    n: int = 3,
    assembly: str = "auto",
) -> "ray.data.Dataset":
    """Word n-gram Jaccard dedup clusters (size ≥ 2): LSH pairs →
    connected components. ``assembly='driver'`` runs union-find on the
    collected pairs; ``assembly='distributed'`` runs
    :func:`cc_star_contraction` + a sort/run-scan cluster
    assembly, with nothing but a convergence scalar on the driver —
    the 10^12-scale path (equality-tested against the driver path).
    ``'auto'`` (default) picks by the MEASURED verified-pair count
    (driver below 100k pairs, distributed above)."""
    shingle_fn = lambda t: word_ngrams(t, n)  # noqa: E731
    hash_fn = lambda t: word_ngram_hashes(t, n)  # noqa: E731
    cands = _lsh_candidate_pairs(docs, hash_fn, threshold)
    pairs = _verify_pairs_exact(cands, docs, shingle_fn, threshold)

    if assembly == "auto":
        pairs = pairs.materialize()
        assembly = (
            "driver" if pairs.count() <= _DRIVER_VERIFY_MAX_PAIRS else "distributed"
        )

    if assembly == "distributed":
        # star contraction: O(log) rounds vs min-label's rounds ∝
        # component diameter — near-dup clusters are usually dense,
        # but a CHAIN of near-dups (doc A ~ B ~ C ... with A !~ C) is
        # exactly the high-diameter case
        labels = cc_star_contraction(pairs)

        def clusters_fn(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.Table.from_arrays(
                    [pa.array([], pa.int64()), pa.array([], pa.int64()),
                     pa.array([], pa.list_(pa.int64()))],
                    names=["canonical_doc_id", "cluster_size", "member_ids"],
                )
            lab = t.column("label").to_numpy()
            node = t.column("node").to_numpy()
            starts = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
            ends = np.r_[starts[1:], len(lab)]
            sizes = ends - starts
            keep = sizes >= 2
            # rows arrive sorted by (label, node): each kept run is
            # already an ascending member list — assemble ALL lists with
            # one repeat-mask + ListArray offsets, no per-run Python.
            members = node[np.repeat(keep, sizes)]
            offsets = np.concatenate(([0], np.cumsum(sizes[keep])))
            return pa.Table.from_arrays(
                [
                    pa.array(lab[starts[keep]].astype(np.int64)),
                    pa.array(sizes[keep].astype(np.int64)),
                    pa.ListArray.from_arrays(
                        pa.array(offsets, pa.int32()),
                        pa.array(members.astype(np.int64)),
                    ),
                ],
                names=["canonical_doc_id", "cluster_size", "member_ids"],
            )

        return _window_by_key_arrow(labels, ["label"], ["label", "node"], clusters_fn)

    pair_rows = pairs.take_all()  # verified pairs only: provably small

    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            ra, rb = sorted((ra, rb))
            parent[rb] = ra

    for r in pair_rows:
        union(r["doc_id_a"], r["doc_id_b"])
    clusters: dict = {}
    for d in parent:
        clusters.setdefault(find(d), []).append(d)
    rows = [
        {
            "canonical_doc_id": root,
            "cluster_size": len(members),
            "member_ids": sorted(members),
        }
        for root, members in sorted(clusters.items())
        if len(members) >= 2
    ]
    schema = pa.schema(
        [
            ("canonical_doc_id", pa.int64()),
            ("cluster_size", pa.int64()),
            ("member_ids", pa.list_(pa.int64())),
        ]
    )
    if rows and isinstance(rows[0]["canonical_doc_id"], str):
        schema = pa.schema(
            [
                ("canonical_doc_id", pa.string()),
                ("cluster_size", pa.int64()),
                ("member_ids", pa.list_(pa.string())),
            ]
        )
    return ray.data.from_arrow(pa.Table.from_pylist(rows, schema=schema))
