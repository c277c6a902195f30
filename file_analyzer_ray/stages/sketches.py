"""Approximate aggregation sketches for corpus-scale diagnostics.

HyperLogLog distinct-count (Flajolet et al. 2007, with the standard
small-range correction): mergeable register arrays make it the right
shape for Ray two-level aggregation — each batch reduces to one 2^p
register array (vectorized numpy), registers merge by elementwise max,
and the estimate is computed once at the end. No exact-distinct
shuffle: at 10^12 docs an exact ``count(DISTINCT)`` is a full exchange
of every key; the sketch crosses the wire in 2^p bytes per batch.

New capability vs the reference (SURVEY.md §2.5 notes it has no
sketches); flagged rows-only for the driver (pytest bounds the error
vs the exact count).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ..functions.hashing import stable_u64
from ..query_utils import gather


def _hll_params(p: int) -> tuple[int, float]:
    m = 1 << p
    if m >= 128:
        alpha = 0.7213 / (1 + 1.079 / m)
    elif m == 64:
        alpha = 0.709
    elif m == 32:
        alpha = 0.697
    else:
        alpha = 0.673
    return m, alpha


def _leading_zeros64(x: np.ndarray) -> np.ndarray:
    """Vectorized count of leading zeros of uint64 values (0 → 64),
    via binary descent on shifted comparisons — exact for all 64 bits
    (no float log2 precision traps)."""
    lz = np.zeros(len(x), dtype=np.int64)
    cur = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        low = cur < (np.uint64(1) << np.uint64(64 - shift))
        lz += np.where(low, shift, 0)
        cur = np.where(low, cur << np.uint64(shift), cur)
    return np.where(x == 0, 64, lz)


def hll_registers(values: np.ndarray, p: int = 12) -> np.ndarray:
    """Vectorized register array for a batch of uint64 hashes: index =
    top p bits, rank = leading zeros of the remaining bits + 1."""
    m, _ = _hll_params(p)
    idx = (values >> np.uint64(64 - p)).astype(np.int64)
    rest = values << np.uint64(p)
    rank = np.minimum(_leading_zeros64(rest) + 1, 64 - p + 1).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray, p: int = 12) -> float:
    m, alpha = _hll_params(p)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting, small range
    return float(est)


def approx_distinct(
    ds: "ray.data.Dataset", column: str, p: int = 12
) -> pd.DataFrame:
    """Approximate global distinct count of ``column``: per-batch
    register arrays → elementwise-max merge → one estimate. Returns a
    1-row DataFrame {n_distinct_approx, precision_p}."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vals = np.fromiter(
            (stable_u64(str(v).encode(), b"hll:") for v in df[column]),
            dtype=np.uint64,
            count=len(df),
        )
        regs = hll_registers(vals, p)
        return pd.DataFrame({"regs": [regs.tobytes()]})

    parts = gather(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    ).to_pylist()
    merged = np.zeros(1 << p, dtype=np.uint8)
    for r in parts:
        merged = np.maximum(merged, np.frombuffer(r["regs"], dtype=np.uint8))
    return pd.DataFrame(
        [{"n_distinct_approx": round(hll_estimate(merged, p)), "precision_p": p}]
    )


def approx_distinct_by(
    ds: "ray.data.Dataset", key: str, column: str, p: int = 12
) -> pd.DataFrame:
    """Per-group approximate distinct counts — one HLL register array
    per key, merged by elementwise max (HLL's mergeability is the
    whole point: per-batch partials are fixed 2^p bytes PER KEY seen
    in the batch, and the union of two sketches is their max). Key
    cardinality must be bounded (the events_value_percentiles
    contract: 5 event types; an unbounded key space would route
    through the sort+run-scan merge instead). Returns
    {key, n_distinct_approx, precision_p} sorted by key."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for k, sub in df.groupby(key, sort=False):
            vals = np.fromiter(
                (stable_u64(str(v).encode(), b"hll:") for v in sub[column]),
                dtype=np.uint64,
                count=len(sub),
            )
            rows.append({key: k, "regs": hll_registers(vals, p).tobytes()})
        return pd.DataFrame(rows, columns=[key, "regs"])

    parts = gather(ds.map_batches(
        partial, batch_format="pandas", batch_size=65536
    )).to_pylist()  # bounded: blocks x distinct keys
    merged: dict = {}
    for r in parts:
        regs = np.frombuffer(r["regs"], dtype=np.uint8)
        k = r[key]
        merged[k] = np.maximum(merged[k], regs) if k in merged else regs
    return pd.DataFrame(
        [
            {
                key: k,
                "n_distinct_approx": round(hll_estimate(m, p)),
                "precision_p": p,
            }
            for k, m in sorted(merged.items())
        ]
    )


def approx_quantiles(
    ds: "ray.data.Dataset",
    column: str,
    by: str,
    qs: tuple[float, ...] = (0.5, 0.9),
    bins: int = 4096,
) -> pd.DataFrame:
    """Mergeable two-pass histogram quantile sketch, grouped by ``by``.

    Pass 1 finds per-group [min, max] (per-batch partials, tiny driver
    merge — group count is bounded); pass 2 builds one equi-width
    ``bins``-bucket histogram per group per batch (vectorized
    ``np.histogram`` against broadcast shared edges) and merges them by
    SUM. Quantiles interpolate linearly inside the winning bucket, so
    the value error is bounded by one bin width = (max−min)/bins —
    deterministic, order-independent, and each batch contributes only
    ``groups × bins`` counts to the wire (the exact per-group sort at
    10^12 rows is a full exchange; this is the documented swap for
    ``events_value_percentiles`` at scale)."""
    import ray

    def mm_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(by)[column].agg(["min", "max"]).reset_index()
        return g

    mm = (
        gather(ds.map_batches(mm_partial, batch_format="pandas", batch_size=65536))
        .to_pandas()
        .groupby(by)
        .agg({"min": "min", "max": "max"})
    )
    edges = {
        k: np.linspace(row["min"], row["max"], bins + 1)
        for k, row in mm.iterrows()
    }
    eref = ray.put(edges)

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        ed = ray.get(eref)
        rows = []
        for k, sub in df.groupby(by):
            h, _ = np.histogram(sub[column].to_numpy(), bins=ed[k])
            rows.append({by: k, "hist": h.astype(np.int64).tobytes()})
        return pd.DataFrame(rows)

    parts = gather(ds.map_batches(
        hist_partial, batch_format="pandas", batch_size=65536
    )).to_pandas()
    out_rows = []
    for k, sub in parts.groupby(by):
        h = np.sum(
            [np.frombuffer(b, dtype=np.int64) for b in sub["hist"]], axis=0
        )
        ed = edges[k]
        csum = np.cumsum(h)
        total = int(csum[-1])

        def est_order_stat(rank: int) -> float:
            """Estimated value of the rank-th order statistic (1-based):
            locate its bin, place it uniformly among the bin's values —
            always inside the correct bin, so error ≤ one bin width."""
            rank = min(max(rank, 1), total)
            b = int(np.searchsorted(csum, rank, side="left"))
            b = min(b, bins - 1)
            prev = int(csum[b - 1]) if b > 0 else 0
            pos = (rank - prev - 0.5) / max(int(h[b]), 1)
            return float(ed[b] + pos * (ed[b + 1] - ed[b]))

        row = {by: k}
        for q in qs:
            # quantile_cont convention: continuous rank 1 + q·(n−1),
            # linear between the two bracketing order statistics.
            r = 1 + q * (total - 1)
            lo = int(np.floor(r))
            frac = r - lo
            row[f"q{int(q*100)}"] = (
                (1 - frac) * est_order_stat(lo) + frac * est_order_stat(lo + 1)
            )
        # per-group deterministic error bound (one bin width; the
        # interpolated estimate mixes two order statistics, each inside
        # its true bin) — lets callers self-verify the sketch.
        row["bin_width"] = float(ed[1] - ed[0])
        out_rows.append(row)
    return pd.DataFrame(out_rows).sort_values(by).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Misra–Gries heavy hitters (mergeable summaries, Agarwal et al. 2012)
# + exact second pass over the bounded candidate set: the 100 TB top-k
# shape when the TERM SPACE is unbounded — per-batch state is capped at
# ``sketch_k`` counters no matter the vocabulary, candidates are
# guaranteed to contain every term with true count > N/(sketch_k+1),
# and the final counts are EXACT (re-counted for candidates only).


def _mg_truncate(words: np.ndarray, counts: np.ndarray, k: int):
    """Misra–Gries truncation of an exact count table to ≤ k counters:
    subtract the (k+1)-th largest count from every counter, keep the
    positive ones. Each counter's undercount is ≤ the subtracted value;
    summed over all truncations the total undercount of any term is
    ≤ N/(k+1) (the mergeable-summaries bound)."""
    if len(words) <= k:
        return words, counts
    sub = np.partition(counts, len(counts) - k - 1)[len(counts) - k - 1]
    c2 = counts - sub
    m = c2 > 0
    return words[m], c2[m]


def _cms_slots(terms: np.ndarray, width: int, depth: int) -> np.ndarray:
    """(n_terms, depth) slot indices — row r lives in the flat sketch at
    ``r*width + h_r(term) % width``. One sha256 per (distinct term, row):
    the per-batch-distinct hashing convention the classifier pinned."""
    out = np.empty((len(terms), depth), dtype=np.int64)
    for r in range(depth):
        salt = f"cms{r}:".encode()
        out[:, r] = [
            r * width + int(stable_u64(t.encode(), salt) % width) for t in terms
        ]
    return out


def countmin_sketch(
    ds: "ray.data.Dataset", width: int = 2048, depth: int = 4
) -> tuple[np.ndarray, int]:
    """``(text)`` → (flat count-min sketch of depth×width int64 counters,
    total token count N). Cormode–Muthukrishnan '05: per-batch partials
    are SPARSE (slot, n) rows (≤ depth × batch-distinct-terms of them —
    never the term space), merged per slot by the engine's ONE
    sort + run-scan — scale-safe at any batch count. Point estimates
    (min over rows) are always ≥ the true count; each is ≤ true +
    ⌈e/width·N⌉ with probability ≥ 1−e^−depth."""
    import pyarrow as pa

    from ..query_utils import _run_starts_mask_arrow, _window_by_key_arrow

    def partial(t: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc

        txt = t.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks = pc.split_pattern_regex(pc.utf8_lower(txt), "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        if len(flat) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["slot", "n"],
            )
        # distinct + counts in Arrow C++; only batch-distinct terms are
        # hashed in Python below (the classifier's pinned convention)
        vc = flat.value_counts()
        uniq = np.asarray(vc.field("values").to_pylist(), dtype=object)
        cnt = vc.field("counts").to_numpy()
        slots = _cms_slots(uniq, width, depth)  # (u, depth)
        n = np.broadcast_to(cnt[:, None], slots.shape)
        # total-token count rides slot -1 (outside the sketch range)
        return pa.Table.from_arrays(
            [pa.array(np.r_[slots.ravel(), -1]),
             pa.array(np.r_[n.ravel(), cnt.sum()].astype(np.int64))],
            names=["slot", "n"],
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", batch_size=4096)

    def merge(t: "pa.Table") -> "pa.Table":
        if t.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["slot", "n"],
            )
        starts = np.flatnonzero(_run_starts_mask_arrow(t, ["slot"]))
        sums = np.add.reduceat(t.column("n").to_numpy(), starts)
        return pa.Table.from_arrays(
            [t.column("slot").take(pa.array(starts)),
             pa.array(sums.astype(np.int64))],
            names=["slot", "n"],
        )

    # merged table is hard-bounded at depth*width+1 rows → driver fold
    rows = gather(_window_by_key_arrow(parts, ["slot"], ["slot"], merge)).to_pylist()
    sketch = np.zeros(depth * width, dtype=np.int64)
    total = 0
    for r in rows:
        if r["slot"] < 0:
            total = int(r["n"])
        else:
            sketch[r["slot"]] = int(r["n"])
    return sketch, total


def countmin_query(
    sketch: np.ndarray, terms: "list[str]", width: int, depth: int
) -> np.ndarray:
    """Point estimates for ``terms``: min over the depth rows."""
    slots = _cms_slots(np.asarray(terms, dtype=object), width, depth)
    return sketch[slots].min(axis=1)


def heavy_hitter_terms(
    ds: "ray.data.Dataset", k: int = 10, sketch_k: int = 256
) -> "ray.data.Dataset":
    """``(text)`` → exact top-``k`` terms ``(term, n, guarantee_ok)``.

    Pass 1 (sketch): each batch reduces to ≤ ``sketch_k`` MG counters
    (np.unique + one partition — no per-term Python); summaries merge
    on the driver by counter addition + MG truncation. Only
    O(batches × sketch_k) tiny rows ever cross the wire — never the
    term space. Pass 2 (exact): the ≤ sketch_k candidates are broadcast
    via ``ray.put`` and re-counted exactly; the global N rides along.

    ``guarantee_ok`` (same value on every row) self-verifies the
    result: True iff the k-th exact candidate count exceeds
    N/(sketch_k+1), the maximum count any non-candidate term can have —
    when set, the output provably equals the exact top-k (modulo ties
    at the boundary, broken by term ascending)."""
    import pyarrow as pa

    from ..functions.text import TOKEN_RE

    def batch_terms(t: "pa.Table") -> np.ndarray:
        toks: list[str] = []
        for txt in t.column("text").to_pylist():
            toks.extend(TOKEN_RE.findall((txt or "").lower()))
        return np.asarray(toks, dtype=object).astype(str)

    def mg_partial(t: "pa.Table") -> "pa.Table":
        toks = batch_terms(t)
        if len(toks) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64()),
                 pa.array([], pa.int64())],
                names=["term", "n", "total"],
            )
        uniq, cnt = np.unique(toks, return_counts=True)
        total = int(cnt.sum())
        w, c = _mg_truncate(uniq, cnt.astype(np.int64), sketch_k)
        totals = np.zeros(len(w), dtype=np.int64)
        totals[0] = total  # batch token total rides on the first row
        return pa.Table.from_arrays(
            [pa.array(w.tolist(), pa.string()), pa.array(c), pa.array(totals)],
            names=["term", "n", "total"],
        )

    parts = gather(ds.map_batches(mg_partial, batch_format="pyarrow")).to_pylist()
    agg: dict[str, int] = {}
    n_total = 0
    for r in parts:
        agg[r["term"]] = agg.get(r["term"], 0) + r["n"]
        n_total += r["total"]
    words = np.asarray(list(agg), dtype=object)
    counts = np.asarray([agg[w] for w in words], dtype=np.int64)
    cand_w, _ = _mg_truncate(words, counts, sketch_k)
    cand = frozenset(cand_w.tolist())
    cref = ray.put(cand)

    def exact_partial(t: "pa.Table") -> "pa.Table":
        cs = ray.get(cref)
        toks = batch_terms(t)
        if len(toks) == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["term", "n"],
            )
        uniq, cnt = np.unique(toks, return_counts=True)
        keep = np.fromiter((u in cs for u in uniq), dtype=bool, count=len(uniq))
        return pa.Table.from_arrays(
            [pa.array(uniq[keep].tolist(), pa.string()),
             pa.array(cnt[keep].astype(np.int64))],
            names=["term", "n"],
        )

    exact = ds.map_batches(exact_partial, batch_format="pyarrow")

    bound = n_total / (sketch_k + 1)

    def merge(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("term", as_index=False)["n"].sum()
        g = g.sort_values(["n", "term"], ascending=[False, True]).head(k)
        g["guarantee_ok"] = bool(
            len(g) < k or g["n"].iloc[-1] > bound
        )
        return g.reset_index(drop=True)

    # candidate set is ≤ sketch_k keys → merged on the driver
    part = gather(exact, pa.schema([("term", pa.string()), ("n", pa.int64())]))
    return ray.data.from_pandas(merge(part.to_pandas()))
