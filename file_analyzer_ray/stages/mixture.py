"""Training-stream composition: deterministic multi-source mixing and
epoch shuffling.

A training run over N corpora needs (a) each source downsampled to its
mixture weight, (b) one stream with a source tag, (c) a reproducible
but decorrelated order per epoch. All three are deterministic functions
of content ids here — rerunning a failed job yields byte-identical
streams (the same doctrine as stages/sampling.py):

- ``mix_sources``: per-row Bernoulli keep at the source's weight, keyed
  by ``md5(seed:source:id)`` — row-local, no shuffle, no coordination;
  a source with weight 1.0 passes through untouched.
- ``epoch_shuffle``: ONE global sort by ``md5(seed:epoch:id)`` — the
  scale-honest shuffle (Ray's sort is the exchange you must pay for a
  global permutation; the key is deterministic so resume/replay give
  the same order, and changing ``epoch`` decorrelates orders across
  epochs without reshuffling state).

DuckDB oracles in tests/test_mixture.py recompute both the membership
rule and the permutation order exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data

from ..query_utils import gather

_U32 = 4294967296.0


def _hash_u32(parts: "list[str]") -> "np.ndarray":
    """First-8-hex md5 of ':'-joined parts per row, as uint32 — the
    same content-addressed coin as stages/sampling.py, so SQL oracles
    can recompute it with ``substr(md5(...), 1, 8)``."""
    return np.fromiter(
        (
            int(hashlib.md5(p.encode()).hexdigest()[:8], 16)
            for p in parts
        ),
        dtype=np.uint64,
        count=len(parts),
    )


def mix_sources(
    sources: "dict[str, ray.data.Dataset]",
    weights: "dict[str, float]",
    id_col: str = "doc_id",
    seed: int = 0,
) -> "ray.data.Dataset":
    """{name: dataset} + {name: keep-rate} → one tagged stream. Each
    row keeps iff md5(seed:name:id) < weight (content-addressed
    Bernoulli — deterministic, block-split-invariant, no shuffle)."""
    parts = []
    for name, ds in sources.items():
        w = float(weights[name])

        def keep(t: pa.Table, name=name, w=w) -> pa.Table:
            ids = t.column(id_col).to_pylist()
            h = _hash_u32([f"{seed}:{name}:{i}" for i in ids])
            t = t.filter(pa.array(h < w * _U32))
            return t.append_column(
                "source", pa.array([name] * t.num_rows, pa.string())
            )

        parts.append(ds.map_batches(keep, batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def epoch_shuffle(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    epoch: int = 0,
    seed: int = 0,
) -> "ray.data.Dataset":
    """Deterministic global permutation: sort by md5(seed:epoch:id).
    One exchange; same inputs → same order, next epoch → decorrelated
    order. The shuffle key is dropped from the output."""

    def add_key(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_pylist()
        keys = [
            hashlib.md5(f"{seed}:{epoch}:{i}".encode()).hexdigest()
            for i in ids
        ]
        return t.append_column("_shuffle_key", pa.array(keys, pa.string()))

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    shuffled = keyed.sort(["_shuffle_key", id_col])

    def drop_key(t: pa.Table) -> pa.Table:
        return t.drop_columns(["_shuffle_key"])

    return shuffled.map_batches(drop_key, batch_format="pyarrow")


def source_token_totals(ds: "ray.data.Dataset") -> "dict[str, int]":
    """``(source, text)`` → per-source token totals. Sources are a
    bounded label set (the mixture contract), so each batch reduces to
    ≤ |sources| rows and the driver merges tiny partials — the same
    broadcast-reduce shape as k-means training, never a key shuffle."""
    from ..functions.text import TOKEN_RE

    def partial(t: pa.Table) -> pa.Table:
        srcs = t.column("source").to_pylist()
        agg: dict[str, int] = {}
        for s, txt in zip(srcs, t.column("text").to_pylist()):
            agg[s] = agg.get(s, 0) + len(TOKEN_RE.findall((txt or "").lower()))
        return pa.Table.from_arrays(
            [pa.array(list(agg), pa.string()),
             pa.array(list(agg.values()), pa.int64())],
            names=["source", "n_tokens"],
        )

    out: dict[str, int] = {}
    for r in gather(ds.map_batches(partial, batch_format="pyarrow")).to_pylist():
        out[r["source"]] = out.get(r["source"], 0) + r["n_tokens"]
    return out


def weights_for_token_budget(
    totals: "dict[str, int]", budgets: "dict[str, int]"
) -> "dict[str, float]":
    """Per-source keep-rates that hit each source's TOKEN budget in
    expectation (the practical form of mixture weighting: papers give
    token quotas, the engine needs Bernoulli rates). Rates cap at 1.0 —
    a source smaller than its budget passes through whole (upsampling
    is an epoch-level decision, not a filter's)."""
    return {
        s: min(1.0, budgets[s] / totals[s]) if totals.get(s) else 0.0
        for s in budgets
    }


def weights_for_temperature(
    totals: "dict[str, int]", alpha: float, budget_tokens: int,
) -> "dict[str, float]":
    """Temperature / α-sampling mixture rates (the T5 §3.3.1 /
    multilingual-LM recipe): target share of source i ∝ n_i^α, so
    smaller sources are UP-weighted as α → 0 and proportional sampling
    is recovered at α = 1. The target token counts p_i·budget convert
    to Bernoulli keep-rates exactly like :func:`weights_for_token_budget`
    (cap at 1.0 — upsampling beyond a full pass is an epoch-level
    decision). Deterministic closed form of ``totals`` — the tests
    recompute it independently."""
    if not totals or budget_tokens <= 0:
        return {s: 0.0 for s in totals}
    shares = {s: float(n) ** alpha for s, n in totals.items() if n > 0}
    z = sum(shares.values())
    return {
        s: (
            min(1.0, (shares.get(s, 0.0) / z) * budget_tokens / totals[s])
            if totals.get(s)
            else 0.0
        )
        for s in totals
    }


def mix_by_temperature(
    sources: "dict[str, ray.data.Dataset]",
    totals: "dict[str, int]",
    alpha: float,
    budget_tokens: int,
    id_col: str = "doc_id",
    seed: int = 0,
) -> "ray.data.Dataset":
    """Compose :func:`weights_for_temperature` + :func:`mix_sources`:
    one tagged stream whose expected mixture follows the α-scaled
    shares within the token budget. Deterministic (content-addressed
    Bernoulli keep — rerunning selects identical rows)."""
    return mix_sources(
        sources, weights_for_temperature(totals, alpha, budget_tokens),
        id_col=id_col, seed=seed,
    )


def mix_to_token_budget(
    sources: "dict[str, ray.data.Dataset]",
    budgets: "dict[str, int]",
    totals: "dict[str, int]",
    id_col: str = "doc_id",
    seed: int = 0,
) -> "ray.data.Dataset":
    """Compose :func:`weights_for_token_budget` + :func:`mix_sources`:
    one tagged stream whose expected per-source token count equals the
    budget. Deterministic — rerunning selects the identical rows."""
    return mix_sources(
        sources, weights_for_token_budget(totals, budgets),
        id_col=id_col, seed=seed,
    )
