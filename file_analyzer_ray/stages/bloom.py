"""Vectorized Bloom filter for semi-join pushdown.

At 100 TB the build side of a semi/anti join can be too large to
broadcast exactly but far too small to justify shuffling the probe
side: a Bloom filter of the build keys is a fixed-size bit array that
broadcasts once (``ray.put``) and filters the probe stream inside
``map_batches`` with NO false negatives — rows that pass are then
exact-verified by the (now much smaller) hash join. Standard public
construction (Bloom 1970): k salted hashes per key over an m-bit
array; FP rate ≈ (1 − e^(−kn/m))^k.

All operations are vectorized numpy over uint64 hash arrays (one
``stable_u64``-seeded multiply-shift family per salt, no per-key
Python in either build or probe).
"""

from __future__ import annotations

import numpy as np

from ..functions.hashing import stable_u64

_MIX = np.uint64(0x9E3779B97F4A7C15)  # Fibonacci hashing constant


def _hash_keys(keys: np.ndarray, salt: int) -> np.ndarray:
    """Salted 64-bit mix of an int64/uint64 key array (vectorized)."""
    h = keys.astype(np.uint64, copy=False) ^ np.uint64(
        stable_u64(salt.to_bytes(4, "little"), b"bloom:")
    )
    h = (h ^ (h >> np.uint64(33))) * _MIX
    return h ^ (h >> np.uint64(29))


class BloomFilter:
    """m-bit Bloom filter over integer keys, k salted hash functions.
    ``bits`` is a packed uint8 numpy array — small enough to ``ray.put``
    (m=2^24 bits = 2 MiB covers ~1.7M keys at 1% FP)."""

    def __init__(self, log2_m: int = 24, k: int = 4):
        self.log2_m = log2_m
        self.k = k
        self.mask = np.uint64((1 << log2_m) - 1)
        self.bits = np.zeros(1 << (log2_m - 3), dtype=np.uint8)

    def add(self, keys: np.ndarray) -> None:
        for salt in range(self.k):
            idx = (_hash_keys(keys, salt) & self.mask).astype(np.int64)
            np.bitwise_or.at(self.bits, idx >> 3, np.uint8(1) << (idx & 7).astype(np.uint8))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test: True = maybe present (no false
        negatives), False = definitely absent."""
        out = np.ones(len(keys), dtype=bool)
        for salt in range(self.k):
            idx = (_hash_keys(keys, salt) & self.mask).astype(np.int64)
            out &= (self.bits[idx >> 3] & (np.uint8(1) << (idx & 7).astype(np.uint8))) != 0
        return out

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise-OR merge (per-batch partial filters union exactly)."""
        assert self.log2_m == other.log2_m and self.k == other.k
        self.bits |= other.bits
        return self


def keys_i64(arr) -> np.ndarray:
    """Key array → int64 for the hash family: integer keys pass
    through; string/object keys get a deterministic vectorized 64-bit
    hash (pandas ``hash_array`` — siphash with a fixed key, stable
    across processes regardless of PYTHONHASHSEED). Build and probe
    must use the same conversion."""
    a = np.asarray(arr)
    if a.dtype.kind in "iu":
        return a.astype(np.int64, copy=False)
    import pandas as pd

    return pd.util.hash_array(a.astype(object)).view(np.int64)


def build_bloom(ds, column: str, log2_m: int = 24, k: int = 4) -> BloomFilter:
    """Distributed build: per-batch partial filters (vectorized add),
    merged by OR on the driver — each batch contributes one fixed-size
    bit array regardless of row count. Keys may be integers or strings
    (see :func:`keys_i64`)."""
    import pandas as pd

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        bf = BloomFilter(log2_m, k)
        bf.add(keys_i64(df[column].to_numpy()))
        return pd.DataFrame({"bits": [bf.bits.tobytes()]})

    from ..query_utils import gather

    parts = gather(
        ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    ).to_pylist()
    out = BloomFilter(log2_m, k)
    for r in parts:
        out.bits |= np.frombuffer(r["bits"], dtype=np.uint8)
    return out


def bloom_semi_filter(probe_ds, column: str, bloom: "BloomFilter"):
    """Semi-join pushdown: keep only probe rows whose key MIGHT be in
    the build side (exact-verify downstream with a now-small join).
    The filter broadcasts once via ``ray.put``."""
    import pandas as pd

    import ray

    bref = ray.put(bloom)

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        bf = ray.get(bref)
        return df.loc[bf.contains(keys_i64(df[column].to_numpy()))]

    return probe_ds.map_batches(filt, batch_format="pandas")
