"""Zipfian key popularity.

The Redis/Memcached experiments use a skewed access pattern
(Zipf-0.99 over 1 M objects, §5.5).  Sampling inverts a precomputed
CDF, kept as one float64 array (8 MB for 1 M keys) that every client
shares: a chunk of draws is *n* ``rng.random()`` values and one
``searchsorted`` over the array, O(log n) per draw after an O(n)
setup.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from repro.errors import WorkloadError

__all__ = ["ZipfGenerator"]


class ZipfGenerator:
    """Draws keys in ``[0, num_keys)`` with Zipf(s) popularity."""

    def __init__(self, num_keys: int, skew: float = 0.99):
        if num_keys <= 0:
            raise WorkloadError("num_keys must be positive")
        if skew < 0:
            raise WorkloadError("skew must be non-negative")
        self.num_keys = num_keys
        self.skew = skew
        ranks = np.arange(1, num_keys + 1, dtype=np.float64)
        weights = ranks ** (-skew)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        self._cdf: np.ndarray = cdf

    def sample(self, rng: random.Random) -> int:
        """One key, 0-based, rank 0 being the most popular."""
        return self.sample_chunk(rng, 1)[0]

    def sample_chunk(self, rng: random.Random, n: int) -> List[int]:
        """*n* keys from *n* ``rng.random()`` draws: for each, the first
        rank whose CDF value is not below it (``bisect_left``)."""
        draw = rng.random
        draws = np.fromiter([draw() for _ in range(n)], np.float64, n)
        return self._cdf.searchsorted(draws, side="left").tolist()

    def popularity(self, key: int) -> float:
        """Probability mass of *key*."""
        if not 0 <= key < self.num_keys:
            raise WorkloadError(f"key {key} out of range")
        previous = self._cdf[key - 1] if key > 0 else 0.0
        return float(self._cdf[key] - previous)

