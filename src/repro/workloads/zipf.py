"""Zipfian key popularity.

The Redis/Memcached experiments use a skewed access pattern
(Zipf-0.99 over 1 M objects, §5.5).  Sampling uses a precomputed CDF
and binary search — O(log n) per draw after an O(n) setup shared by
every client.
"""

from __future__ import annotations

import bisect
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
        self._cdf: List[float] = cdf.tolist()

    def sample(self, rng: random.Random) -> int:
        """One key, 0-based, rank 0 being the most popular."""
        return bisect.bisect_left(self._cdf, rng.random())

    def popularity(self, key: int) -> float:
        """Probability mass of *key*."""
        if not 0 <= key < self.num_keys:
            raise WorkloadError(f"key {key} out of range")
        previous = self._cdf[key - 1] if key > 0 else 0.0
        return self._cdf[key] - previous

