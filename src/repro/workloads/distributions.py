"""Service-time distributions and the jitter model of §5.1.2.

The paper's synthetic workloads draw a *base* service time per request
(exponential with mean 25/50 µs, or a bimodal mix of simple and complex
RPCs) and emulate service-time *variability* separately: with jitter
probability ``p`` a request takes 15× longer than normal on the server
that executes it.  The base time is a property of the request (both
clones share it); jitter is a property of the *execution* (each server
draws independently) — this separation is what makes cloning effective,
and it is modelled the same way here.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

from repro.errors import WorkloadError

__all__ = [
    "BimodalDistribution",
    "ExponentialDistribution",
    "JitterModel",
    "ServiceDistribution",
]


class ServiceDistribution:
    """Base class: draws base service times in integer nanoseconds."""

    #: Human-readable label used in experiment tables.
    name = "base"

    def sample(self, rng: random.Random) -> int:
        """One base service time in ns."""
        raise NotImplementedError

    def sample_chunk(self, rng: random.Random, n: int) -> list:
        """*n* consecutive draws, bit-identical to *n* ``sample`` calls.

        Batched arrival generation consumes these index-wise; concrete
        distributions may override with a vectorised draw as long as
        the RNG stream stays identical to the per-call path.
        """
        return [self.sample(rng) for _ in range(n)]

    @property
    def mean_ns(self) -> float:
        """Analytic mean of the distribution in ns."""
        raise NotImplementedError


class ExponentialDistribution(ServiceDistribution):
    """Exponential service times, the paper's default (mean 25 µs)."""

    def __init__(self, mean_us: float):
        if mean_us <= 0:
            raise WorkloadError("mean must be positive")
        self._mean_ns = mean_us * 1000.0
        self.name = f"Exp({mean_us:g})"

    def sample(self, rng: random.Random) -> int:
        value = rng.expovariate(1.0 / self._mean_ns)
        return int(value) + 1

    def sample_chunk(self, rng: random.Random, n: int) -> list:
        # Same draws as n sample() calls, minus n method dispatches.
        expovariate = rng.expovariate
        rate = 1.0 / self._mean_ns
        return [int(expovariate(rate)) + 1 for _ in range(n)]

    @property
    def mean_ns(self) -> float:
        return self._mean_ns


class BimodalDistribution(ServiceDistribution):
    """A mix of short and long RPCs, e.g. 90 % 25 µs / 10 % 250 µs.

    Each mode is itself exponentially distributed around its mean,
    mirroring how a "simple or complex RPC" mix behaves in practice.
    """

    def __init__(self, modes: Sequence[Tuple[float, float]]):
        if not modes:
            raise WorkloadError("bimodal needs at least one mode")
        total = sum(weight for weight, _ in modes)
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"mode weights must sum to 1, got {total}")
        for weight, mean in modes:
            if weight <= 0 or mean <= 0:
                raise WorkloadError("weights and means must be positive")
        self.modes = [(weight, mean * 1000.0) for weight, mean in modes]
        label = ",".join(f"{weight * 100:g}%-{mean / 1000:g}" for weight, mean in self.modes)
        self.name = f"Bimodal({label})"

    def sample(self, rng: random.Random) -> int:
        pick = rng.random()
        cumulative = 0.0
        mean_ns = self.modes[-1][1]
        for weight, mode_mean in self.modes:
            cumulative += weight
            if pick < cumulative:
                mean_ns = mode_mean
                break
        return int(rng.expovariate(1.0 / mean_ns)) + 1

    @property
    def mean_ns(self) -> float:
        return sum(weight * mean for weight, mean in self.modes)


class JitterModel:
    """Server-side execution jitter (§5.1.2).

    With probability ``p`` an execution suffers interference (GC,
    background tasks, power management, ...) and takes ``factor`` times
    its base service time.  Each server draws independently, so a
    cloned request effectively takes the minimum of two draws.
    """

    def __init__(self, p: float = 0.01, factor: float = 15.0):
        if not 0.0 <= p <= 1.0:
            raise WorkloadError("jitter probability must lie in [0, 1]")
        if factor < 1.0:
            raise WorkloadError("jitter factor must be >= 1")
        self.p = p
        self.factor = factor

    def apply(self, base_ns: int, rng: random.Random) -> int:
        """Final execution time for one server's attempt."""
        if self.p > 0.0 and rng.random() < self.p:
            return int(base_ns * self.factor)
        return base_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JitterModel(p={self.p}, factor={self.factor})"
