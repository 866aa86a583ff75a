"""Workload specifications shared by the experiment harnesses.

A spec bundles the two scheme-independent halves of a workload: the
per-client request generator and the per-server service model.  Specs
are deliberately tiny factories so that every client gets its own RNG
stream and every server its own store replica.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Optional, Sequence, Tuple

from repro.apps.service import KvService, ServiceModel, SyntheticService
from repro.errors import ExperimentError
from repro.kvstore.cost import KvCostModel, MemcachedCostModel, RedisCostModel
from repro.kvstore.store import KeyValueStore
from repro.workloads.distributions import (
    BimodalDistribution,
    ExponentialDistribution,
    ServiceDistribution,
)
from repro.workloads.kv import KvWorkload
from repro.workloads.mmpp import MmppArrivals
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.zipf import ZipfGenerator

__all__ = [
    "KvSpec",
    "MmppSpec",
    "SyntheticSpec",
    "WorkloadSpec",
    "make_synthetic_spec",
]


class WorkloadSpec:
    """Factory pair: client workloads and server services."""

    name = "spec"

    def make_workload(self, rng: random.Random):
        """A request generator for one client."""
        raise NotImplementedError

    def make_service(self, server_index: int) -> ServiceModel:
        """A service model for one server."""
        raise NotImplementedError

    def make_arrival_process(self, rng: random.Random, rate_rps: float):
        """An arrival-gap generator for one client, or ``None``.

        ``None`` (the default) keeps the client's plain exponential
        gaps — bit-identical to the historical Poisson open loop.
        Burst-modelling specs return an object with ``next_gap() ->
        int ns`` and ``set_rate(rate_rps)`` (the client calls it on a
        mid-run rate change); *rng* is the client's dedicated arrival
        stream.
        """
        return None


class SyntheticSpec(WorkloadSpec):
    """Dummy-RPC spec around a service-time distribution factory."""

    def __init__(self, distribution_factory, name: Optional[str] = None):
        self._factory = distribution_factory
        probe: ServiceDistribution = distribution_factory()
        self.name = name if name is not None else probe.name
        self.mean_service_ns = probe.mean_ns

    def make_workload(self, rng: random.Random) -> SyntheticWorkload:
        return SyntheticWorkload(self._factory(), rng)

    def make_service(self, server_index: int) -> SyntheticService:
        return SyntheticService()


def make_synthetic_spec(
    kind: str,
    mean_us: float = 25.0,
    modes: Optional[Sequence[Tuple[float, float]]] = None,
) -> SyntheticSpec:
    """The paper's synthetic workloads by name.

    ``kind`` is ``"exp"`` (Exp(mean)) or ``"bimodal"`` (defaults to the
    paper's 90 %-25 µs / 10 %-250 µs mix when *modes* is omitted).
    """
    # partial() rather than a lambda keeps the spec picklable, so
    # configs embedding it can cross SweepExecutor process boundaries.
    if kind == "exp":
        return SyntheticSpec(partial(ExponentialDistribution, mean_us))
    if kind == "bimodal":
        chosen = tuple(modes) if modes is not None else ((0.9, 25.0), (0.1, 250.0))
        return SyntheticSpec(partial(BimodalDistribution, chosen))
    raise ExperimentError(f"unknown synthetic workload kind {kind!r}")


class MmppSpec(SyntheticSpec):
    """Bursty dummy-RPC spec: MMPP arrivals over a service distribution.

    Service times come from the same synthetic distributions as
    :class:`SyntheticSpec`; only the arrival process changes, so any
    latency difference against the plain spec is attributable to
    burstiness alone.
    """

    def __init__(
        self,
        kind: str = "exp",
        mean_us: float = 25.0,
        burst: float = 8.0,
        high_fraction: float = 0.1,
        period_ms: float = 1.0,
    ):
        base = make_synthetic_spec(kind, mean_us=mean_us)
        super().__init__(
            base._factory,
            name=f"mmpp({burst:g}x,{high_fraction:g})-{base.name}",
        )
        self.burst = burst
        self.high_fraction = high_fraction
        self.period_ms = period_ms

    def make_arrival_process(self, rng: random.Random, rate_rps: float) -> MmppArrivals:
        return MmppArrivals(
            rng,
            rate_rps,
            burst=self.burst,
            high_fraction=self.high_fraction,
            period_s=self.period_ms * 1e-3,
        )


class KvSpec(WorkloadSpec):
    """Key-value spec (§5.5): Zipf-0.99 keys, GET/SCAN-100 mix.

    The skew and the SCAN length are the paper's constants
    (:attr:`KvWorkload.ZIPF_SKEW`, :attr:`KvWorkload.SCAN_COUNT`); the
    cost model, the SCAN share and the key count are the knobs.
    """

    def __init__(
        self,
        cost_model: str = "redis",
        scan_fraction: float = 0.01,
        num_keys: int = 1_000_000,
    ):
        if cost_model == "redis":
            self._cost_factory = RedisCostModel
        elif cost_model == "memcached":
            self._cost_factory = MemcachedCostModel
        else:
            raise ExperimentError(f"unknown cost model {cost_model!r}")
        self.scan_fraction = scan_fraction
        self.num_keys = num_keys
        # One Zipf CDF shared by all clients (it is read-only and costs
        # ~8 MB for a million keys).
        self._zipf = ZipfGenerator(num_keys, KvWorkload.ZIPF_SKEW)
        probe: KvCostModel = self._cost_factory()
        get_pct = round((1.0 - scan_fraction) * 100)
        self.name = f"{probe.name}-{get_pct:g}%GET-{100 - get_pct:g}%SCAN"
        self.mean_service_ns = (1.0 - scan_fraction) * probe.get_ns + scan_fraction * (
            probe.scan_base_ns + probe.scan_per_item_ns * KvWorkload.SCAN_COUNT
        )

    def make_workload(self, rng: random.Random) -> KvWorkload:
        return KvWorkload(
            rng,
            num_keys=self.num_keys,
            scan_fraction=self.scan_fraction,
            zipf=self._zipf,
        )

    def make_service(self, server_index: int) -> KvService:
        return KvService(KeyValueStore(self.num_keys), self._cost_factory())
