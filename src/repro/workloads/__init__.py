"""Workload generation: service-time distributions, jitter, Zipf, KV mixes."""

from repro.workloads.distributions import (
    BimodalDistribution,
    ExponentialDistribution,
    JitterModel,
    ServiceDistribution,
)
from repro.workloads.kv import KvOp, KvRequest, KvWorkload
from repro.workloads.mmpp import MmppArrivals
from repro.workloads.synthetic import RpcRequest, SyntheticWorkload
from repro.workloads.zipf import ZipfGenerator

__all__ = [
    "BimodalDistribution",
    "ExponentialDistribution",
    "JitterModel",
    "KvOp",
    "KvRequest",
    "KvWorkload",
    "MmppArrivals",
    "RpcRequest",
    "ServiceDistribution",
    "SyntheticWorkload",
    "ZipfGenerator",
]
