"""Synthetic dummy-RPC workload (§5.1.2).

A synthetic request carries the base service duration the worker
should "spin" for, exactly like the dummy RPCs in the paper's testbed
(which are specified by the client so any target distribution can be
emulated).
"""

from __future__ import annotations

import random

from repro.workloads.chunks import payloads
from repro.workloads.distributions import ServiceDistribution

__all__ = ["RpcRequest", "SyntheticWorkload"]


class RpcRequest:
    """Payload of one synthetic RPC."""

    __slots__ = ("client_id", "client_seq", "service_ns", "write")

    def __init__(self, client_id: int, client_seq: int, service_ns: int, write: bool = False):
        self.client_id = client_id
        self.client_seq = client_seq
        self.service_ns = service_ns
        #: Writes are never cloned (§5.5); synthetic requests are reads.
        self.write = write

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RpcRequest c{self.client_id}#{self.client_seq} {self.service_ns}ns>"


class SyntheticWorkload:
    """Factory of :class:`RpcRequest` payloads for one client."""

    #: On-wire request size in bytes (small single-packet RPC).
    REQUEST_SIZE = 128
    #: The request size is payload-independent: the clients read this
    #: instead of calling :meth:`request_size` per request.
    fixed_request_size = REQUEST_SIZE

    def __init__(self, distribution: ServiceDistribution, rng: random.Random):
        self.distribution = distribution
        self.rng = rng
        self.name = distribution.name

    def make_request(self, client_id: int, client_seq: int) -> RpcRequest:
        """Draw one request payload."""
        return self.make_request_chunk(client_id, client_seq, 1)[0]

    def make_request_chunk(self, client_id: int, start_seq: int, n: int) -> list:
        """*n* consecutive request payloads, seqs ``start_seq..+n-1``.

        Service times come from one chunked draw on the workload's RNG
        stream, and the payloads are built in one
        :func:`~repro.workloads.chunks.payloads` call (no ``__init__``
        per request), so a chunk equals *n* one-request chunks.
        """
        return payloads(
            RpcRequest,
            n,
            {
                "client_id": [client_id] * n,
                "client_seq": range(start_seq, start_seq + n),
                "service_ns": self.distribution.sample_chunk(self.rng, n),
                "write": [False] * n,
            },
        )

    def request_size(self, request: RpcRequest) -> int:
        """Wire size of the request carrying *request*."""
        return self.fixed_request_size
