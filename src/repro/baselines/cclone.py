"""C-Clone: static client-based cloning (§2.2, Vulimiri et al.).

The client always sends ``d = 2`` copies of every request to two
distinct, randomly chosen servers and accepts the faster response —
the setting the paper evaluates.  Cloning is load-agnostic: the
duplicates double server load (halving saturation throughput) and
every response traverses the client's receive path (doubling its
per-packet processing), which is exactly the overhead the paper's
Figure 7/8 curves show.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.apps.client import OpenLoopClient
from repro.baselines.random_lb import PLAIN_RPC_PORT
from repro.errors import ExperimentError
from repro.net.packet import Packet

__all__ = ["CCloneClient"]


class CCloneClient(OpenLoopClient):
    """Open-loop client that duplicates every request to *d* servers."""

    #: Copies per request (the paper's C-Clone setting).
    d = 2

    def __init__(self, *args: Any, server_ips: Sequence[int], **kwargs: Any):
        super().__init__(*args, **kwargs)
        if len(server_ips) < self.d:
            raise ExperimentError(
                f"C-Clone(d={self.d}) needs at least {self.d} servers, "
                f"got {len(server_ips)}"
            )
        self.server_ips = list(server_ips)

    def build_packets(self, request: Any) -> List[Packet]:
        destinations = self.rng.sample(self.server_ips, self.d)
        size = self.workload.request_size(request)
        acquire = self.packet_pool.acquire
        return [
            acquire(self.ip, destination, PLAIN_RPC_PORT, PLAIN_RPC_PORT, size, request)
            for destination in destinations
        ]
