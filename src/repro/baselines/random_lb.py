"""Baseline: random server selection, no cloning (§5.1.3).

"The baseline sends requests to workers randomly without cloning."
The switch forwards by plain L3 routing; servers respond directly to
the client.

:meth:`BaselineClient.build_packets` below is the reference.  With the
C core live (``USING_CCORE``) the class names the C twin,
``_ccore.ClientCore._baseline_packets``, instead, which replays
``rng.choice`` from a ``random.Random`` in C (and calls it for any
other RNG class).
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.apps.client import OpenLoopClient
from repro.errors import ExperimentError
from repro.net.packet import Packet
from repro.sim.core import USING_CCORE

if USING_CCORE:
    from repro.sim import _ccore

__all__ = ["BaselineClient", "PLAIN_RPC_PORT"]

#: UDP port for non-NetClone RPC traffic.
PLAIN_RPC_PORT = 7000


class BaselineClient(OpenLoopClient):
    """Open-loop client that sprays requests over the servers uniformly."""

    def __init__(self, *args: Any, server_ips: Sequence[int], **kwargs: Any):
        super().__init__(*args, **kwargs)
        if not server_ips:
            raise ExperimentError("baseline client needs at least one server")
        self.server_ips = list(server_ips)

    def build_packets(self, request: Any) -> List[Packet]:
        destination = self.rng.choice(self.server_ips)
        size = self._fixed_req_size
        if size is None:
            size = self.workload.request_size(request)
        return [
            self.packet_pool.acquire(
                self.ip,
                destination,
                PLAIN_RPC_PORT,
                PLAIN_RPC_PORT,
                size,
                request,
            )
        ]

    if USING_CCORE:
        # In this class's own dict on either engine, so a class-level
        # wrapper of ``BaselineClient.build_packets`` sees every build.
        build_packets = _ccore.ClientCore._baseline_packets  # noqa: F811
