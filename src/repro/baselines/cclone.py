"""C-Clone: static client-based cloning (§2.2, Vulimiri et al.).

The client always sends ``d`` copies of every request to ``d``
distinct, randomly chosen servers and accepts the faster response.
Cloning is load-agnostic: the duplicates multiply server load by *d*
(dividing saturation throughput by the same factor) and every
response traverses the client's receive path (multiplying its
per-packet processing), which is exactly the overhead the paper's
Figure 7/8 curves show for ``d = 2``.

The paper evaluates ``d = 2``; the ``cclone-d3`` / ``cclone-d4``
variants registered here extend the baseline to deeper static
redundancy (a ROADMAP scenario-coverage item) — useful for showing
that more aggressive load-agnostic cloning saturates even earlier
while NetClone's load-aware cloning keeps full throughput.  They are
plugin schemes: registered purely through the scheme registry, with
zero edits to cluster assembly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.apps.client import OpenLoopClient
from repro.baselines.random_lb import PLAIN_RPC_PORT
from repro.errors import ExperimentError
from repro.experiments.schemes import SCHEMES, SchemeContext, SchemeSpec
from repro.net.packet import Packet

__all__ = ["CCloneClient"]


class CCloneClient(OpenLoopClient):
    """Open-loop client that duplicates every request to *d* servers."""

    def __init__(self, *args: Any, server_ips: Sequence[int], d: int = 2, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if d < 2:
            raise ExperimentError("C-Clone needs d >= 2 (d = 1 is the Baseline)")
        if len(server_ips) < d:
            raise ExperimentError(
                f"C-Clone(d={d}) needs at least {d} servers, got {len(server_ips)}"
            )
        self.server_ips = list(server_ips)
        self.d = d

    def build_packets(self, request: Any) -> List[Packet]:
        destinations = self.rng.sample(self.server_ips, self.d)
        size = self.workload.request_size(request)
        return [
            self._new_packet(
                src=self.ip,
                dst=destination,
                sport=PLAIN_RPC_PORT,
                dport=PLAIN_RPC_PORT,
                size=size,
                payload=request,
            )
            for destination in destinations
        ]


def _cclone_d_client(d: int):
    def make(ctx: SchemeContext, common: Dict[str, Any]) -> CCloneClient:
        return CCloneClient(server_ips=ctx.server_ips, d=d, **common)

    return make


for _d in (3, 4):
    SCHEMES.register(
        SchemeSpec(
            name=f"cclone-d{_d}",
            description=f"static client-side cloning, d = {_d}",
            make_client=_cclone_d_client(_d),
            module=__name__,
        )
    )
del _d
