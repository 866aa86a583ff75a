"""LÆDGE: coordinator-based dynamic cloning (Primorac et al., NSDI'21).

The state-of-the-art comparison scheme (§2.2, §5.3.1).  A CPU-based
coordinator sits between clients and servers:

* a request finding **two or more idle servers** is cloned to two
  randomly chosen idle servers;
* with **at least one server below its slot limit** it is forwarded,
  un-cloned, to the least-loaded server;
* otherwise it is **queued** in the coordinator and dispatched when a
  response frees a slot (guaranteeing dispatched-to-idle semantics).

Responses flow back through the coordinator (it must observe
completions to manage its queue and server bookkeeping), which
forwards the first response of each request to the client and absorbs
redundant ones.  Every packet through the coordinator costs CPU —
that per-packet cost, modelled by the host NIC costs, is what caps
LÆDGE's throughput in Figure 8 and adds the microseconds of latency
overhead §2.2 criticises.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Deque, Dict, List, Sequence, Tuple

from repro.apps.client import OpenLoopClient
from repro.baselines.random_lb import PLAIN_RPC_PORT
from repro.errors import ExperimentError
from repro.net.host import Host
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.sim.monitor import Counter

__all__ = ["LAEDGE_PORT", "LaedgeClient", "LaedgeCoordinator"]

#: UDP port for client<->coordinator traffic.
LAEDGE_PORT = 7100


class LaedgeClient(OpenLoopClient):
    """Open-loop client that addresses every request to the coordinator."""

    def __init__(self, *args: Any, coordinator_ip: int, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.coordinator_ip = coordinator_ip

    def build_packets(self, request: Any) -> List[Packet]:
        return [
            self.packet_pool.acquire(
                self.ip,
                self.coordinator_ip,
                LAEDGE_PORT,
                LAEDGE_PORT,
                self.workload.request_size(request),
                request,
            )
        ]


class LaedgeCoordinator(Host):
    """The cloning coordinator.

    ``slots_per_server`` bounds how many requests may be outstanding
    at one server before the coordinator queues; 1 reproduces strict
    dispatch-one-at-a-time LÆDGE, while the default of the server
    worker-thread count is the generous reading that lets LÆDGE use
    multi-threaded servers.  The coordinator is the bottleneck either
    way, which is the point of Figure 8.

    Every packet it forwards is a fresh one from its pool, and every
    packet it consumes goes back: a client request once it is
    dispatched (after both copies, when cloned), a server response
    once it is forwarded or absorbed.  Extra keyword arguments
    (``packet_pool``) go to :class:`Host`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
        server_ips: Sequence[int],
        rng: random.Random,
        slots_per_server: int = 15,
        cpu_cost_ns: int = 600,
        **host_kwargs: Any,
    ):
        super().__init__(
            sim,
            name,
            ip,
            tx_cost_ns=cpu_cost_ns,
            rx_cost_ns=cpu_cost_ns,
            rx_queue_limit=65536,
            **host_kwargs,
        )
        if len(server_ips) < 2:
            raise ExperimentError("LÆDGE needs at least two servers")
        if slots_per_server <= 0:
            raise ExperimentError("slots_per_server must be positive")
        self.server_ips = list(server_ips)
        self.rng = rng
        self.slots_per_server = slots_per_server
        self.outstanding: Dict[int, int] = {ip_: 0 for ip_ in self.server_ips}
        self.pending: Deque[Packet] = deque()
        #: key -> [client_ip, expected_responses, received_responses]
        self._inflight: Dict[Tuple[int, int], List[int]] = {}
        self.counters = Counter()

    # ------------------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        payload = packet.payload
        if payload is None:
            packet.release()
            return
        if packet.src in self.outstanding:
            self._handle_response(packet)
        else:
            self._handle_request(packet)

    # -- request path ----------------------------------------------------
    def _handle_request(self, packet: Packet) -> None:
        key = (packet.payload.client_id, packet.payload.client_seq)
        self.counters.incr("requests")
        idle = [ip_ for ip_, used in self.outstanding.items() if used == 0]
        if len(idle) >= 2 and not getattr(packet.payload, "write", False):
            targets = self.rng.sample(idle, 2)
            self._inflight[key] = [packet.src, 2, 0]
            self.counters.incr("cloned")
            for target in targets:
                self._dispatch(packet, target)
            packet.release()
            return
        below_limit = [
            ip_ for ip_, used in self.outstanding.items() if used < self.slots_per_server
        ]
        if below_limit:
            target = min(below_limit, key=lambda ip_: self.outstanding[ip_])
            self._inflight[key] = [packet.src, 1, 0]
            self.counters.incr("forwarded")
            self._dispatch(packet, target)
            packet.release()
            return
        self.counters.incr("queued")
        self.pending.append(packet)

    def _dispatch(self, packet: Packet, server_ip: int) -> None:
        self.outstanding[server_ip] += 1
        self._forward(packet, server_ip, PLAIN_RPC_PORT)

    def _forward(self, packet: Packet, dst: int, port: int) -> None:
        """Send a fresh pooled copy of *packet* to *dst* on *port*."""
        self.send(
            self.packet_pool.acquire(
                self.ip,
                dst,
                port,
                port,
                packet.size,
                packet.payload,
                created_at=packet.created_at,
            )
        )

    # -- response path -----------------------------------------------------
    def _handle_response(self, packet: Packet) -> None:
        server_ip = packet.src
        if self.outstanding.get(server_ip, 0) > 0:
            self.outstanding[server_ip] -= 1
        key = (packet.payload.client_id, packet.payload.client_seq)
        entry = self._inflight.get(key)
        if entry is None:
            self.counters.incr("responses_unmatched")
        else:
            client_ip, expected, received = entry
            received += 1
            entry[2] = received
            if received >= expected:
                del self._inflight[key]
            if received == 1:
                self.counters.incr("responses_forwarded")
                self._forward(packet, client_ip, LAEDGE_PORT)
            else:
                self.counters.incr("responses_absorbed")
        packet.release()
        self._drain_queue()

    def _drain_queue(self) -> None:
        """Dispatch buffered requests while capacity exists."""
        while self.pending:
            below = [
                ip_
                for ip_, used in self.outstanding.items()
                if used < self.slots_per_server
            ]
            if not below:
                return
            target = min(below, key=lambda ip_: self.outstanding[ip_])
            queued = self.pending.popleft()
            key = (queued.payload.client_id, queued.payload.client_seq)
            self._inflight[key] = [queued.src, 1, 0]
            self.counters.incr("dispatched_from_queue")
            self._dispatch(queued, target)
            queued.release()

    @property
    def queue_len(self) -> int:
        """Requests currently buffered in the coordinator."""
        return len(self.pending)
