"""The worker server application (§4.2 server, §3.4 server-side rules).

One dispatcher thread (modelled by the NIC RX serialisation) feeds a
global FCFS request queue drained by ``num_workers`` worker threads.
NetClone-specific behaviour, both switchable for the baselines:

* **clone dropping** — a cloned request (``CLO == 2``) arriving while
  the queue is non-empty is dropped, because the tracked state that
  triggered the clone was stale (§3.4);
* **state piggybacking** — responses carry the current queue length in
  the STATE field (0 means idle; RackSched integration reads it as a
  queue length, plain NetClone as a binary state).

Execution jitter (the 15× slowdowns of §5.1.2) is applied per
*execution*, so the two sides of a cloned request draw independently —
that is the variability cloning masks.

The request path — :meth:`~_ServerCore.handle`, ``_start_work``,
``_finish_work`` and ``_respond`` — lives on :class:`_ServerCore`, which
extends the host's base (``net/host.py``'s ``_HostCore``) with the
server state, so one object holds both the NIC slots and the server.
With the C core live (``USING_CCORE``) that base is
``_ccore.ServerCore``, which runs the path with no Python frame.  For
a :class:`~repro.apps.service.KvService` it also replays the service
time, the jitter, ``execute`` (a GET's or SCAN's checks and counter)
and the response size, as long as Python would resolve each method
to the one registered below (``KvService``'s, ``KvCostModel``'s,
``KeyValueStore``'s and ``JitterModel``'s own).  It calls back into
Python for any other service or jitter, a subclass override or a
class-level wrapper of those methods, a case the replay does not
cover (a SET, a key outside the keyspace), the RNG draw, and any of
its own methods, ``send``, ``release`` or ``acquire`` that Python
would not resolve to the C method (a class-level wrapper, the
sanitizer's pool).  The Python class below is the reference and the
``REPRO_PURE_SIM=1`` path.  :class:`RpcServer` combines
:class:`~repro.net.host.Host` with whichever is live.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Deque, Optional

from repro.apps.service import KvService, ServiceModel
from repro.core.constants import (
    CLO_CLONED_COPY,
    MSG_REQ,
    MSG_RESP,
    NETCLONE_UDP_PORT,
)
from repro.errors import ExperimentError
from repro.kvstore.cost import KvCostModel
from repro.kvstore.store import KeyValueStore
from repro.net.host import Host, _HostCore
from repro.net.packet import Packet
from repro.sim.core import USING_CCORE, Simulator
from repro.sim.monitor import Counter
from repro.workloads.distributions import JitterModel
from repro.workloads.kv import KvOp

__all__ = ["RpcServer"]


class _ServerCore(_HostCore):
    """The request path of an :class:`RpcServer` and the state it
    keeps.  ``_ccore.ServerCore`` replaces it when the C core is live."""

    __slots__ = (
        "server_id", "service", "jitter", "rng", "num_workers",
        "netclone_mode", "drop_stale_clones", "reply_to_ip", "queue",
        "busy_workers", "counters", "_counts", "_trivial_spin",
        "_fixed_resp_size", "state_samples_zero", "state_samples_total",
    )

    def handle(self, packet: Packet) -> None:
        nc = packet.nc
        if nc is not None and nc.msg_type != MSG_REQ:
            self._counts["non_request_ignored"] += 1
            packet.release()
            return
        if (
            self.netclone_mode
            and self.drop_stale_clones
            and nc is not None
            and nc.clo == CLO_CLONED_COPY
            and self.queue
        ):
            # Stale cloning decision: the tracked state said idle, the
            # actual state is busy.  Drop the clone, never the original.
            self._counts["clones_dropped"] += 1
            packet.release()
            return
        self._counts["requests_accepted"] += 1
        if self.busy_workers < self.num_workers:
            self.busy_workers += 1
            self._start_work(packet)
        else:
            self.queue.append(packet)

    def _start_work(self, packet: Packet) -> None:
        if self._trivial_spin:
            # JitterModel.apply inlined (factor >= 1 is ctor-enforced,
            # so the never-shorten invariant holds by construction).
            base = packet.payload.service_ns
            jitter = self.jitter
            if jitter.p > 0.0 and self.rng.random() < jitter.p:
                base = int(base * jitter.factor)
            self.sim.call_after(base, self._finish_work, packet)
            return
        base = self.service.base_service_ns(packet.payload)
        duration = self.jitter.apply(base, self.rng)
        if duration < base:
            raise ExperimentError("jitter must never shorten execution")
        self.sim.call_after(duration, self._finish_work, packet)

    def _finish_work(self, packet: Packet) -> None:
        if not self._trivial_spin:
            self.service.execute(packet.payload)
        # Hand the next queued request to this worker thread first, so
        # the piggybacked state reflects the queue after the dispatch.
        if self.queue:
            self._start_work(self.queue.popleft())
        else:
            self.busy_workers -= 1
        self._respond(packet)

    def _respond(self, request: Packet) -> None:
        queue_len = len(self.queue)
        self.state_samples_total += 1
        if queue_len == 0:
            self.state_samples_zero += 1
        nc = request.nc
        resp_nc = None
        if nc is not None:
            # The request's life ends in this call (released below) and
            # nothing else holds its header — clones carry their own
            # copy — so the response steals it instead of copying.
            resp_nc = nc
            resp_nc.msg_type = MSG_RESP
            resp_nc.sid = self.server_id
            resp_nc.state = min(queue_len, 255) if self.netclone_mode else 0
        dst = self.reply_to_ip if self.reply_to_ip is not None else request.src
        dport = request.dport if nc is not None else request.sport
        size = self._fixed_resp_size
        if size is None:
            size = self.service.response_size(request.payload)
        response = self.packet_pool.acquire(
            self.ip,
            dst,
            NETCLONE_UDP_PORT,
            dport,
            size,
            request.payload,
            resp_nc,
            request.created_at,
        )
        # The response now owns the payload reference; the request's
        # life on the wire is over.
        request.release()
        self._counts["responses_sent"] += 1
        self.send(response)


if USING_CCORE:
    from repro.sim import _ccore
    from repro.sim._ccore import ServerCore as _ServerCore  # noqa: F811

    # The classes whose methods the C request path replays while Python
    # would still resolve a server's service, cost model, store and
    # jitter methods to them.
    _ccore.configure_server(KvService, KvCostModel, KeyValueStore, JitterModel, KvOp)


class RpcServer(Host, _ServerCore):
    """A worker server with a dispatcher queue and worker threads.

    Extra keyword arguments (``packet_pool``) go to :class:`Host`.
    Unlike :class:`Host`, it keeps an instance dict, so a test may
    still patch one server's ``handle``.
    """

    # The request path's entry points sit in this class's own dict
    # (``Host.handle`` would shadow the base's), so tracers that wrap
    # ``RpcServer.handle`` / ``RpcServer._finish_work`` at class level
    # find them here on either base.
    handle = _ServerCore.handle
    _finish_work = _ServerCore._finish_work

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
        server_id: int,
        service: ServiceModel,
        jitter: JitterModel,
        rng: random.Random,
        num_workers: int = 15,
        netclone_mode: bool = True,
        drop_stale_clones: bool = True,
        reply_to_ip: Optional[int] = None,
        tx_cost_ns: int = 700,
        rx_cost_ns: int = 500,
        rx_queue_limit: int = 16384,
        **host_kwargs: Any,
    ):
        super().__init__(
            sim,
            name,
            ip,
            tx_cost_ns=tx_cost_ns,
            rx_cost_ns=rx_cost_ns,
            rx_queue_limit=rx_queue_limit,
            **host_kwargs,
        )
        if num_workers <= 0:
            raise ExperimentError("server needs at least one worker thread")
        self.server_id = server_id
        self.service = service
        self.jitter = jitter
        self.rng = rng
        self.num_workers = num_workers
        #: NetClone mode: drop stale clones, piggyback state.
        self.netclone_mode = netclone_mode
        #: The §3.4 stale-clone drop; disable for the ablation bench.
        self.drop_stale_clones = drop_stale_clones
        #: LÆDGE routes responses through the coordinator.
        self.reply_to_ip = reply_to_ip
        self.queue: Deque[Packet] = deque()
        self.busy_workers = 0
        self.counters = Counter()
        # Hot-path shortcuts: per-request counter bumps go straight to
        # the counters' dict, and trivial-spin services skip two
        # dispatches per execution.
        self._counts = self.counters._counts
        self._trivial_spin = bool(getattr(service, "trivial_spin", False))
        self._fixed_resp_size = getattr(service, "fixed_response_size", None)
        #: Samples of the queue length at response time (Figure 13a).
        self.state_samples_zero = 0
        self.state_samples_total = 0

    # ------------------------------------------------------------------
    @property
    def queue_len(self) -> int:
        """Current dispatcher-queue occupancy (pending, not in service)."""
        return len(self.queue)

    # ------------------------------------------------------------------
    def empty_queue_fraction(self) -> float:
        """Fraction of responses that reported an empty queue (Fig. 13a)."""
        if self.state_samples_total == 0:
            return float("nan")
        return self.state_samples_zero / self.state_samples_total
