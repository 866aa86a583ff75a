"""Retransmission support and TCP-style request IDs (§3.7).

UDP single-packet RPCs lose packets occasionally; RPC frameworks
retransmit.  §3.7 works through what that means for NetClone:

* a retransmitted request must keep its original request ID — a
  switch-assigned sequence number would change on every attempt, so
  IDs become client-assigned Lamport-style tuples
  ``(client_id, local_seq)``, which
  :class:`~repro.core.program.NetCloneProgram` keeps because they are
  nonzero;
* the switch may legitimately make a *different* cloning decision for
  the retransmission than for the original ("it is intentional"),
  since server states have moved on;
* the filter table interacts with retransmissions: if the response to
  a cloned original was lost *after* inserting its fingerprint, the
  retransmission's first response carries the same ID, matches the
  stale fingerprint and is dropped-and-cleared — so one extra
  retransmission round trips the request.  The client below simply
  keeps retransmitting until a response lands, which is exactly what
  a real framework's timeout loop does.

:class:`ReliableNetCloneClient` is an open-loop NetClone client with a
timeout/retransmit loop bounded by ``max_attempts``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.apps.client import OpenLoopClient
from repro.core.constants import (
    CLO_NOT_CLONED,
    MSG_REQ,
    NETCLONE_UDP_PORT,
    VIRTUAL_SERVICE_IP,
)
from repro.core.header import NetCloneHeader
from repro.core.program import CLO_NEVER_CLONE
from repro.errors import ExperimentError
from repro.net.packet import Packet

__all__ = ["ReliableNetCloneClient", "client_request_id"]

_CLIENT_SEQ_BITS = 24
_CLIENT_SEQ_MASK = (1 << _CLIENT_SEQ_BITS) - 1


def client_request_id(client_id: int, local_seq: int) -> int:
    """Lamport-style request ID: (client, per-client sequence).

    The client field is stored as ``client_id + 1``, so the ID is never
    0 — the value that asks the switch to assign one.
    """
    if client_id < 0 or client_id >= (1 << (32 - _CLIENT_SEQ_BITS)) - 1:
        raise ExperimentError("client_id out of range for client-assigned IDs")
    return ((client_id + 1) << _CLIENT_SEQ_BITS) | (local_seq & _CLIENT_SEQ_MASK)


class ReliableNetCloneClient(OpenLoopClient):
    """NetClone client with client-assigned IDs and retransmission."""

    #: ``build_packets`` arms the retransmit timer (live bookkeeping),
    #: so arrivals cannot be pre-drawn ahead of simulated time.
    ARRIVAL_PREDRAW = False

    def __init__(
        self,
        *args: Any,
        num_groups: int,
        num_filter_tables: int = 2,
        retransmit_timeout_ns: int = 1_000_000,
        max_attempts: int = 5,
        **kwargs: Any,
    ):
        super().__init__(*args, **kwargs)
        if num_groups < 2:
            raise ExperimentError("NetClone needs at least two groups")
        if retransmit_timeout_ns <= 0:
            raise ExperimentError("retransmit timeout must be positive")
        if max_attempts < 1:
            raise ExperimentError("need at least one attempt")
        self.num_groups = num_groups
        self.num_filter_tables = num_filter_tables
        self.retransmit_timeout_ns = retransmit_timeout_ns
        self.max_attempts = max_attempts
        self.retransmissions = 0
        self.abandoned = 0
        self._attempts: Dict[int, int] = {}
        self._requests: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    def build_packets(self, request: Any) -> List[Packet]:
        seq = request.client_seq
        self._attempts[seq] = 1
        self._requests[seq] = request
        self.sim.call_after(self.retransmit_timeout_ns, self._maybe_retransmit, seq)
        return [self._packet_for(request)]

    def _packet_for(self, request: Any) -> Packet:
        header = NetCloneHeader(
            msg_type=MSG_REQ,
            req_id=client_request_id(self.client_id, request.client_seq),
            grp=self.rng.randrange(self.num_groups),
            clo=CLO_NEVER_CLONE if getattr(request, "write", False) else CLO_NOT_CLONED,
            idx=self.rng.randrange(self.num_filter_tables),
        )
        return Packet(
            src=self.ip,
            dst=VIRTUAL_SERVICE_IP,
            sport=NETCLONE_UDP_PORT,
            dport=NETCLONE_UDP_PORT,
            size=self.workload.request_size(request) + NetCloneHeader.WIRE_SIZE,
            payload=request,
            nc=header,
        )

    # ------------------------------------------------------------------
    def _maybe_retransmit(self, seq: int) -> None:
        if seq not in self._outstanding:
            self._attempts.pop(seq, None)
            self._requests.pop(seq, None)
            return
        attempts = self._attempts.get(seq, 0)
        if attempts >= self.max_attempts:
            # Give up: account the request as abandoned (it stays
            # incomplete in the recorder, which is the honest outcome).
            self.abandoned += 1
            self._outstanding.pop(seq, None)
            self._attempts.pop(seq, None)
            self._requests.pop(seq, None)
            return
        self._attempts[seq] = attempts + 1
        self.retransmissions += 1
        packet = self._packet_for(self._requests[seq])
        packet.created_at = self.sim.now
        self.send(packet)
        self.sim.call_after(self.retransmit_timeout_ns, self._maybe_retransmit, seq)

    def handle(self, packet: Packet) -> None:
        payload = packet.payload
        if payload is not None and payload.client_id == self.client_id:
            self._attempts.pop(payload.client_seq, None)
            self._requests.pop(payload.client_seq, None)
        super().handle(packet)
