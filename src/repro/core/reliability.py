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

:class:`ReliableNetCloneClient` is a :class:`~repro.core.client.NetCloneClient`
with a timeout/retransmit loop bounded by ``max_attempts``.  It builds
its packets with the parent's ``build_packets`` — so group IDs come
from the installed group table, and a §3.6 rebuild reaches it like any
NetClone client — and only stamps the client-assigned request ID.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.client import NetCloneClient
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


class ReliableNetCloneClient(NetCloneClient):
    """NetClone client with client-assigned IDs and retransmission."""

    def __init__(
        self,
        *args: Any,
        retransmit_timeout_ns: int = 1_000_000,
        max_attempts: int = 5,
        **kwargs: Any,
    ):
        super().__init__(*args, **kwargs)
        if retransmit_timeout_ns <= 0:
            raise ExperimentError("retransmit timeout must be positive")
        if max_attempts < 1:
            raise ExperimentError("need at least one attempt")
        self.retransmit_timeout_ns = retransmit_timeout_ns
        self.max_attempts = max_attempts
        self.retransmissions = 0
        self.abandoned = 0
        #: Attempts made so far, for requests retransmitted at least once.
        self._attempts: Dict[int, int] = {}
        #: Sent, unanswered requests (what a retransmission rebuilds).
        self._requests: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    def build_packets(self, request: Any) -> List[Packet]:
        packets = super().build_packets(request)
        req_id = client_request_id(self.client_id, request.client_seq)
        for packet in packets:
            packet.nc.req_id = req_id
        return packets

    def send(self, packet: Packet) -> None:
        """Send one attempt of a request and arm its retransmit timer.

        Arming here, not in :meth:`build_packets`, keeps packet
        construction free of live state, so arrivals pre-draw like
        every other client's.
        """
        request = packet.payload
        seq = request.client_seq
        self._requests[seq] = request
        super().send(packet)
        self.sim.call_after(self.retransmit_timeout_ns, self._maybe_retransmit, seq)

    # ------------------------------------------------------------------
    def _maybe_retransmit(self, seq: int) -> None:
        if seq not in self._outstanding:
            self._attempts.pop(seq, None)
            self._requests.pop(seq, None)
            return
        attempts = self._attempts.get(seq, 1)
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
        for packet in self.build_packets(self._requests[seq]):
            packet.created_at = self.sim.now
            self.send(packet)

    def handle(self, packet: Packet) -> None:
        payload = packet.payload
        if payload is not None and payload.client_id == self.client_id:
            self._attempts.pop(payload.client_seq, None)
            self._requests.pop(payload.client_seq, None)
        super().handle(packet)
