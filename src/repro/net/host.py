"""Host base class: one end host and its network stack.

A host is attached to exactly one link (its ToR uplink in every
fabric here) and dispatches received packets to :meth:`handle`, which
applications override.  Every packet a host sends comes from its
``packet_pool`` — in a cluster, the one pool every host shares; a
stand-alone host gets a fresh pool of its own.

The testbed in the paper uses VMA kernel-bypass networking, where each
packet still costs on the order of a microsecond of CPU in the send and
receive paths.  That per-packet cost is what makes redundant slower
responses harmful (§5.6.3 / Figure 15), so the host models it
explicitly:

* the TX path is a single resource — consecutive sends queue behind a
  per-packet ``tx_cost_ns``;
* the RX path is likewise a single resource with ``rx_cost_ns``; a
  bounded RX queue drops a packet whose arrival finds
  ``rx_queue_limit`` packets' worth of RX work still booked, as a
  real userspace poll loop would when its ring fills.

Those two slots — :meth:`Host.send` and :meth:`Host.link_rx_at`, with
the state they book — live on :class:`_HostCore`, the base of
:class:`Host`, together with the host's ``name``, ``ip`` and
``packet_pool``.  With the C core live (``USING_CCORE``) that base is
``_ccore.HostCore``, which runs both with no Python frame and calls
back into Python only for ``handle``, ``_emit``, ``Link.send`` and
``Packet.release``.  The Python class below is the reference and the
``REPRO_PURE_SIM=1`` path.  :class:`Host` adds no state of its own, so
a subclass can combine it with a second base that extends
``_HostCore`` (``RpcServer`` does, with the server's request path in
``core/server.py``, and ``OpenLoopClient`` with the client's in
``apps/client.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NetworkError
from repro.net.link import Direction, Link
from repro.net.packet import Packet, PacketPool
from repro.sim.core import USING_CCORE, Simulator

__all__ = ["Host"]


class _HostCore:
    """A :class:`Host`'s state and its NIC half: the TX and RX slots.
    ``_ccore.HostCore`` replaces it when the C core is live."""

    __slots__ = (
        "sim", "name", "ip", "packet_pool", "link", "_uplink",
        "tx_cost_ns", "rx_cost_ns", "rx_queue_limit", "_tx_free_at",
        "_rx_free_at", "rx_dropped",
    )

    def send(self, packet: Packet) -> None:
        """Send *packet* through the TX path onto the uplink.

        The hot path books the TX slot *and* the uplink's serialisation
        slot in one step, at call time: each direction of the uplink
        has this host as its only sender and TX completion times are
        nondecreasing, so the link booking a departure at ``done``
        would make is already known now — no TX-done event.  Links
        that can drop (down or lossy) fall back to the evented path,
        which re-evaluates the link when the packet actually leaves
        the host.
        """
        link = self.link
        if link is None:
            raise NetworkError(f"{self.name} has no link attached")
        now = self.sim.now
        start = self._tx_free_at
        if start < now:
            start = now
        done = start + self.tx_cost_ns
        self._tx_free_at = done
        if link.down or link.loss_probability > 0.0:
            if done == now:
                link.send(packet, self)
            else:
                self.sim.call_at(done, self._emit, packet)
            return
        self._uplink.push(packet, done)

    def link_rx_at(self, packet: Packet, arrival: int) -> None:
        """Link arrival + RX booking, called at *send* time.

        A host has exactly one uplink, and a link direction delivers in
        nondecreasing arrival order, so the RX resource booking for an
        arrival at ``arrival`` can be computed when the packet is put
        on the wire — there is no deliver event, only the handler
        dispatch at RX completion.
        """
        start = self._rx_free_at
        if start < arrival:
            start = arrival
        cost = self.rx_cost_ns
        if cost > 0 and (start - arrival) // cost >= self.rx_queue_limit:
            self.rx_dropped += 1
            packet.release()
            return
        done = start + cost
        self._rx_free_at = done
        self.sim.call_at(done, self.handle, packet)


if USING_CCORE:
    from repro.sim._ccore import HostCore as _HostCore  # noqa: F811


class Host(_HostCore):
    """One end host (client, server, or coordinator)."""

    # The host's state lives on the base, in slots or C fields, which
    # keeps it out of the subclasses' instance dicts: CPython shares one
    # compact key table per class only up to 30 keys, and with the
    # host's state in a client's dict, star-baseline-hi lost ~7% of its
    # simulated requests per second.  No slots here, so a subclass can
    # also derive from a second extension of the base (the server's and
    # the client's request paths do).
    __slots__ = ()

    # The NIC entry points sit in this class's own dict, so tracers
    # that wrap ``Host.send`` / ``Host.link_rx_at`` at class level find
    # them here on either base.
    send = _HostCore.send
    link_rx_at = _HostCore.link_rx_at

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
        tx_cost_ns: int = 700,
        rx_cost_ns: int = 700,
        rx_queue_limit: int = 4096,
        packet_pool: Optional[PacketPool] = None,
    ):
        if tx_cost_ns < 0 or rx_cost_ns < 0:
            raise NetworkError("per-packet costs must be non-negative")
        if rx_queue_limit <= 0:
            raise NetworkError("rx_queue_limit must be positive")
        self.sim = sim
        self.name = name
        self.ip = ip
        self.tx_cost_ns = tx_cost_ns
        self.rx_cost_ns = rx_cost_ns
        self.rx_queue_limit = rx_queue_limit
        #: Next time the TX / RX path is free.
        self._tx_free_at = 0
        self._rx_free_at = 0
        self.rx_dropped = 0
        self.link: Optional[Link] = None
        #: The uplink direction this host transmits on.
        self._uplink: Optional[Direction] = None
        #: Where this host's packets come from and recycle into.
        self.packet_pool = packet_pool or PacketPool()

    # ------------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        """Connect this host to its (single) uplink."""
        if self.link is not None:
            raise NetworkError(f"{self.name} is already attached to a link")
        self.link = link
        self._uplink = link.direction_from(self)

    def _emit(self, packet: Packet) -> None:
        assert self.link is not None
        self.link.send(packet, self)

    # ------------------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        """Application hook; default drops the packet silently."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.net.addresses import format_ip

        return f"<Host {self.name} {format_ip(self.ip)}>"
