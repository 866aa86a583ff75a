"""Host base class.

A host owns a NIC, is attached to exactly one link (its ToR uplink in
the star topologies used throughout), and dispatches received packets
to :meth:`handle`, which applications override.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import NetworkError
from repro.net.link import Direction, Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.sim.core import Simulator

__all__ = ["Host"]


class Host:
    """One end host (client, server, or coordinator)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
        tx_cost_ns: int = 700,
        rx_cost_ns: int = 700,
        rx_queue_limit: int = 4096,
    ):
        self.sim = sim
        self.name = name
        self.ip = ip
        self.nic = Nic(
            sim,
            tx_cost_ns=tx_cost_ns,
            rx_cost_ns=rx_cost_ns,
            rx_queue_limit=rx_queue_limit,
        )
        self.link: Optional[Link] = None
        #: The uplink direction this host transmits on.
        self._uplink: Optional[Direction] = None

    # ------------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        """Connect this host to its (single) uplink."""
        if self.link is not None:
            raise NetworkError(f"{self.name} is already attached to a link")
        self.link = link
        self._uplink = link.direction_from(self)

    def send(self, packet: Packet) -> None:
        """Send *packet* through the NIC TX path onto the uplink.

        The hot path books the NIC TX slot *and* the uplink's
        serialisation slot in one step, at call time: each direction of
        the uplink has this host as its only sender and TX completion
        times are nondecreasing, so the link booking a departure at
        ``done`` would make is already known now — no TX-done event.
        Links that can drop (down or lossy) fall back to the evented
        path, which re-evaluates the link when the packet actually
        leaves the NIC.
        """
        link = self.link
        if link is None:
            raise NetworkError(f"{self.name} has no link attached")
        nic = self.nic
        now = self.sim.now
        start = nic._tx_free_at
        if start < now:
            start = now
        done = start + nic.tx_cost_ns
        nic._tx_free_at = done
        nic.tx_count += 1
        if link.down or link.loss_probability > 0.0:
            if done == now:
                link.send(packet, self)
            else:
                self.sim.call_at(done, self._emit, packet)
            return
        self._uplink.push(packet, done)

    def _emit(self, packet: Packet) -> None:
        assert self.link is not None
        self.link.send(packet, self)

    def deliver(self, packet: Packet, link: Link) -> None:
        """Called by the link when *packet* arrives at this host."""
        self.nic.rx(packet, self.handle)

    def link_rx_at(self, packet: Packet, arrival: int) -> None:
        """Fused link arrival + NIC RX accounting, called at *send* time.

        A host has exactly one uplink, and a link direction delivers in
        nondecreasing arrival order, so the RX resource booking for an
        arrival at ``arrival`` can be computed when the packet is put
        on the wire — the per-packet deliver event disappears and only
        the handler dispatch at RX completion remains.
        """
        nic = self.nic
        start = nic._rx_free_at
        if start < arrival:
            start = arrival
        cost = nic.rx_cost_ns
        if cost > 0 and (start - arrival) // cost >= nic.rx_queue_limit:
            nic.rx_dropped += 1
            packet.release()
            return
        done = start + cost
        nic._rx_free_at = done
        nic.rx_count += 1
        self.sim.call_at(done, self.handle, packet)

    # ------------------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        """Application hook; default drops the packet silently."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.net.addresses import format_ip

        return f"<Host {self.name} {format_ip(self.ip)}>"
