"""Point-to-point full-duplex links.

A link connects two endpoints, each a switch (``link_ingress``) or a
:class:`~repro.net.host.Host` (``link_rx_at``).  Each direction models:

* **serialisation** — back-to-back packets queue behind one another at
  the line rate (a per-direction "next free" timestamp), and
* **propagation** — a fixed flight time.

At 100 Gb/s a 128 B packet serialises in ~10 ns, so serialisation is
rarely the bottleneck in these experiments, but it is modelled so that
congestion behaves correctly if an experiment drives a link hard.

This module is the single hottest non-engine path (one booking per
packet per hop).  Each direction's state lives on a slotted
:class:`Direction` built at wiring time, together with its receiver's
delivery entry point, and :meth:`Direction.push` is the one
serialisation booking in the simulator: :meth:`Link.send`,
:meth:`~repro.net.host.Host.send` and the switch's egress all call it.
Hosts and switches hold the direction they send on, so a hop resolves
no endpoint identity.  The serialisation delay is memoised per packet
size in one dict both directions share (experiments use a handful of
sizes, recomputing float math per send is pure waste).

The booking itself lives on :class:`_DirectionCore`, the base of
:class:`Direction`.  With the C core live (``USING_CCORE``) that base
is ``_ccore.DirectionCore``: the same fields and the same ``push``
with no Python frame.  It calls the wiring-time entry of a host
receiver, and on the C engine pushes a switch receiver's entry
straight onto the scheduler lanes (any other engine gets
``sim.call_at``).  The Python class below is the reference and the
``REPRO_PURE_SIM=1`` path.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from repro.errors import NetworkError
from repro.sim.core import USING_CCORE, Simulator

__all__ = ["Direction", "Link"]

#: Bits per byte, named for readability in the delay arithmetic.
_BITS = 8


class _DirectionCore:
    """The per-packet half of a :class:`Direction`: its booking state
    and :meth:`push`.  ``_ccore.DirectionCore`` replaces it when the C
    core is live."""

    __slots__ = (
        "link",
        "sim",
        "ser_ns",
        "free_at",
        "tx_bytes",
        "tx_count",
        "entry",
        "rx_at_send",
        "rx_latency_ns",
        "rx_port",
        "sched_off",
    )

    def push(self, packet: Any, earliest: int) -> None:
        """Book *packet* onto the wire no earlier than *earliest* and
        hand it to the receiver.

        The caller has already decided the packet survives the link
        (see :meth:`Link.send` for the down/lossy checks).  *earliest*
        is the sender's ready time and never precedes ``sim.now``.
        """
        size = packet.size
        ser = self.ser_ns.get(size)
        if ser is None:
            ser = self.link.serialization_ns(size)
        start = self.free_at
        if start < earliest:
            start = earliest
        done = start + ser
        self.free_at = done
        self.tx_bytes += size
        self.tx_count += 1
        when = done + self.sched_off
        if self.rx_at_send:
            self.entry(packet, when)
            return
        self.sim.call_at(when, self.entry, packet, self)


if USING_CCORE:
    from repro.sim._ccore import DirectionCore as _DirectionCore  # noqa: F811


class Direction(_DirectionCore):
    """One direction of a :class:`Link`: its serialisation queue and the
    receiver at the far end.

    The receiver's delivery is resolved once, here:

    * a switch's ``link_ingress`` is scheduled at arrival + pipeline
      latency with this direction as its second argument, so the
      switch reads its ingress port from :attr:`rx_port`;
    * a host's ``link_rx_at`` is called at send time with the arrival
      time (it books its RX slot up front).
    """

    __slots__ = ()

    def __init__(self, link: "Link", receiver: Any):
        self.link = link
        self.sim = link.sim
        #: The link's serialisation memo (shared, cleared in place).
        self.ser_ns = link._ser_ns
        #: Serialisation horizon: the next time the direction is free.
        self.free_at = 0
        #: Bytes clocked onto the wire in this direction.  These feed
        #: congestion-aware route policies and the per-link utilization
        #: series in :mod:`repro.metrics.links`.
        self.tx_bytes = 0
        self.tx_count = 0
        #: Ingress port at the receiver, filled in by
        #: ``ProgrammableSwitch.connect``.
        self.rx_port: Optional[int] = None
        self.rx_at_send = False
        self.rx_latency_ns = 0
        entry = getattr(receiver, "link_ingress", None)
        if entry is not None:
            self.rx_latency_ns = receiver.pipeline_latency_ns
        else:
            entry = receiver.link_rx_at
            self.rx_at_send = True
        self.entry = entry
        #: Serialisation-done → scheduled callback time: propagation
        #: plus the receiver's pipeline latency, derived by the link's
        #: ``propagation_ns`` setter.
        self.sched_off = 0


class Link:
    """A full-duplex cable between endpoints ``a`` and ``b``."""

    def __init__(
        self,
        sim: Simulator,
        a: Any,
        b: Any,
        propagation_ns: int = 300,
        bandwidth_bps: float = 100e9,
        name: str = "",
        loss_probability: float = 0.0,
        loss_rng: Optional[random.Random] = None,
    ):
        if bandwidth_bps <= 0:
            raise NetworkError("bandwidth must be positive")
        if not 0.0 <= loss_probability < 1.0:
            raise NetworkError("loss probability must lie in [0, 1)")
        self.sim = sim
        self.a = a
        self.b = b
        self._bandwidth_bps = bandwidth_bps
        self._ser_ns: Dict[int, int] = {}
        self.name = name or f"link({getattr(a, 'name', a)}-{getattr(b, 'name', b)})"
        #: Set True to drop everything (used by failure experiments).
        self.down = False
        #: Random per-packet loss (used by the reliability tests).
        self.loss_probability = loss_probability
        #: The loss stream; the default one is seeded on first draw, so
        #: wiring a lossless link (nearly every link) seeds no generator.
        self._loss_rng = loss_rng
        self.drop_count = 0
        #: The a → b and b → a directions, built at wiring time.
        self.from_a = Direction(self, b)
        self.from_b = Direction(self, a)
        self.propagation_ns = propagation_ns

    @property
    def propagation_ns(self) -> int:
        """Flight time in nanoseconds."""
        return self._propagation_ns

    @propagation_ns.setter
    def propagation_ns(self, value: int) -> None:
        if value < 0:
            raise NetworkError("propagation delay must be non-negative")
        self._propagation_ns = value
        for direction in (self.from_a, self.from_b):
            direction.sched_off = value + direction.rx_latency_ns

    @property
    def bandwidth_bps(self) -> float:
        """Line rate in bits per second."""
        return self._bandwidth_bps

    @bandwidth_bps.setter
    def bandwidth_bps(self, value: float) -> None:
        if value <= 0:
            raise NetworkError("bandwidth must be positive")
        self._bandwidth_bps = value
        # Memoised delays are per line rate; both directions hold this
        # dict, so it is cleared in place.
        self._ser_ns.clear()

    @property
    def tx_bytes(self) -> int:
        """Total bytes transmitted, both directions."""
        return self.from_a.tx_bytes + self.from_b.tx_bytes

    @property
    def tx_count(self) -> int:
        """Total packets transmitted, both directions."""
        return self.from_a.tx_count + self.from_b.tx_count

    def direction_from(self, endpoint: Any) -> Direction:
        """The direction *endpoint* transmits on."""
        if endpoint is self.a:
            return self.from_a
        if endpoint is self.b:
            return self.from_b
        raise NetworkError(f"{endpoint!r} is not attached to {self.name}")

    def serialization_ns(self, size_bytes: int) -> int:
        """Time to clock *size_bytes* onto the wire at the line rate."""
        cached = self._ser_ns.get(size_bytes)
        if cached is None:
            cached = int(round(size_bytes * _BITS / self._bandwidth_bps * 1e9))
            self._ser_ns[size_bytes] = cached
        return cached

    def backlog_ns(self, from_endpoint: Any) -> int:
        """Serialisation backlog a new packet from *from_endpoint* would
        queue behind, in nanoseconds (0 when the direction is idle).

        This is the congestion signal the ``least-loaded`` spine policy
        reads: it is exact (not sampled) and costs nothing to maintain.
        """
        backlog = self.direction_from(from_endpoint).free_at - self.sim.now
        return backlog if backlog > 0 else 0

    def bytes_from(self, from_endpoint: Any) -> int:
        """Bytes transmitted in the *from_endpoint* → other direction."""
        return self.direction_from(from_endpoint).tx_bytes

    def utilization(self, window_ns: int, from_endpoint: Optional[Any] = None) -> float:
        """Offered bytes over *window_ns* as a fraction of the line rate.

        Bytes are counted when a packet joins the serialisation queue,
        so this is *demand*: values above 1.0 mean the direction was
        oversubscribed and a backlog built up — exactly the saturation
        signal the trunk experiments report.  With *from_endpoint* the
        single direction is measured; without, the busier of the two
        (the link is full duplex, so each direction has the full line
        rate to itself).
        """
        if window_ns <= 0:
            raise NetworkError("utilization window must be positive")
        capacity_bits = self._bandwidth_bps * window_ns / 1e9
        if from_endpoint is not None:
            return self.bytes_from(from_endpoint) * _BITS / capacity_bits
        busiest = max(self.from_a.tx_bytes, self.from_b.tx_bytes)
        return busiest * _BITS / capacity_bits

    def other_end(self, endpoint: Any) -> Any:
        """The endpoint opposite *endpoint*."""
        if endpoint is self.a:
            return self.b
        if endpoint is self.b:
            return self.a
        raise NetworkError(f"{endpoint!r} is not attached to {self.name}")

    def _loss_draw(self) -> float:
        rng = self._loss_rng
        if rng is None:
            rng = self._loss_rng = random.Random(0x105)
        return rng.random()

    def send(self, packet: Any, from_endpoint: Any) -> Optional[int]:
        """Transmit *packet* from one endpoint toward the other.

        Returns the delivery time, or ``None`` if the link is down (or
        lossy) and the packet was dropped.  Dropped packets are
        recycled — nobody downstream will ever see them.
        """
        direction = self.direction_from(from_endpoint)
        if self.down or (
            self.loss_probability > 0.0 and self._loss_draw() < self.loss_probability
        ):
            self.drop_count += 1
            packet.release()
            return None
        direction.push(packet, self.sim.now)
        return direction.free_at + self._propagation_ns
