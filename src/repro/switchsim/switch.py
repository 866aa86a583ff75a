"""The programmable ToR switch.

:class:`ProgrammableSwitch` owns ports (links to hosts), a plain
L2/L3 routing function, and at most one installed program — the
custom data-plane logic compiled into the pipeline (NetClone's
:class:`~repro.core.program.NetCloneProgram`).  Packets the program
does not claim leave its pass untouched and are forwarded by routing
alone, which is how NetClone coexists with normal traffic (§3.2).

With a program installed, every pass is one call to the program's
``apply``, cached when the program is installed.  The pass returns a
verdict: ``True`` drops the packet, anything else forwards it by
route.  A program that clones hands each copy to :meth:`recirculate`
itself, during the pass.  The program proved its pass shapes against
the pipeline's hardware rules when it was built (see
:meth:`~repro.switchsim.pipeline.Pipeline.compile_plan`), so the
switch runs no per-packet checks of its own.

Timing model, fixed for every switch:

* :data:`PIPELINE_LATENCY_NS` per pass (the paper: "hundreds of
  nanoseconds");
* :data:`RECIRC_LATENCY_NS` extra for a loop through a port in
  loopback mode (§3.4's recirculation);
* egress serialisation is handled by the outgoing
  :class:`~repro.net.link.Link`.

Failure model (§5.6.4): :meth:`fail` makes the switch drop everything;
:meth:`recover` brings it back after a re-initialisation delay, with
**all register state cleared** — NetClone must survive on soft state
alone, which the Figure 16 experiment demonstrates.

The forwarding hop — :meth:`~ProgrammableSwitch.link_ingress`,
``recirculate``, ``_run_recirculated`` and ``_egress``, with the state
they read — lives on :class:`_SwitchCore`, the base of
:class:`ProgrammableSwitch`.  With the C core live (``USING_CCORE``)
that base is ``_ccore.SwitchCore``: ingress bookkeeping, the NetClone
program's pass (a ``_ccore.NetClonePass``), recirculation, route
lookup and the egress booking run with no Python frame.  It calls
back into Python for any other program's pass, dynamic route
selectors, ``Link.send`` on a link that can drop, ``Packet.copy`` and
``Packet.release``.  Recirculation schedules the ``_run_recirculated``
the switch resolved when it was built.  Wiring and fail/recover stay
here in Python; the Python class below is the reference and the
``REPRO_PURE_SIM=1`` path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import PortError, SwitchError
from repro.net.link import Direction, Link
from repro.net.packet import Packet
from repro.sim.core import USING_CCORE, Simulator
from repro.sim.monitor import Counter

__all__ = ["PIPELINE_LATENCY_NS", "RECIRC_LATENCY_NS", "ProgrammableSwitch"]

#: Ingress-to-egress latency of one pipeline pass, in ns.
PIPELINE_LATENCY_NS = 400
#: Extra latency of one loop through a loopback port, in ns.
RECIRC_LATENCY_NS = 700


class _SwitchCore:
    """The forwarding half of a :class:`ProgrammableSwitch`: ingress
    pass, recirculation and egress.  ``_ccore.SwitchCore`` replaces it
    when the C core is live."""

    __slots__ = (
        "sim", "_counts", "_fast_apply", "routes", "_port_tx",
        "_tx_for_ip", "down", "_recirc_entry", "pipeline_latency_ns",
        "recirc_latency_ns",
    )

    def link_ingress(self, packet: Packet, arriving: Direction) -> None:
        """Fused arrival + pipeline pass, one event per switch hop.

        The arriving link :class:`~repro.net.link.Direction` schedules
        this directly at ``arrival + pipeline_latency_ns``, so a switch
        hop costs no separate arrival event.  Ingress bookkeeping and
        the down check consequently happen at pass time: a packet in
        flight into the pipeline when the switch powers off counts as
        ``rx_dropped_down`` rather than ``rx`` + ``dropped_down`` —
        either way it died with the power, and ``rx + recirculated ==
        tx + dropped_by_program + no_route + dropped_down`` still holds.
        """
        if self.down:
            self._counts["rx_dropped_down"] += 1
            packet.release()
            return
        port = arriving.rx_port
        if port is None:
            raise PortError(
                f"{self.name}: packet arrived on unknown link {arriving.link.name}"
            )
        packet.ingress_port = port
        packet.recirculated = False
        self._counts["rx"] += 1
        fast_apply = self._fast_apply
        if fast_apply is not None and fast_apply(packet, self):
            self._counts["dropped_by_program"] += 1
            packet.release()
            return
        self._egress(packet)

    def recirculate(self, packet: Packet) -> None:
        """Loop *packet* back through a loopback port for another pass.

        Called by the program during a pass; the copy re-enters the
        pipeline ``recirc_latency_ns + pipeline_latency_ns`` later,
        through the ``_run_recirculated`` the switch resolved when it
        was built.
        """
        self._counts["recirculated"] += 1
        self.sim.call_after(
            self.recirc_latency_ns + self.pipeline_latency_ns,
            self._recirc_entry,
            packet,
        )

    def _run_recirculated(self, packet: Packet) -> None:
        """A recirculated copy re-enters the pipeline as a fresh pass."""
        if self.down:
            self._counts["dropped_down"] += 1
            packet.release()
            return
        packet.recirculated = True
        # Only an installed program recirculates packets.
        if self._fast_apply(packet, self):
            self._counts["dropped_by_program"] += 1
            packet.release()
            return
        self._egress(packet)

    def _egress(self, packet: Packet) -> None:
        # Fast path: a statically routed destination resolves its
        # transmit direction in one dict get.
        tx = self._tx_for_ip.get(packet.dst)
        if tx is None:
            route = self.routes.get(packet.dst)
            if route is not None and not isinstance(route, int):
                route = route(packet)
            tx = self._port_tx.get(route)
            if tx is None:
                self._counts["no_route"] += 1
                packet.release()
                return
        self._counts["tx"] += 1
        link = tx.link
        if link.down or link.loss_probability > 0.0:
            link.send(packet, self)
            return
        tx.push(packet, self.sim.now)


if USING_CCORE:
    from repro.sim._ccore import SwitchCore as _SwitchCore  # noqa: F811


class ProgrammableSwitch(_SwitchCore):
    """A single-pipeline programmable switch with recirculation."""

    # The hop's entry points sit in this class's own dict, so tracers
    # that wrap ``ProgrammableSwitch.link_ingress`` or
    # ``_run_recirculated`` at class level find them here on either
    # base.
    link_ingress = _SwitchCore.link_ingress
    _egress = _SwitchCore._egress
    _run_recirculated = _SwitchCore._run_recirculated

    def __init__(self, sim: Simulator, name: str = "tor", num_ports: int = 64):
        if num_ports <= 0:
            raise PortError("switch needs at least one port")
        self.sim = sim
        self.name = name
        # Read per hop by the forwarding core and, at wiring time, by
        # the arriving link direction (``Direction.rx_latency_ns``).
        self.pipeline_latency_ns = PIPELINE_LATENCY_NS
        self.recirc_latency_ns = RECIRC_LATENCY_NS
        self.num_ports = num_ports
        self.ports: Dict[int, Link] = {}
        #: Destination ip → egress port, or → a per-packet selector
        #: callable (see :meth:`install_dynamic_route`).
        self.routes: Dict[int, Any] = {}
        #: Port → the link direction this switch transmits on.
        self._port_tx: Dict[int, Direction] = {}
        #: Destination ip → transmit direction, for static routes only:
        #: the egress fast path resolves one dict get instead of route +
        #: port maps.
        self._tx_for_ip: Dict[int, Direction] = {}
        self.program: Optional[Any] = None
        #: Cached ``program.apply`` (resolved at install time, so a
        #: pass costs one attribute load); ``None`` without a program.
        self._fast_apply = None
        self.counters = Counter()
        # Per-packet counter sites bump the underlying dict directly.
        self._counts = self.counters._counts
        self.down = False
        # Failure generation: a recovery scheduled before a later
        # fail() must not power the switch back on (flap drills).
        self._power_epoch = 0
        #: What :meth:`recirculate` schedules, resolved now so that a
        #: class-level wrapper installed before the switch is built
        #: sees every recirculated pass.
        self._recirc_entry = self._run_recirculated

    # ------------------------------------------------------------------
    # Wiring (used by StarTopology)
    # ------------------------------------------------------------------
    def connect(self, port: int, link: Link) -> None:
        """Attach *link* to *port*."""
        if not 0 <= port < self.num_ports:
            raise PortError(f"port {port} out of range (0..{self.num_ports - 1})")
        if port in self.ports:
            raise PortError(f"port {port} already connected")
        self.ports[port] = link
        self._port_tx[port] = link.direction_from(self)
        # The fused ingress path reads the port off the arriving direction.
        link.direction_from(link.other_end(self)).rx_port = port

    def install_route(self, ip: int, port: int) -> None:
        """Map destination *ip* to egress *port* (L3 route)."""
        if port not in self.ports:
            raise PortError(f"cannot route to unconnected port {port}")
        self.routes[ip] = port
        self._tx_for_ip[ip] = self._port_tx[port]

    def install_dynamic_route(self, ip: int, selector: Any) -> None:
        """Map destination *ip* to a per-packet port chooser.

        *selector* is called as ``selector(packet) -> Optional[int]``
        at egress time, so multipath fabrics can pick among several
        uplinks per packet (ECMP, least-loaded, flowlet — see
        :mod:`repro.net.topology`).  Returning ``None`` or an
        unconnected port drops the packet via the ``no_route`` counter,
        exactly like a missing static route.
        """
        if not callable(selector):
            raise SwitchError("dynamic route selector must be callable")
        self.routes[ip] = selector
        self._tx_for_ip.pop(ip, None)

    def remove_route(self, ip: int) -> None:
        """Remove the route for *ip* (e.g. failed server)."""
        self.routes.pop(ip, None)
        self._tx_for_ip.pop(ip, None)

    def install_program(self, program: Any) -> None:
        """Load *program* into the data plane.

        A program is any object with two attributes.  ``apply(packet,
        switch)`` runs one pipeline pass: it sees every packet the
        switch receives, leaves packets it does not claim untouched,
        hands each copy to clone to :meth:`recirculate` during the
        pass, and returns ``True`` to drop the packet or ``None`` to
        forward it by route.  ``pipeline`` is the
        :class:`~repro.switchsim.pipeline.Pipeline` it was compiled
        into, whose registers :meth:`recover` wipes.
        """
        if self.program is not None:
            raise SwitchError(f"{self.name} already has a program installed")
        self.program = program
        self._fast_apply = program.apply

    # ------------------------------------------------------------------
    # Failure handling (§5.6.4)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Power the switch off: all traffic is dropped."""
        self.down = True
        self._power_epoch += 1
        self.counters.incr("failures")

    def recover(self, reinit_delay_ns: int = 0) -> None:
        """Power the switch back on.

        All pipeline register state is **wiped** (soft state only);
        forwarding resumes after ``reinit_delay_ns`` of port/ASIC
        re-initialisation.
        """
        if self.program is not None:
            for register in self.program.pipeline.all_registers():
                register.clear()
        if reinit_delay_ns <= 0:
            self._finish_recovery(self._power_epoch)
        else:
            self.sim.call_after(reinit_delay_ns, self._finish_recovery, self._power_epoch)

    def _finish_recovery(self, epoch: int) -> None:
        # A fail() during the re-init delay bumps the epoch; the stale
        # recovery callback must not power the switch back on.
        if epoch != self._power_epoch:
            return
        self.down = False
        self.counters.incr("recoveries")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProgrammableSwitch {self.name} ports={len(self.ports)}>"
