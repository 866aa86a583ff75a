"""Topology builders: single-rack stars and multi-rack fabrics.

The paper's testbed is a single rack: one ToR switch with every host a
direct cable away.  :class:`StarTopology` wires hosts to switch ports,
assigns addresses, and installs L3 routes.  It is deliberately generic
over the switch object (anything exposing ``connect(port, link)`` and
``install_route(ip, port)``) so both the programmable switch model and
test doubles can be used.

§3.7 sketches multi-rack deployment: only ToR switches run NetClone
logic, the client-side ToR stamps its switch ID into the SWID field,
and every other NetClone switch skips packets whose SWID is set and
does not match its own ID.  The :class:`Fabric` subclasses here build
such fabrics out of per-rack stars plus inter-rack wiring:

* :class:`SingleRackFabric` — one ToR, the paper's testbed;
* :class:`TwoRackFabric` — two ToRs joined by a trunk link;
* :class:`SpineLeafFabric` — ``racks`` ToRs fully meshed to
  ``spines`` plain L3 spine switches.

A fabric is role-aware: hosts are attached as ``"server"``,
``"client"`` or ``"coordinator"`` with an index, and the fabric's
placement policy (:meth:`Fabric.rack_of`) decides which rack — and
therefore which subnet, ToR and inter-rack routes — the host gets.
Experiment code never wires fabrics by hand; it resolves them through
the topology plugin registry in :mod:`repro.experiments.topologies`.

Spine selection on :class:`SpineLeafFabric` is a pluggable
:class:`SpinePolicy`: :class:`EcmpSpinePolicy` pins each destination
ip to one spine (a pure function of the address, compiled into static
ToR routes and re-resolved when the active-spine set changes),
:class:`LeastLoadedSpinePolicy` reads the exact serialisation backlog
of each candidate uplink (:meth:`Link.backlog_ns`) and takes the
shallowest, and :class:`FlowletSpinePolicy` keeps a flow on its spine
until an idle gap lets it re-pick without reordering.  The fabric
takes the policy class (any ``make_policy(fabric)`` factory), never
a name: the name → policy table is the
``SPINE_POLICIES`` plugin registry in
:mod:`repro.experiments.topologies`, which the ``spine_leaf``
topology resolves its ``spine_policy`` parameter through.  Policies
see only the *active* spines, so :meth:`SpineLeafFabric.withdraw_spine`
/ :meth:`SpineLeafFabric.restore_spine` give failure drills dynamic
route updates: withdrawn spines stop receiving new traffic
immediately while in-flight packets still drain.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError, PortError
from repro.net.addresses import ip_to_int
from repro.net.host import Host
from repro.net.link import Link
from repro.sim.core import Simulator

__all__ = [
    "ACCESS_BANDWIDTH_BPS",
    "ACCESS_PROPAGATION_NS",
    "EcmpSpinePolicy",
    "Fabric",
    "FLOWLET_GAP_NS",
    "FlowletSpinePolicy",
    "LeastLoadedSpinePolicy",
    "SingleRackFabric",
    "SpineLeafFabric",
    "SpinePolicy",
    "StarTopology",
    "TRUNK_BANDWIDTH_BPS",
    "TRUNK_PROPAGATION_NS",
    "TwoRackFabric",
]

#: Host access links (host <-> ToR): 300 ns of flight at 100 Gb/s.
ACCESS_PROPAGATION_NS = 300
ACCESS_BANDWIDTH_BPS = 100e9
#: Inter-rack trunks (ToR <-> ToR or ToR <-> spine): 1 us at 400 Gb/s;
#: ``spine_leaf``'s ``trunk_bandwidth_bps`` overrides the rate.
TRUNK_PROPAGATION_NS = 1000
TRUNK_BANDWIDTH_BPS = 400e9
#: Idle gap after which :class:`FlowletSpinePolicy` may re-pick a spine.
FLOWLET_GAP_NS = 100_000


class StarTopology:
    """A single-switch star: every host gets its own switch port."""

    def __init__(
        self,
        sim: Simulator,
        switch: Any,
        subnet: str = "10.0.1.0",
        max_ports: Optional[int] = None,
    ):
        self.sim = sim
        self.switch = switch
        self.subnet_base = ip_to_int(subnet)
        #: Ports beyond this are reserved (fabric uplinks); None: no cap.
        self.max_ports = max_ports
        self.hosts: List[Host] = []
        self.links: List[Link] = []
        self.port_of: Dict[str, int] = {}
        self._next_port = 0
        self._next_host_octet = 100

    def allocate_ip(self) -> int:
        """Next free address in the subnet (``.101``, ``.102``, ...)."""
        self._next_host_octet += 1
        if self._next_host_octet > 254:
            raise NetworkError("subnet exhausted")
        return self.subnet_base + self._next_host_octet

    def add_host(self, host: Host) -> int:
        """Cable *host* to the next switch port; returns the port index."""
        if host.name in self.port_of:
            raise PortError(f"host {host.name} already attached")
        if self.max_ports is not None and self._next_port >= self.max_ports:
            raise NetworkError(
                f"rack full: {self.max_ports} host ports in use and the "
                "remaining switch ports are reserved for fabric uplinks"
            )
        port = self._next_port
        self._next_port += 1
        link = Link(
            self.sim,
            host,
            self.switch,
            propagation_ns=ACCESS_PROPAGATION_NS,
            bandwidth_bps=ACCESS_BANDWIDTH_BPS,
            name=f"link-{host.name}",
        )
        host.attach_link(link)
        self.switch.connect(port, link)
        self.switch.install_route(host.ip, port)
        self.hosts.append(host)
        self.links.append(link)
        self.port_of[host.name] = port
        return port

    def link_of(self, host: Host) -> Link:
        """The uplink of *host*."""
        port = self.port_of.get(host.name)
        if port is None:
            raise PortError(f"host {host.name} not attached")
        return self.links[port]


# ----------------------------------------------------------------------
# Spine selection policies
# ----------------------------------------------------------------------
class SpinePolicy:
    """Picks the uplink spine for one inter-rack packet at a ToR.

    A policy is owned by one :class:`SpineLeafFabric` and consulted at
    egress time on every remote ToR; it must return the index of an
    *active* spine.  Selection costs no simulated time (the decision
    models a match-action lookup already inside the pipeline pass).
    """

    #: True when the choice depends only on the destination and the
    #: active-spine set.  The fabric then compiles it into static ToR
    #: routes through the policy's ``spine_for(dst)`` (re-resolved on
    #: every withdraw/restore) and never calls :meth:`select`.
    static: bool = False

    def __init__(self, fabric: "SpineLeafFabric"):
        self.fabric = fabric

    def select(self, tor: int, packet: Any) -> int:
        """Index of the spine *packet* should take out of ToR *tor*."""
        raise NotImplementedError


class EcmpSpinePolicy(SpinePolicy):
    """Deterministic ECMP: a pure function of the destination address.

    With every spine active this reproduces the original static routes
    (``ip % spines``) bit-for-bit; after a withdrawal the same modulo
    re-maps over the surviving spines, so recovery needs no state.
    """

    static = True

    def select(self, tor: int, packet: Any) -> int:
        return self.spine_for(packet.dst)

    def spine_for(self, dst: int) -> int:
        """Index of the spine every packet to *dst* takes."""
        active = self.fabric.active_spines()
        return active[dst % len(active)]


class LeastLoadedSpinePolicy(SpinePolicy):
    """Congestion-aware: take the uplink with the shallowest backlog.

    The ECMP choice anchors the search and wins ties, so an idle
    fabric behaves exactly like ``ecmp`` and the policy only deviates
    when a trunk actually queues — the near-source congestion
    signaling that deterministic ECMP lacks.
    """

    def select(self, tor: int, packet: Any) -> int:
        fabric = self.fabric
        active = fabric.active_spines()
        count = len(active)
        anchor = packet.dst % count
        best = active[anchor]
        best_key: Tuple[int, int] = (fabric.uplink_backlog_ns(tor, best), 0)
        for offset in range(1, count):
            spine = active[(anchor + offset) % count]
            key = (fabric.uplink_backlog_ns(tor, spine), offset)
            if key < best_key:
                best, best_key = spine, key
        return best


class FlowletSpinePolicy(LeastLoadedSpinePolicy):
    """Least-loaded at flowlet granularity.

    A (ToR, src, dst) flow sticks to its spine while packets keep
    coming; after an idle gap of :data:`FLOWLET_GAP_NS` the next
    packet re-picks via the least-loaded rule.  Re-picking only across
    idle gaps is what lets real fabrics rebalance without reordering.
    """

    def __init__(self, fabric: "SpineLeafFabric"):
        super().__init__(fabric)
        #: (tor, src, dst) -> [spine, last packet time].
        self._flows: Dict[Tuple[int, int, int], List[int]] = {}

    def select(self, tor: int, packet: Any) -> int:
        now = self.fabric.sim.now
        key = (tor, packet.src, packet.dst)
        entry = self._flows.get(key)
        if (
            entry is not None
            and now - entry[1] <= FLOWLET_GAP_NS
            and self.fabric.spine_is_active(entry[0])
        ):
            entry[1] = now
            return entry[0]
        spine = super().select(tor, packet)
        self._flows[key] = [spine, now]
        return spine


# ----------------------------------------------------------------------
# Multi-rack fabrics
# ----------------------------------------------------------------------
class Fabric:
    """Base class for registry-built fabrics.

    Subclasses create switches via the injected ``make_switch(name)``
    factory (keeping this module independent of the switch model),
    wire racks together, and implement the placement policy
    :meth:`rack_of` plus the inter-rack route announcement
    :meth:`_announce`.

    Attributes driven by cluster assembly:

    * ``tors`` — the program-bearing top-of-rack switches, in rack
      order (their 1-based position is the §3.7 switch ID);
    * ``switches`` — every switch, ToRs first, then any spines;
    * ``stars`` — the per-rack :class:`StarTopology` access layer;
    * ``trunks`` — every inter-rack link (empty on a single rack), the
      set the per-link utilization metrics report on.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.tors: List[Any] = []
        self.switches: List[Any] = []
        self.stars: List[StarTopology] = []
        self.trunks: List[Link] = []

    # -- placement -----------------------------------------------------
    def rack_of(self, role: str, index: int) -> int:
        """Which rack the *index*-th host of *role* lives in."""
        raise NotImplementedError

    def racks_of(self, role: str, count: int) -> List[int]:
        """Rack of each of the first *count* hosts of *role*.

        The rack→host placement map the layers above consult: placement
        policies build rack-aware group tables from
        ``racks_of("server", n)``, and clients are handed the group
        table of ``racks_of("client", n)[i]``'s ToR.
        """
        return [self.rack_of(role, index) for index in range(count)]

    # -- host attachment hooks ----------------------------------------
    def allocate_ip(self, role: str = "host", index: int = 0) -> int:
        """Pre-allocate the address a later :meth:`attach` will route."""
        return self.stars[self.rack_of(role, index)].allocate_ip()

    def attach(self, host: Host, role: str = "host", index: int = 0) -> int:
        """Cable *host* into its rack and announce it fabric-wide."""
        rack = self.rack_of(role, index)
        port = self.stars[rack].add_host(host)
        self._announce(host, rack)
        return port

    def _announce(self, host: Host, rack: int) -> None:
        """Install the inter-rack routes that reach *host* in *rack*."""

    # -- lookups -------------------------------------------------------
    def link_of(self, host: Host) -> Link:
        """The access link of *host*, whichever rack it is in."""
        for star in self.stars:
            if host.name in star.port_of:
                return star.link_of(host)
        raise PortError(f"host {host.name} not attached to any rack")

    # -- host failure drills -------------------------------------------
    def fail_host(self, host: Host) -> None:
        """Power off *host*: its access link drops everything both ways.

        The data-plane half of a §3.6 server failure; pair it with
        :meth:`~repro.core.failures.ServerFailureHandler.remove_server`
        for the control-plane rebuild that stops traffic being steered
        at the dead host.
        """
        self.link_of(host).down = True

    def restore_host(self, host: Host) -> None:
        """Bring *host*'s access link back up (recovery drills)."""
        self.link_of(host).down = False

    @property
    def num_racks(self) -> int:
        """Number of racks (= ToR switches)."""
        return len(self.tors)

    def _make_rack(
        self,
        make_switch: Callable[[str], Any],
        rack: int,
        reserved_ports: int = 0,
        name: Optional[str] = None,
    ) -> Any:
        """One ToR plus its access star on the rack's own /24.

        *reserved_ports* top ports are kept back for fabric uplinks so
        host attachment cannot collide with trunk wiring.  The ToR is
        appended to ``tors`` **and** ``switches``, so subclasses only
        extend ``switches`` for non-ToR gear (e.g. spines).
        """
        tor = make_switch(name if name is not None else f"tor{rack + 1}")
        num_ports = getattr(tor, "num_ports", None)
        if num_ports is not None and num_ports - reserved_ports < 1:
            raise NetworkError("ToR has no ports left for hosts")
        self.tors.append(tor)
        self.switches.append(tor)
        self.stars.append(
            StarTopology(
                self.sim,
                tor,
                subnet=f"10.0.{rack + 1}.0",
                max_ports=None if num_ports is None else num_ports - reserved_ports,
            )
        )
        return tor


class SingleRackFabric(Fabric):
    """The paper's testbed: one ToR, every host one cable away."""

    def __init__(self, sim: Simulator, make_switch: Callable[[str], Any]):
        super().__init__(sim)
        self._make_rack(make_switch, 0, name="tor")

    def rack_of(self, role: str, index: int) -> int:
        return 0


class TwoRackFabric(Fabric):
    """Two ToRs joined by one trunk (§3.7).

    Clients, and the coordinator that acts on their behalf, sit in
    rack 0 and servers in rack 1, so every request crosses the trunk
    and only the client-side ToR does NetClone work.
    """

    def __init__(self, sim: Simulator, make_switch: Callable[[str], Any]):
        super().__init__(sim)
        for rack in range(2):
            self._make_rack(make_switch, rack, reserved_ports=1)
        tor_a, tor_b = self.tors
        self.uplink_ports = [tor_a.num_ports - 1, tor_b.num_ports - 1]
        self.trunk = Link(
            sim,
            tor_a,
            tor_b,
            propagation_ns=TRUNK_PROPAGATION_NS,
            bandwidth_bps=TRUNK_BANDWIDTH_BPS,
            name="trunk",
        )
        tor_a.connect(self.uplink_ports[0], self.trunk)
        tor_b.connect(self.uplink_ports[1], self.trunk)
        self.trunks.append(self.trunk)

    def rack_of(self, role: str, index: int) -> int:
        return 1 if role == "server" else 0

    def _announce(self, host: Host, rack: int) -> None:
        other = 1 - rack
        self.tors[other].install_route(host.ip, self.uplink_ports[other])


class SpineLeafFabric(Fabric):
    """``racks`` ToRs fully meshed to ``spines`` plain L3 spines.

    Servers and clients are spread round-robin across racks
    (host ``i`` lands in rack ``i % racks``); the coordinator lives in
    rack 0.  Inter-rack traffic picks its spine through the
    :class:`SpinePolicy` that ``make_policy(fabric)`` builds
    (a policy class works as is): the default :class:`EcmpSpinePolicy`
    pins each destination to ``ip % spines`` and is compiled into
    static ToR routes when a host is announced, while the least-loaded
    and flowlet policies read uplink backlog at egress time through
    per-packet selectors.  ToRs run the scheme's switch program (with
    their 1-based rack number as §3.7 switch ID); spines stay plain L3.

    Spines can be withdrawn and restored at runtime
    (:meth:`withdraw_spine` / :meth:`restore_spine`), which every
    policy honours on the next packet — the dynamic route updates that
    spine-failure and trunk-flap drills need.  A static policy's routes
    are re-resolved whenever the active-spine set changes.
    """

    def __init__(
        self,
        sim: Simulator,
        make_switch: Callable[[str], Any],
        racks: int = 2,
        spines: int = 2,
        trunk_bandwidth_bps: float = TRUNK_BANDWIDTH_BPS,
        make_policy: Callable[["SpineLeafFabric"], SpinePolicy] = EcmpSpinePolicy,
    ):
        super().__init__(sim)
        if racks < 1:
            raise NetworkError("spine-leaf needs at least one rack")
        if spines < 1:
            raise NetworkError("spine-leaf needs at least one spine")
        for rack in range(racks):
            self._make_rack(make_switch, rack, reserved_ports=spines)
        self.spines = [make_switch(f"spine{s + 1}") for s in range(spines)]
        self.switches.extend(self.spines)
        # ToR t's uplink to spine s sits at port (num_ports - 1 - s);
        # spine s's downlink to ToR t sits at port t.
        self._uplink_port: List[List[int]] = []
        #: Uplink links, indexed ``uplinks[tor][spine]``.
        self.uplinks: List[List[Link]] = []
        for t, tor in enumerate(self.tors):
            ports = []
            links = []
            for s, spine in enumerate(self.spines):
                if racks > spine.num_ports:
                    raise NetworkError("spine has fewer ports than racks")
                port = tor.num_ports - 1 - s
                link = Link(
                    sim,
                    tor,
                    spine,
                    propagation_ns=TRUNK_PROPAGATION_NS,
                    bandwidth_bps=trunk_bandwidth_bps,
                    name=f"trunk-t{t + 1}s{s + 1}",
                )
                tor.connect(port, link)
                spine.connect(t, link)
                ports.append(port)
                links.append(link)
                self.trunks.append(link)
            self._uplink_port.append(ports)
            self.uplinks.append(links)
        self._spine_up = [True] * spines
        #: Cached active-spine indices: policies read this per packet,
        #: so it is rebuilt only on withdraw/restore, not per call.
        self._active_cache = list(range(spines))
        #: Per-spine withdrawal generation; a delayed restore callback
        #: from an older generation must not re-activate the spine.
        self._spine_epoch = [0] * spines
        self.policy = make_policy(self)
        self._selectors = [self._make_selector(t) for t in range(racks)]
        #: Announced host ip → its rack: the remote routes a static
        #: policy re-resolves.
        self._rack_of_ip: Dict[int, int] = {}

    def rack_of(self, role: str, index: int) -> int:
        if role == "coordinator":
            return 0
        return index % self.num_racks

    def _announce(self, host: Host, rack: int) -> None:
        for s in self.spines:
            s.install_route(host.ip, rack)
        self._rack_of_ip[host.ip] = rack
        self._route_remote(host.ip, rack)

    def _route_remote(self, ip: int, rack: int) -> None:
        """Install the uplink route to *ip* on every ToR but *rack*'s."""
        policy = self.policy
        for t, tor in enumerate(self.tors):
            if t == rack:
                continue
            if policy.static:
                tor.install_route(ip, self._uplink_port[t][policy.spine_for(ip)])
            else:
                tor.install_dynamic_route(ip, self._selectors[t])

    def _make_selector(self, tor: int) -> Callable[[Any], int]:
        """The per-packet uplink chooser installed on ToR *tor*."""

        def select(packet: Any) -> int:
            return self._uplink_port[tor][self.policy.select(tor, packet)]

        return select

    # -- policy support ------------------------------------------------
    def active_spines(self) -> List[int]:
        """Indices of spines currently accepting new traffic.

        Returns the fabric's cached list (rebuilt on withdraw/restore,
        read per packet by the policies) — callers must not mutate it.
        """
        return self._active_cache

    def spine_is_active(self, spine: int) -> bool:
        """Whether *spine* is currently accepting new traffic."""
        return 0 <= spine < len(self._spine_up) and self._spine_up[spine]

    def uplink_backlog_ns(self, tor: int, spine: int) -> int:
        """Serialisation backlog on ToR *tor*'s uplink to *spine*."""
        return self.uplinks[tor][spine].backlog_ns(self.tors[tor])

    # -- failure drills ------------------------------------------------
    def withdraw_spine(self, spine: int, fail: bool = False) -> None:
        """Stop steering new traffic through *spine*.

        Route withdrawal is hitless: packets already on the wire (or
        queued at the spine) still drain.  With ``fail=True`` the spine
        switch is also powered off, so those in-flight packets become
        the drop window the drill measures.  Withdrawing the last
        active spine raises (the fabric would partition).
        """
        if not 0 <= spine < len(self.spines):
            raise NetworkError(f"no spine {spine} in a {len(self.spines)}-spine fabric")
        if self._spine_up[spine] and len(self.active_spines()) == 1:
            raise NetworkError("cannot withdraw the last active spine")
        self._spine_up[spine] = False
        self._spine_epoch[spine] += 1
        self._rebuild_active_cache()
        if fail:
            self.spines[spine].fail()

    def restore_spine(self, spine: int, reinit_delay_ns: int = 0) -> None:
        """Steer traffic through *spine* again (recovering it if failed).

        With a re-initialisation delay the routes come back only once
        the switch is forwarding again, so restoration never opens a
        second drop window.
        """
        if not 0 <= spine < len(self.spines):
            raise NetworkError(f"no spine {spine} in a {len(self.spines)}-spine fabric")
        switch = self.spines[spine]
        if getattr(switch, "down", False):
            switch.recover(reinit_delay_ns)
        if reinit_delay_ns > 0:
            self.sim.call_after(
                reinit_delay_ns, self._mark_spine_up, spine, self._spine_epoch[spine]
            )
        else:
            self._mark_spine_up(spine, self._spine_epoch[spine])

    def _mark_spine_up(self, spine: int, epoch: int) -> None:
        # A flap drill may withdraw again while a delayed restore is
        # pending; the stale callback (older epoch) must not win.
        if epoch != self._spine_epoch[spine]:
            return
        self._spine_up[spine] = True
        self._rebuild_active_cache()

    def _rebuild_active_cache(self) -> None:
        self._active_cache = [s for s, up in enumerate(self._spine_up) if up]
        if self.policy.static:
            for ip, rack in self._rack_of_ip.items():
                self._route_remote(ip, rack)
