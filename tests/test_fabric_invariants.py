"""Property-style invariants over every registered fabric.

These tests treat the topology registry as the single source of truth
and sweep a parameter grid per fabric:

* **reachability** — every attached host can deliver a packet to
  every other attached host, whatever the rack count, spine count,
  trunk rate or spine policy;
* **no port collisions** — host attachment can never land on a port
  reserved for fabric uplinks (filling a rack raises the explicit
  "rack full" error, not a port clash);
* **ECMP purity** — the default spine policy is a pure function of
  the destination address: time, source and call history never change
  the selected uplink;
* **seed bit-identity** — the single-rack star and the degenerate
  1-rack spine-leaf still produce the exact numbers the seed revision
  produced (golden values captured at the pre-PR HEAD).
"""

from math import isnan
from types import SimpleNamespace

import pytest
from helpers import make_packet, tiny_config

from repro.errors import NetworkError
from repro.experiments.common import run_point
from repro.experiments.topologies import (
    SPINE_POLICIES,
    TOPOLOGIES,
    TopologyContext,
)
from repro.net.host import Host
from repro.net.topology import SpineLeafFabric
from repro.sim.core import Simulator
from repro.sim.units import ms
from repro.switchsim.switch import ProgrammableSwitch

#: Per-topology parameter grids the invariants sweep.  Registered
#: fabrics without an entry are still exercised, with defaults.
PARAM_GRIDS = {
    "star": [{}],
    "two_rack": [{}],
    "spine_leaf": [
        {"racks": 1, "spines": 1},
        {"racks": 2, "spines": 2},
        {"racks": 3, "spines": 2},
        {"racks": 2, "spines": 4, "spine_policy": "ecmp"},
        {"racks": 2, "spines": 4, "spine_policy": "least-loaded"},
        {"racks": 2, "spines": 4, "spine_policy": "flowlet"},
        # The e2e benchmark's spine-global fabric and fig19's trunks.
        {"racks": 4, "spines": 2},
        {"racks": 2, "spines": 2, "trunk_bandwidth_bps": 1e9},
    ],
}

TOPOLOGY_GRID = [
    (name, params)
    for name in TOPOLOGIES.names()
    for params in PARAM_GRIDS.get(name, [{}])
]


class _Probe(Host):
    """A host that remembers the source of every packet it receives."""

    def __init__(self, sim, name, ip):
        super().__init__(sim, name, ip, tx_cost_ns=10, rx_cost_ns=10)
        self.seen = set()

    def handle(self, packet):
        self.seen.add(packet.src)


def build_fabric(name, params, sim=None):
    """A registry-built fabric (same path Cluster uses: params resolved
    through the topology's declared table)."""
    sim = sim or Simulator()
    config = SimpleNamespace(topology_params=TOPOLOGIES.resolve(name, params)[1])
    fabric = TOPOLOGIES.get(name).make_fabric(TopologyContext(sim=sim, config=config))
    return sim, fabric


def attach_probes(sim, fabric):
    """A few hosts of every role, attached through the fabric."""
    probes = []
    for role, count in (("server", 3), ("client", 2), ("coordinator", 1)):
        for index in range(count):
            host = _Probe(
                sim, f"{role}{index}", fabric.allocate_ip(role, index)
            )
            fabric.attach(host, role, index)
            probes.append(host)
    return probes


# ----------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,params", TOPOLOGY_GRID)
def test_every_host_reaches_every_other(name, params):
    sim, fabric = build_fabric(name, params)
    probes = attach_probes(sim, fabric)
    for sender in probes:
        for receiver in probes:
            if receiver is not sender:
                sender.send(
                    make_packet(src=sender.ip, dst=receiver.ip, sport=1, dport=1, size=64)
                )
    sim.run(until=ms(10))
    expected = {probe.ip for probe in probes}
    for probe in probes:
        assert probe.seen == expected - {probe.ip}, (
            f"{name} {params}: {probe.name} missed "
            f"{expected - {probe.ip} - probe.seen}"
        )


# ----------------------------------------------------------------------
# Port reservations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,params", TOPOLOGY_GRID)
def test_host_ports_never_collide_with_uplink_reservation(name, params):
    sim, fabric = build_fabric(name, params)
    attach_probes(sim, fabric)
    trunk_ids = {id(trunk) for trunk in fabric.trunks}
    for star, tor in zip(fabric.stars, fabric.tors):
        if star.max_ports is not None:
            # Host ports stay strictly below the reservation line ...
            assert all(port < star.max_ports for port in star.port_of.values())
            # ... and every wired port at or above it holds a fabric
            # trunk, so host attachment can never have collided with
            # the uplink wiring.
            for port, link in tor.ports.items():
                if port >= star.max_ports:
                    assert id(link) in trunk_ids


def test_full_rack_raises_rack_full_not_port_clash():
    # Tiny switches: 3 ports, 2 reserved for spines -> 1 host port.
    sim = Simulator()
    fabric = SpineLeafFabric(
        sim,
        lambda name: ProgrammableSwitch(sim, name=name, num_ports=3),
        racks=2,
        spines=2,
    )
    for index in range(2):
        host = Host(sim, f"c{index}", fabric.allocate_ip("client", index))
        fabric.attach(host, "client", index)
    overflow = Host(sim, "c2", fabric.allocate_ip("client", 2))
    with pytest.raises(NetworkError, match="rack full"):
        fabric.attach(overflow, "client", 2)


# ----------------------------------------------------------------------
# ECMP purity
# ----------------------------------------------------------------------
def test_ecmp_is_a_pure_function_of_destination_ip():
    sim, fabric = build_fabric("spine_leaf", {"racks": 2, "spines": 4})
    server = _Probe(sim, "s0", fabric.allocate_ip("server", 0))
    fabric.attach(server, "server", 0)  # rack 0 -> route lives on ToR 1
    client = _Probe(sim, "c0", fabric.allocate_ip("client", 1))
    fabric.attach(client, "client", 1)
    # ECMP is compiled into a static route on the remote ToR.
    pinned = server.ip % 4
    assert fabric.tors[1].routes[server.ip] == fabric._uplink_port[1][pinned]
    # Different sources, repeated sends, later times: always one uplink.
    for src in (1, 99, 2**31):
        for _ in range(3):
            client.send(make_packet(src=src, dst=server.ip, sport=7, dport=9, size=64))
    sim.run(until=ms(1))
    client.send(make_packet(src=5, dst=server.ip, sport=1, dport=1, size=64))
    sim.run(until=ms(2))
    sent = [link.bytes_from(fabric.tors[1]) for link in fabric.uplinks[1]]
    assert sent == [10 * 64 if s == pinned else 0 for s in range(4)]
    assert server.seen == {1, 99, 2**31, 5}


def test_least_loaded_matches_ecmp_on_an_idle_fabric():
    # The anchor tie-break: with zero backlog everywhere the
    # congestion-aware policy is indistinguishable from ECMP.
    sim, fabric = build_fabric(
        "spine_leaf", {"racks": 2, "spines": 4, "spine_policy": "least-loaded"}
    )
    server = Host(sim, "s0", fabric.allocate_ip("server", 0))
    fabric.attach(server, "server", 0)
    selector = fabric.tors[1].routes[server.ip]
    assert callable(selector)  # per-packet, unlike compiled ECMP
    probe = make_packet(src=1, dst=server.ip, sport=1, dport=1, size=64)
    assert selector(probe) == fabric._uplink_port[1][server.ip % 4]


def test_all_registered_spine_policies_cover_the_builtins():
    assert {"ecmp", "least-loaded", "flowlet"} <= set(SPINE_POLICIES.names())


# ----------------------------------------------------------------------
# Seed bit-identity (golden values captured at the pre-PR HEAD)
# ----------------------------------------------------------------------
#: (offered, throughput, p50, p99, p999, mean, samples) at the seed.
GOLDEN_CORE = {
    "star": (
        203666.66666666666, 206666.66666666666, 25.94, 112.831, 178.187,
        33.548687397708676, 611,
    ),
    "spine_leaf_2x2": (
        203666.66666666666, 207000.0, 28.542, 114.446, 371.2,
        36.56360883797054, 611,
    ),
    "spine_leaf_3x2": (
        203666.66666666666, 207000.0, 29.261, 117.343, 371.2,
        37.98299345335516, 611,
    ),
}

#: Pre-existing extra counters at the seed (new trunk_* keys excluded:
#: they were added by this PR and have no seed value to compare).
GOLDEN_EXTRA = {
    "star": {
        "clones_dropped": 104.0, "nc_cloned": 637.0, "nc_filtered": 533.0,
        "nc_fingerprint_overwrite": 0.0, "redundant_responses": 0.0,
        "state_samples_total": 1341.0, "state_samples_zero": 1138.0,
    },
    "spine_leaf_2x2": {
        "clones_dropped": 93.0, "nc_cloned": 596.0, "nc_filtered": 503.0,
        "nc_fingerprint_overwrite": 0.0, "redundant_responses": 0.0,
        "state_samples_total": 1311.0, "state_samples_zero": 1092.0,
    },
    "spine_leaf_3x2": {
        "clones_dropped": 88.0, "nc_cloned": 599.0, "nc_filtered": 511.0,
        "nc_fingerprint_overwrite": 0.0, "redundant_responses": 0.0,
        "state_samples_total": 1319.0, "state_samples_zero": 1097.0,
    },
}

GOLDEN_CONFIGS = {
    "star": {},
    "spine_leaf_2x2": dict(
        topology="spine_leaf", topology_params={"racks": 2, "spines": 2}
    ),
    "spine_leaf_3x2": dict(
        topology="spine_leaf", topology_params={"racks": 3, "spines": 2}
    ),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_CONFIGS))
def test_bit_identical_to_seed_goldens(label):
    point = run_point(tiny_config(**GOLDEN_CONFIGS[label]))
    got = (
        point.offered_rps, point.throughput_rps, point.p50_us, point.p99_us,
        point.p999_us, point.mean_us, point.samples,
    )
    assert got == GOLDEN_CORE[label]
    for key, value in GOLDEN_EXTRA[label].items():
        assert point.extra[key] == value, key


def test_star_still_matches_one_rack_spine_leaf_bitwise():
    star = run_point(tiny_config())
    one_rack = run_point(
        tiny_config(topology="spine_leaf", topology_params={"racks": 1, "spines": 1})
    )
    for name in ("throughput_rps", "p50_us", "p99_us", "p999_us", "mean_us", "samples"):
        a, b = getattr(star, name), getattr(one_rack, name)
        assert a == b or (isnan(a) and isnan(b)), name
