"""Tests for links, hosts (with their TX/RX stack) and the star topology."""

import pytest

from helpers import make_packet

from repro.errors import NetworkError, PortError
from repro.net import Host, Link, StarTopology
from repro.net.addresses import ip_to_int
from repro.sim import Simulator


class RecordingHost(Host):
    """Host that records (time, packet) on receipt."""

    def __init__(self, sim, name, ip, **kwargs):
        super().__init__(sim, name, ip, **kwargs)
        self.received = []

    def handle(self, packet):
        self.received.append((self.sim.now, packet))


def make_pair(sim, tx_cost=0, rx_cost=0, propagation=300, bandwidth=100e9):
    a = RecordingHost(sim, "a", ip_to_int("10.0.0.1"), tx_cost_ns=tx_cost, rx_cost_ns=rx_cost)
    b = RecordingHost(sim, "b", ip_to_int("10.0.0.2"), tx_cost_ns=tx_cost, rx_cost_ns=rx_cost)
    link = Link(sim, a, b, propagation_ns=propagation, bandwidth_bps=bandwidth)
    a.attach_link(link)
    b.attach_link(link)
    return a, b, link


def packet_between(a, b, size=128):
    return make_packet(src=a.ip, dst=b.ip, sport=1, dport=2, size=size)


def test_link_delivers_with_propagation_and_serialisation():
    sim = Simulator()
    a, b, link = make_pair(sim)
    a.send(packet_between(a, b, size=1250))  # 1250 B at 100 Gb/s = 100 ns
    sim.run()
    assert len(b.received) == 1
    time, _ = b.received[0]
    assert time == 100 + 300


def test_link_serialisation_queues_back_to_back():
    sim = Simulator()
    a, b, link = make_pair(sim)
    a.send(packet_between(a, b, size=1250))
    a.send(packet_between(a, b, size=1250))
    sim.run()
    times = [t for t, _ in b.received]
    assert times == [400, 500]  # second waits for the first to serialise


def test_link_directions_are_independent():
    sim = Simulator()
    a, b, link = make_pair(sim)
    a.send(packet_between(a, b, size=1250))
    b.send(packet_between(b, a, size=1250))
    sim.run()
    assert [t for t, _ in a.received] == [400]
    assert [t for t, _ in b.received] == [400]


def test_link_down_drops_and_counts():
    sim = Simulator()
    a, b, link = make_pair(sim)
    link.down = True
    a.send(packet_between(a, b))
    sim.run()
    assert b.received == []
    assert link.drop_count == 1


def test_link_rejects_foreign_endpoint():
    sim = Simulator()
    a, b, link = make_pair(sim)
    stranger = RecordingHost(sim, "c", ip_to_int("10.0.0.3"))
    with pytest.raises(NetworkError):
        link.send(packet_between(a, b), stranger)


def test_link_validation():
    sim = Simulator()
    a = RecordingHost(sim, "a", 1)
    b = RecordingHost(sim, "b", 2)
    with pytest.raises(NetworkError):
        Link(sim, a, b, propagation_ns=-1)
    with pytest.raises(NetworkError):
        Link(sim, a, b, bandwidth_bps=0)


class _IngressProbe:
    """Switch-like receiver: records when each fused ingress pass runs."""

    name = "probe"
    pipeline_latency_ns = 400

    def __init__(self, sim):
        self.sim = sim
        self.times = []

    def link_ingress(self, packet, arriving):
        self.times.append(self.sim.now)


def test_propagation_change_after_wiring_reaches_the_schedule():
    # The delay is re-derived for both directions when it changes, so
    # both receiver kinds see the packet when Link.send says it lands.
    sim = Simulator()
    a, b, pair = make_pair(sim)
    switch = _IngressProbe(sim)
    sink = RecordingHost(sim, "sink", 3, rx_cost_ns=0)
    to_switch = Link(sim, sink, switch)
    for link in (pair, to_switch):
        link.propagation_ns = 1000
    assert pair.send(packet_between(a, b, size=1250), a) == 1100
    assert pair.send(packet_between(b, a, size=1250), b) == 1100
    assert to_switch.send(packet_between(a, b, size=1250), sink) == 1100
    assert to_switch.send(packet_between(a, b, size=1250), switch) == 1100
    sim.run()
    assert [t for t, _ in b.received] == [1100]
    assert [t for t, _ in a.received] == [1100]
    assert switch.times == [1100 + 400]
    assert [t for t, _ in sink.received] == [1100]
    with pytest.raises(NetworkError):
        pair.propagation_ns = -1


class _NeverDrop:
    """A loss RNG whose draws never fall below the loss probability."""

    def __init__(self):
        self.draws = 0

    def random(self):
        self.draws += 1
        return 0.999


def _run_switched(lossy):
    """Two hosts through a ToR; returns every timing/booking observable.

    A lossy link sends each hop through ``Link.send`` (the host's
    evented TX-done fallback and the switch's slow egress); a clean
    one books it on the fast path.
    """
    from repro.switchsim.switch import ProgrammableSwitch

    sim = Simulator()
    switch = ProgrammableSwitch(sim)
    a = RecordingHost(sim, "a", ip_to_int("10.0.0.1"), tx_cost_ns=50, rx_cost_ns=30)
    b = RecordingHost(sim, "b", ip_to_int("10.0.0.2"), tx_cost_ns=70, rx_cost_ns=20)
    rng = _NeverDrop()
    links = []
    for port, host in enumerate((a, b)):
        link = Link(
            sim,
            host,
            switch,
            bandwidth_bps=10e9,
            loss_probability=0.5 if lossy else 0.0,
            loss_rng=rng,
        )
        host.attach_link(link)
        switch.connect(port, link)
        switch.install_route(host.ip, port)
        links.append(link)
    # Back-to-back bursts (NIC and link queueing), idle gaps, mixed
    # sizes, and both directions crossing the switch at once.
    sends = [
        (0, a, b, 1500), (0, a, b, 64), (0, a, b, 256), (10, b, a, 1500),
        (10, b, a, 64), (900, a, b, 128), (905, b, a, 128), (5000, a, b, 1500),
    ]
    for t, src, dst, size in sends:
        packet = make_packet(src=src.ip, dst=dst.ip, sport=1, dport=2, size=size)
        sim.call_at(t, src.send, packet)
    sim.run()
    assert rng.draws == (2 * len(sends) if lossy else 0)
    return (
        [(t, p.size) for t, p in a.received],
        [(t, p.size) for t, p in b.received],
        [
            (d.free_at, d.tx_bytes)
            for link in links
            for d in (link.from_a, link.from_b)
        ],
        [(link.tx_count, link.drop_count) for link in links],
    )


def test_fast_path_and_link_send_fallback_book_identically():
    clean = _run_switched(lossy=False)
    assert len(clean[0]) == 3 and len(clean[1]) == 5
    assert clean == _run_switched(lossy=True)


def test_host_tx_serialises_back_to_back_sends():
    sim = Simulator()
    a, b, _ = make_pair(sim, tx_cost=700)
    a.send(packet_between(a, b, size=1250))  # 100 ns serialisation
    a.send(packet_between(a, b, size=1250))
    sim.run()
    # The second send leaves the host one tx_cost after the first.
    assert [t for t, _ in b.received] == [700 + 100 + 300, 1400 + 100 + 300]


def test_host_rx_queue_limit_drops_same_instant_arrivals():
    sim = Simulator()
    host = RecordingHost(sim, "h", 1, rx_cost_ns=100, rx_queue_limit=2)
    packets = [make_packet(src=2, dst=1, sport=1, dport=2, size=64) for _ in range(3)]
    for packet in packets:
        host.link_rx_at(packet, 500)
    # The third arrival finds two packets' worth of RX work booked.
    assert host.rx_dropped == 1
    sim.run()
    assert host.received == [(600, packets[0]), (700, packets[1])]


def test_host_zero_costs_handle_at_link_arrival():
    sim = Simulator()
    a, b, link = make_pair(sim)
    packet = packet_between(a, b, size=1250)
    a.send(packet)
    sim.run()
    assert b.received == [(100 + 300, packet)]
    assert b.rx_dropped == 0


def test_host_validation():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Host(sim, "h", 1, tx_cost_ns=-1)
    with pytest.raises(NetworkError):
        Host(sim, "h", 1, rx_cost_ns=-1)
    with pytest.raises(NetworkError):
        Host(sim, "h", 1, rx_queue_limit=0)


def test_host_stack_costs_add_to_latency():
    sim = Simulator()
    a, b, _ = make_pair(sim, tx_cost=700, rx_cost=700, propagation=300)
    a.send(packet_between(a, b, size=125))  # 10 ns serialisation
    sim.run()
    time, _ = b.received[0]
    assert time == 700 + 10 + 300 + 700


def test_host_requires_link():
    sim = Simulator()
    host = RecordingHost(sim, "solo", 1)
    with pytest.raises(NetworkError):
        host.send(make_packet(src=1, dst=2, sport=0, dport=0, size=64))


def test_host_single_link_only():
    sim = Simulator()
    a, b, link = make_pair(sim)
    with pytest.raises(NetworkError):
        a.attach_link(link)


class FakeSwitch:
    """Minimal switch-like object for topology tests."""

    pipeline_latency_ns = 0

    def __init__(self):
        self.name = "fake"
        self.connections = {}
        self.routes = {}

    def connect(self, port, link):
        self.connections[port] = link

    def install_route(self, ip, port):
        self.routes[ip] = port

    def link_ingress(self, packet, arriving):
        pass


def test_star_topology_wires_ports_and_routes():
    sim = Simulator()
    switch = FakeSwitch()
    topo = StarTopology(sim, switch)
    hosts = [RecordingHost(sim, f"h{i}", topo.allocate_ip()) for i in range(3)]
    ports = [topo.add_host(h) for h in hosts]
    assert ports == [0, 1, 2]
    assert switch.routes[hosts[0].ip] == 0
    assert switch.routes[hosts[2].ip] == 2
    assert topo.link_of(hosts[1]) is topo.links[1]
    assert topo.port_of["h1"] == 1


def test_star_topology_rejects_duplicates_and_unknown():
    sim = Simulator()
    topo = StarTopology(sim, FakeSwitch())
    host = RecordingHost(sim, "h", topo.allocate_ip())
    topo.add_host(host)
    with pytest.raises(PortError):
        topo.add_host(host)
    with pytest.raises(PortError):
        topo.link_of(RecordingHost(sim, "ghost", 99))


def test_star_topology_allocates_distinct_ips():
    sim = Simulator()
    topo = StarTopology(sim, FakeSwitch())
    ips = {topo.allocate_ip() for _ in range(10)}
    assert len(ips) == 10


def test_packet_copy_is_independent():
    packet = make_packet(src=1, dst=2, sport=3, dport=4, size=100, payload="shared")
    packet.ingress_port = 7
    clone = packet.copy()
    assert clone.uid != packet.uid
    assert clone.ingress_port == -1
    assert clone.payload is packet.payload
    assert clone.dst == packet.dst
