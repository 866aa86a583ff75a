"""Tests for multi-rack deployment (§3.7) and the LÆDGE coordinator."""

import random

import pytest

from repro.apps.service import SyntheticService
from repro.baselines.laedge import LaedgeCoordinator
from repro.baselines.random_lb import PLAIN_RPC_PORT
from repro.core import (
    MSG_REQ,
    NETCLONE_UDP_PORT,
    NetCloneClient,
    NetCloneHeader,
    GroupTable,
    NetCloneProgram,
    RpcServer,
    VIRTUAL_SERVICE_IP,
    ordered_pairs,
)
from repro.errors import ExperimentError
from repro.metrics.latency import LatencyRecorder
from repro.net import Host, Link, Packet
from repro.net.topology import TwoRackFabric
from repro.sim import Simulator
from repro.sim.units import ms, us
from repro.switchsim import ProgrammableSwitch
from repro.workloads import ExponentialDistribution, JitterModel, SyntheticWorkload


# ----------------------------------------------------------------------
# Multi-rack
# ----------------------------------------------------------------------
def build_two_rack(num_servers=2):
    sim = Simulator()
    # Clients in rack 0, servers in rack 1: every request crosses the trunk.
    fabric = TwoRackFabric(sim, lambda name: ProgrammableSwitch(sim, name=name))
    client_tor, server_tor = fabric.tors
    rng = random.Random(5)
    jitter = JitterModel(0.0, 15.0)
    servers = []
    for index in range(num_servers):
        server = RpcServer(
            sim,
            name=f"srv{index}",
            ip=fabric.allocate_ip("server", index),
            server_id=index,
            service=SyntheticService(),
            jitter=jitter,
            rng=random.Random(index),
            num_workers=4,
        )
        fabric.attach(server, "server", index)
        servers.append(server)
    # NetClone logic runs in BOTH ToRs; switch IDs gate who acts.
    pairs = tuple(ordered_pairs(range(num_servers)))
    table = GroupTable(pairs=pairs, split=len(pairs))
    server_ips = [s.ip for s in servers]
    program_a = NetCloneProgram(server_ips, switch_id=1, group_table=table)
    program_b = NetCloneProgram(server_ips, switch_id=2, group_table=table)
    client_tor.install_program(program_a)
    server_tor.install_program(program_b)

    recorder = LatencyRecorder(warmup_ns=0, end_ns=ms(50))
    client = NetCloneClient(
        sim=sim,
        name="client",
        ip=fabric.allocate_ip("client", 0),
        client_id=0,
        workload=SyntheticWorkload(ExponentialDistribution(10.0), rng),
        rate_rps=20_000.0,
        recorder=recorder,
        rng=rng,
        stop_at_ns=ms(5),
        group_table=table,
    )
    fabric.attach(client, "client", 0)
    return sim, fabric, client, servers, program_a, program_b, recorder


def test_two_rack_requests_complete_exactly_once():
    sim, fabric, client, servers, program_a, program_b, recorder = build_two_rack()
    client.start()
    sim.run(until=ms(20))
    assert recorder.completed_in_window > 50
    assert client.redundant_responses == 0
    # All requests went through: nothing stuck anywhere.
    for server in servers:
        assert server.queue_len == 0


def test_two_rack_only_client_tor_applies_netclone():
    sim, fabric, client, servers, program_a, program_b, recorder = build_two_rack()
    client.start()
    sim.run(until=ms(20))
    # The client-side ToR assigned sequence numbers; the server-side ToR
    # never did (its SEQ register stayed at zero) because the SWID gate
    # excluded stamped packets.
    assert program_a.seq.peek(0) > 0
    assert program_b.seq.peek(0) == 0
    assert fabric.tors[1].counters.get("nc_cloned") == 0


def test_two_rack_cloning_works_across_trunk():
    sim, fabric, client, servers, program_a, program_b, recorder = build_two_rack()
    client.start()
    sim.run(until=ms(20))
    assert fabric.tors[0].counters.get("nc_cloned") > 0
    assert fabric.tors[0].counters.get("nc_filtered") > 0


# ----------------------------------------------------------------------
# LÆDGE coordinator unit behaviour
# ----------------------------------------------------------------------
class ScriptedServer(Host):
    """Server double that responds after a fixed delay."""

    def __init__(self, sim, name, ip, delay_ns):
        super().__init__(sim, name, ip, tx_cost_ns=0, rx_cost_ns=0)
        self.delay_ns = delay_ns
        self.seen = []

    def handle(self, packet):
        self.seen.append(packet)
        response = Packet(
            src=self.ip,
            dst=packet.src,
            sport=PLAIN_RPC_PORT,
            dport=PLAIN_RPC_PORT,
            size=128,
            payload=packet.payload,
            created_at=packet.created_at,
        )
        self.sim.schedule(self.delay_ns, self.send, response)


class FakeClient(Host):
    def __init__(self, sim, name, ip):
        super().__init__(sim, name, ip, tx_cost_ns=0, rx_cost_ns=0)
        self.responses = []

    def handle(self, packet):
        self.responses.append((self.sim.now, packet))


class Payload:
    def __init__(self, client_id, client_seq, write=False):
        self.client_id = client_id
        self.client_seq = client_seq
        self.write = write


def build_laedge(num_servers=3, slots=1, delay_ns=10_000):
    """Coordinator wired by a hub switch to scripted servers + client."""
    sim = Simulator()
    switch = ProgrammableSwitch(sim, name="hub")
    servers = [ScriptedServer(sim, f"s{i}", 200 + i, delay_ns) for i in range(num_servers)]
    client = FakeClient(sim, "client", 100)
    coordinator = LaedgeCoordinator(
        sim,
        "coord",
        ip=150,
        server_ips=[server.ip for server in servers],
        rng=random.Random(3),
        slots_per_server=slots,
        cpu_cost_ns=0,
    )
    for port, host in enumerate([client, coordinator] + servers):
        link = Link(sim, host, switch, propagation_ns=10, bandwidth_bps=1e15)
        host.attach_link(link)
        switch.connect(port, link)
        switch.install_route(host.ip, port)
    return sim, switch, client, coordinator, servers


def send_request(sim, client, coordinator, seq):
    packet = Packet(
        src=client.ip,
        dst=coordinator.ip,
        sport=PLAIN_RPC_PORT + 1,
        dport=PLAIN_RPC_PORT + 1,
        size=128,
        payload=Payload(0, seq),
    )
    client.send(packet)


def test_laedge_clones_when_two_idle():
    sim, switch, client, coordinator, servers = build_laedge()
    send_request(sim, client, coordinator, 1)
    sim.run()
    assert coordinator.counters.get("cloned") == 1
    touched = sum(1 for server in servers if server.seen)
    assert touched == 2
    # Exactly one response forwarded to the client, one absorbed.
    assert len(client.responses) == 1
    assert coordinator.counters.get("responses_absorbed") == 1


def test_laedge_forwards_when_one_slot_free():
    sim, switch, client, coordinator, servers = build_laedge(num_servers=2, slots=1)
    send_request(sim, client, coordinator, 1)  # clones to both servers
    sim.run(until=1_000)  # before responses return
    send_request(sim, client, coordinator, 2)  # all slots busy -> queued
    sim.run(until=2_000)
    assert coordinator.counters.get("queued") == 1
    sim.run()
    # After responses free slots, the queued request was dispatched.
    assert coordinator.counters.get("dispatched_from_queue") == 1
    assert len(client.responses) == 2


def test_laedge_writes_not_cloned():
    sim, switch, client, coordinator, servers = build_laedge()
    packet = Packet(
        src=client.ip,
        dst=coordinator.ip,
        sport=PLAIN_RPC_PORT + 1,
        dport=PLAIN_RPC_PORT + 1,
        size=128,
        payload=Payload(0, 1, write=True),
    )
    client.send(packet)
    sim.run()
    assert coordinator.counters.get("cloned") == 0
    assert coordinator.counters.get("forwarded") == 1


def test_laedge_validation():
    sim = Simulator()
    with pytest.raises(ExperimentError):
        LaedgeCoordinator(sim, "c", 1, server_ips=[2], rng=random.Random(0))
    with pytest.raises(ExperimentError):
        LaedgeCoordinator(
            sim, "c", 1, server_ips=[2, 3], rng=random.Random(0), slots_per_server=0
        )
