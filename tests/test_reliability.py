"""Tests for retransmission support under packet loss (§3.7)."""

import random

import pytest
from helpers import make_packet

from repro.apps.service import SyntheticService
from repro.core.constants import MSG_REQ
from repro.core.placement import GroupTable
from repro.core.program import NetCloneProgram
from repro.core.reliability import ReliableNetCloneClient, client_request_id
from repro.core.server import RpcServer
from repro.errors import ExperimentError, NetworkError
from repro.metrics.latency import LatencyRecorder
from repro.net import Host, Link, StarTopology
from repro.sim import Simulator
from repro.sim.units import ms, us
from repro.switchsim import ProgrammableSwitch
from repro.workloads import ExponentialDistribution, JitterModel, SyntheticWorkload


def build_lossy_cluster(loss=0.05, rate=40e3, horizon=ms(30), max_attempts=6):
    sim = Simulator()
    switch = ProgrammableSwitch(sim)
    topo = StarTopology(sim, switch)
    jitter = JitterModel(0.0, 15.0)
    servers = []
    for index in range(3):
        server = RpcServer(
            sim,
            name=f"srv{index}",
            ip=topo.allocate_ip(),
            server_id=index,
            service=SyntheticService(),
            jitter=jitter,
            rng=random.Random(index),
            num_workers=4,
        )
        topo.add_host(server)
        servers.append(server)
    # The base program keeps client-assigned (nonzero) request IDs.
    program = NetCloneProgram([s.ip for s in servers])
    switch.install_program(program)
    recorder = LatencyRecorder(warmup_ns=0, end_ns=horizon)
    client = ReliableNetCloneClient(
        sim=sim,
        name="client",
        ip=topo.allocate_ip(),
        client_id=0,
        workload=SyntheticWorkload(ExponentialDistribution(20.0), random.Random(8)),
        rate_rps=rate,
        recorder=recorder,
        rng=random.Random(9),
        stop_at_ns=horizon,
        group_table=program.group_table,
        retransmit_timeout_ns=us(400),
        max_attempts=max_attempts,
    )
    topo.add_host(client)
    # Drop packets on every server uplink, both directions.
    for server in servers:
        link = topo.link_of(server)
        link.loss_probability = loss
        link._loss_rng = random.Random(1234)
    return sim, switch, client, servers, recorder


def _record_request_ids(server, seen):
    """Wrap *server*'s handler to log ``(client_seq, req_id)`` of requests."""
    handle = server.handle

    def logging_handle(packet):
        if packet.nc is not None and packet.nc.msg_type == MSG_REQ:
            seen.append((packet.payload.client_seq, packet.nc.req_id))
        handle(packet)

    server.handle = logging_handle


def test_lossless_run_has_no_retransmissions():
    sim, switch, client, servers, recorder = build_lossy_cluster(loss=0.0)
    client.start()
    sim.run(until=ms(40))
    assert client.retransmissions == 0
    assert client.abandoned == 0
    assert recorder.completed_in_window > 200


def test_retransmissions_recover_lost_requests():
    sim, switch, client, servers, recorder = build_lossy_cluster(loss=0.05)
    seen = []
    _record_request_ids(servers[0], seen)
    client.start()
    sim.run(until=ms(60))
    sent = client._seq
    completed = recorder.completed_in_window
    assert client.retransmissions > 0
    # With 6 attempts at 5% loss, effectively everything completes.
    assert completed >= 0.995 * sent
    # Every sent request is completed (first response), still
    # outstanding, or abandoned — exactly one of the three.
    first_responses = client.responses_received - client.redundant_responses
    assert first_responses + client.outstanding + client.abandoned == sent
    # Client-assigned IDs cross the switch unchanged, and SEQ never moves.
    assert seen
    assert all(req_id == client_request_id(0, seq) for seq, req_id in seen)
    assert switch.program.seq.peek(0) == 0


def test_retransmission_keeps_request_id_stable():
    """The Lamport-style ID is identical across attempts (§3.7)."""
    sim, switch, client, servers, recorder = build_lossy_cluster(loss=0.0)
    request = client.workload.make_request(0, 1)
    (first,) = client.build_packets(request)
    (second,) = client.build_packets(request)
    assert first.nc.req_id == second.nc.req_id
    assert first.nc.req_id == client_request_id(0, 1)


def test_retransmissions_follow_a_rebuilt_group_table():
    """A §3.6 table swap reaches every later attempt, IDs unchanged."""
    sim, switch, client, servers, recorder = build_lossy_cluster(loss=0.1)
    assert client.num_groups == 6
    smaller = GroupTable(pairs=((0, 1), (1, 0)), split=2, epoch=1)

    swapped = []

    def rebuild():
        switch.program.install_group_table(smaller)
        client.install_group_table(smaller)
        swapped.append(sim.now)

    sim.call_at(ms(10), rebuild)
    before, after = set(), []
    send = client.send

    def logging_send(packet):
        seq = packet.payload.client_seq
        if swapped:
            after.append((seq, packet.nc.grp, packet.nc.req_id))
        else:
            before.add(seq)
        send(packet)

    client.send = logging_send
    client.start()
    sim.run(until=ms(60))
    assert client.group_table is smaller
    after_seqs = [seq for seq, _, _ in after]
    # Requests first sent before the swap are retransmitted after it,
    # and some requests take several attempts after it.
    assert before & set(after_seqs)
    assert len(set(after_seqs)) < len(after_seqs)
    assert all(0 <= grp < smaller.num_groups for _, grp, _ in after)
    assert all(req_id == client_request_id(0, seq) for seq, _, req_id in after)


def test_client_request_id_distinct_per_client_and_seq():
    a = client_request_id(0, 1)
    b = client_request_id(0, 2)
    c = client_request_id(1, 1)
    assert len({a, b, c}) == 3
    # Zero asks the switch for an ID, so a client ID is never zero, and
    # the highest client still fits the 32-bit header field.
    assert client_request_id(0, 0) != 0
    assert client_request_id(254, (1 << 24) - 1) == (1 << 32) - 1
    with pytest.raises(ExperimentError):
        client_request_id(-1, 0)
    with pytest.raises(ExperimentError):
        client_request_id(255, 0)


def test_heavy_loss_abandons_after_max_attempts():
    sim, switch, client, servers, recorder = build_lossy_cluster(
        loss=0.9, rate=5e3, horizon=ms(20), max_attempts=2
    )
    client.start()
    sim.run(until=ms(60))
    assert client.abandoned > 0
    # Abandoned requests are not counted as completed.
    assert recorder.completed_in_window < client._seq


def test_reliable_client_validation():
    sim, switch, client, servers, recorder = build_lossy_cluster()
    with pytest.raises(ExperimentError):
        ReliableNetCloneClient(
            sim=sim,
            name="bad",
            ip=1,
            client_id=0,
            workload=None,
            rate_rps=1.0,
            recorder=recorder,
            rng=random.Random(0),
            group_table=client.group_table,
            retransmit_timeout_ns=0,
        )
    with pytest.raises(ExperimentError):
        ReliableNetCloneClient(
            sim=sim,
            name="bad2",
            ip=2,
            client_id=0,
            workload=None,
            rate_rps=1.0,
            recorder=recorder,
            rng=random.Random(0),
            group_table=client.group_table,
            max_attempts=0,
        )


def test_link_loss_validation_and_counting():
    sim = Simulator()
    a, b = Host(sim, "a", 1), Host(sim, "b", 2)
    with pytest.raises(NetworkError):
        Link(sim, a, b, loss_probability=1.0)
    lossy = Link(sim, a, b, loss_probability=0.5, loss_rng=random.Random(7))

    drops = 0
    for _ in range(200):
        if lossy.send(make_packet(size=100, pool=a.packet_pool), a) is None:
            drops += 1
    assert drops == lossy.drop_count
    assert 60 < drops < 140
