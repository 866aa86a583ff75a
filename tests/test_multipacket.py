"""Tests for the §3.7 multi-packet extension."""

import random

import pytest

from repro.apps.service import SyntheticService
from repro.core import (
    CLO_CLONED_COPY,
    MSG_REQ,
    NETCLONE_UDP_PORT,
    VIRTUAL_SERVICE_IP,
)
from repro.core.header import NetCloneHeader
from repro.core.multipacket import (
    Fragment,
    MultiPacketClient,
    MultiPacketProgram,
    MultiPacketServer,
    client_request_id,
)
from repro.core.program import CLO_NEVER_CLONE
from repro.errors import ExperimentError
from repro.metrics.latency import LatencyRecorder
from repro.net import Packet, StarTopology
from repro.sim import Simulator
from repro.sim.units import ms
from repro.switchsim import ProgrammableSwitch
from repro.workloads import ExponentialDistribution, JitterModel, SyntheticWorkload

from helpers import RecordingSwitch, run_pass

SERVER_IPS = [1001, 1002, 1003]


# ----------------------------------------------------------------------
# Unit: program-level behaviour
# ----------------------------------------------------------------------
def make_program(**kwargs):
    kwargs.setdefault("server_ips", SERVER_IPS)
    return MultiPacketProgram(**kwargs)


def make_switch():
    return RecordingSwitch()


def fragment_request(req_id, index, count, grp=0, clo=0):
    class _Inner:
        client_id = 0
        client_seq = req_id & 0xFFFFFF
        write = False

    return Packet(
        src=5000,
        dst=VIRTUAL_SERVICE_IP,
        sport=NETCLONE_UDP_PORT,
        dport=NETCLONE_UDP_PORT,
        size=128,
        payload=Fragment(_Inner(), index, count),
        nc=NetCloneHeader(MSG_REQ, req_id=req_id, grp=grp, clo=clo),
    )


def test_client_request_id_distinct_per_client_and_seq():
    a = client_request_id(0, 1)
    b = client_request_id(0, 2)
    c = client_request_id(1, 1)
    assert len({a, b, c}) == 3
    assert a != 0  # zero is the empty-slot sentinel
    with pytest.raises(ExperimentError):
        client_request_id(-1, 0)


def test_unclaimed_packets_leave_the_pass_untouched():
    program, switch = make_program(switch_id=2), make_switch()
    foreign = fragment_request(client_request_id(0, 1), index=0, count=2)
    foreign.nc.swid = 1  # another ToR's packet
    plain = Packet(src=1, dst=2, sport=80, dport=80, size=64)
    for packet in (foreign, plain):
        dst = packet.dst
        assert not program.matches(packet)
        assert run_pass(program, switch, packet) == (False, [])
        assert packet.dst == dst
    assert foreign.nc.clo == 0 and foreign.nc.swid == 1
    assert program.flow_hash.invocations == 0  # no pass was opened


def test_missing_client_id_dropped():
    program, switch = make_program(), make_switch()
    packet = fragment_request(req_id=0, index=0, count=2)
    dropped, _ = run_pass(program, switch, packet)
    assert dropped
    assert switch.counters.get("nc_missing_client_id") == 1


def test_first_fragment_clone_marks_inflight_table():
    program, switch = make_program(), make_switch()
    req_id = client_request_id(0, 1)
    first = fragment_request(req_id, index=0, count=3)
    _, copies = run_pass(program, switch, first)
    assert len(copies) == 1
    slot = program.flow_hash.index(req_id)
    assert program.cloned_request_table.peek(slot) == req_id


def test_follow_on_fragments_cloned_regardless_of_state():
    """'Every packet of a cloned request should be cloned regardless of
    system load' (§3.7)."""
    program, switch = make_program(), make_switch()
    req_id = client_request_id(0, 1)
    run_pass(program, switch, fragment_request(req_id, index=0, count=3))
    # Servers now look busy: a fresh request would NOT be cloned...
    program.state_table.poke(0, 1)
    program.shadow_table.poke(1, 1)
    follow_on = fragment_request(req_id, index=1, count=3)
    _, copies = run_pass(program, switch, follow_on)
    assert len(copies) == 1  # ...but the fragment still is
    assert switch.counters.get("nc_follow_on_fragment_cloned") == 1


def test_fragments_of_uncloned_request_not_cloned():
    program, switch = make_program(), make_switch()
    program.state_table.poke(0, 1)  # busy at fragment 0: no clone
    req_id = client_request_id(0, 2)
    assert run_pass(program, switch, fragment_request(req_id, 0, 2))[1] == []
    program.state_table.poke(0, 0)  # idle again before fragment 1
    _, copies = run_pass(program, switch, fragment_request(req_id, 1, 2))
    assert copies == []  # consistency preserved


def test_response_fragment_zero_clears_inflight_entry():
    program, switch = make_program(), make_switch()
    req_id = client_request_id(0, 3)
    run_pass(program, switch, fragment_request(req_id, 0, 1))
    slot = program.flow_hash.index(req_id)
    assert program.cloned_request_table.peek(slot) == req_id

    class _Inner:
        client_id = 0
        client_seq = 3
        write = False

    response = Packet(
        src=SERVER_IPS[0],
        dst=5000,
        sport=NETCLONE_UDP_PORT,
        dport=NETCLONE_UDP_PORT,
        size=128,
        payload=Fragment(_Inner(), 0, 2),
        nc=NetCloneHeader(2, req_id=req_id, sid=0, state=0, clo=1, idx=0),
    )
    run_pass(program, switch, response)
    assert program.cloned_request_table.peek(slot) == 0


def test_response_fragments_filtered_in_ordered_tables():
    program, switch = make_program(num_filter_tables=4), make_switch()
    req_id = client_request_id(0, 4)

    class _Inner:
        client_id = 0
        client_seq = 4
        write = False

    def response(sid, index):
        return Packet(
            src=SERVER_IPS[sid],
            dst=5000,
            sport=NETCLONE_UDP_PORT,
            dport=NETCLONE_UDP_PORT,
            size=128,
            payload=Fragment(_Inner(), index, 2),
            nc=NetCloneHeader(2, req_id=req_id, sid=sid, state=0, clo=1, idx=index),
        )

    # Fragment 0 from server 0 wins; server 1's copy is filtered.
    assert not run_pass(program, switch, response(0, 0))[0]
    assert run_pass(program, switch, response(1, 0))[0]
    # Fragment 1 is filtered independently (its own ordered table).
    assert not run_pass(program, switch, response(1, 1))[0]
    assert run_pass(program, switch, response(0, 1))[0]
    assert switch.counters.get("nc_filtered") == 2


# ----------------------------------------------------------------------
# End-to-end multi-packet cluster
# ----------------------------------------------------------------------
def build_cluster(frags=2, response_frags=2, rate=60e3, horizon=ms(30)):
    sim = Simulator()
    switch = ProgrammableSwitch(sim)
    topo = StarTopology(sim, switch)
    jitter = JitterModel(0.0, 15.0)
    servers = []
    for index in range(3):
        server = MultiPacketServer(
            sim,
            name=f"srv{index}",
            ip=topo.allocate_ip(),
            server_id=index,
            service=SyntheticService(),
            jitter=jitter,
            rng=random.Random(index),
            num_workers=4,
            response_frags=response_frags,
        )
        topo.add_host(server)
        servers.append(server)
    program = MultiPacketProgram([s.ip for s in servers])
    switch.install_program(program)
    recorder = LatencyRecorder(warmup_ns=0, end_ns=horizon)
    client = MultiPacketClient(
        sim=sim,
        name="client",
        ip=topo.allocate_ip(),
        client_id=0,
        workload=SyntheticWorkload(ExponentialDistribution(20.0), random.Random(4)),
        rate_rps=rate,
        recorder=recorder,
        rng=random.Random(5),
        stop_at_ns=horizon,
        num_groups=program.num_groups,
        frags_per_request=frags,
    )
    topo.add_host(client)
    return sim, switch, program, client, servers, recorder


def test_multipacket_end_to_end_exactly_once():
    sim, switch, program, client, servers, recorder = build_cluster()
    client.start()
    sim.run(until=ms(45))
    assert recorder.completed_in_window > 200
    assert client.redundant_responses == 0
    assert switch.counters.get("nc_cloned") > 0
    # Both request fragments were cloned for cloned requests.
    assert switch.counters.get("nc_follow_on_fragment_cloned") > 0
    for server in servers:
        assert server.counters.get("requests_reassembled") > 0
        assert server.queue_len == 0


def test_multipacket_single_fragment_degenerates_to_base():
    sim, switch, program, client, servers, recorder = build_cluster(
        frags=1, response_frags=1
    )
    client.start()
    sim.run(until=ms(45))
    assert recorder.completed_in_window > 200
    assert client.redundant_responses == 0


def test_multipacket_validation():
    sim, switch, program, client, servers, recorder = build_cluster()
    with pytest.raises(ExperimentError):
        MultiPacketClient(
            sim=sim,
            name="bad",
            ip=9,
            client_id=1,
            workload=None,
            rate_rps=1.0,
            recorder=recorder,
            rng=random.Random(0),
            num_groups=program.num_groups,
            frags_per_request=0,
        )
