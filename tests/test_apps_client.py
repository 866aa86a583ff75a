"""Unit tests for the open-loop client and a model-based filter check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import assert_points_identical, make_packet, tiny_config

from repro.apps.client import OpenLoopClient
from repro.core import NetCloneProgram
from repro.core.constants import MSG_RESP, NETCLONE_UDP_PORT
from repro.core.header import NetCloneHeader
from repro.errors import ExperimentError
from repro.experiments.common import run_point
from repro.experiments.schemes import SCHEMES
from repro.metrics.latency import LatencyRecorder
from repro.net import Host, Link
from repro.sim import Simulator
from repro.sim.units import ms, us
from repro.workloads import ExponentialDistribution, SyntheticWorkload


class EchoPeer(Host):
    """Reflects every packet back after a fixed delay."""

    def __init__(self, sim, delay_ns=5_000):
        super().__init__(sim, "echo", 2, tx_cost_ns=0, rx_cost_ns=0)
        self.delay_ns = delay_ns
        self.count = 0

    def handle(self, packet):
        self.count += 1
        response = self.packet_pool.acquire(
            src=self.ip,
            dst=packet.src,
            sport=packet.dport,
            dport=packet.sport,
            size=packet.size,
            payload=packet.payload,
            created_at=packet.created_at,
        )
        self.sim.call_after(self.delay_ns, self.send, response)


class DirectClient(OpenLoopClient):
    """Minimal strategy: one plain packet to the echo peer."""

    def build_packets(self, request):
        return [
            self.packet_pool.acquire(
                src=self.ip,
                dst=2,
                sport=1111,
                dport=2222,
                size=self.workload.request_size(request),
                payload=request,
            )
        ]


def build(rate=1e5, horizon=ms(5), echo_delay=5_000):
    sim = Simulator()
    recorder = LatencyRecorder(warmup_ns=0, end_ns=horizon)
    client = DirectClient(
        sim=sim,
        name="client",
        ip=1,
        client_id=0,
        workload=SyntheticWorkload(ExponentialDistribution(10.0), random.Random(3)),
        rate_rps=rate,
        recorder=recorder,
        rng=random.Random(4),
        stop_at_ns=horizon,
        tx_cost_ns=0,
        rx_cost_ns=0,
    )
    peer = EchoPeer(sim, delay_ns=echo_delay)
    link = Link(sim, client, peer, propagation_ns=100, bandwidth_bps=1e15)
    client.attach_link(link)
    peer.attach_link(link)
    return sim, client, peer, recorder


def test_open_loop_rate_approximation():
    sim, client, peer, recorder = build(rate=1e6, horizon=ms(10))
    client.start()
    sim.run()
    # ~1e6 rps for 10 ms -> ~10k requests.
    assert recorder.sent_in_window == pytest.approx(10_000, rel=0.1)


def test_latency_measured_from_send_to_first_response():
    sim, client, peer, recorder = build(rate=1e4, echo_delay=us(7))
    client.start()
    sim.run()
    assert len(recorder.latencies_ns) > 10
    expected = us(7) + 200  # echo delay + two propagation hops
    assert min(recorder.latencies_ns) == expected


def test_duplicate_responses_counted_redundant():
    sim, client, peer, recorder = build(rate=1e4)

    original_handle = EchoPeer.handle

    def double_handle(self, packet):
        original_handle(self, packet)
        original_handle(self, packet)

    peer.handle = double_handle.__get__(peer)
    client.start()
    sim.run()
    assert client.redundant_responses == recorder.completed_in_window
    assert client.responses_received == 2 * recorder.completed_in_window


def test_foreign_payload_ignored():
    sim, client, peer, recorder = build()

    class ForeignPayload:
        client_id = 99
        client_seq = 1

    client.handle(
        make_packet(src=2, dst=1, sport=0, dport=0, size=64, payload=ForeignPayload())
    )
    assert client.responses_received == 0


def test_client_stops_at_deadline():
    sim, client, peer, recorder = build(rate=1e5, horizon=ms(2))
    client.start()
    sim.run()
    assert client._seq <= 1e5 * 0.002 * 1.5 + 5
    assert sim.now < ms(4)  # no runaway arrivals after the deadline


def test_rate_validation():
    sim = Simulator()
    with pytest.raises(ExperimentError):
        DirectClient(
            sim=sim,
            name="bad",
            ip=1,
            client_id=0,
            workload=None,
            rate_rps=0,
            recorder=LatencyRecorder(),
            rng=random.Random(0),
        )


# ----------------------------------------------------------------------
# Pre-drawn arrivals: the chunk size never shows in a result
# ----------------------------------------------------------------------
# With ARRIVAL_CHUNK = 1 each record is drawn at its own send time, so a
# build_packets that read the clock or live client state would diverge
# from the default chunk here.  Only runs without a mid-run flush
# qualify: set_rate and a group-table swap discard the unsent records
# together with the RNG draws they spent, so after a flush the
# trajectory depends on the chunk size by design.
PREDRAW_CASES = [(scheme, "star") for scheme in SCHEMES.names()] + [
    ("netclone", "spine_leaf"),
    ("laedge", "spine_leaf"),
]


@pytest.mark.parametrize("scheme, topology", PREDRAW_CASES)
def test_arrival_chunk_does_not_change_the_point(scheme, topology, monkeypatch):
    config = tiny_config(scheme=scheme, topology=topology)
    default = run_point(config)
    monkeypatch.setattr(OpenLoopClient, "ARRIVAL_CHUNK", 1)
    assert_points_identical(run_point(config), default)


# ----------------------------------------------------------------------
# Model-based check of the filter-table register semantics
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=6), st.booleans()),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_filter_register_matches_reference_model(events):
    """The one-slot filter register equals a reference dict model.

    Events are (req_id, is_first_response) pairs replayed against both
    the real program (single filter table, single slot — worst case)
    and a trivial reference: slot holds the last inserted id; an
    arriving id equal to the slot drops and clears, anything else
    inserts/overwrites.
    """
    from repro.switchsim import ProgrammableSwitch

    program = NetCloneProgram(
        server_ips=[11, 12], num_filter_tables=1, filter_slots=1
    )
    switch = ProgrammableSwitch(Simulator())
    slot_model = 0
    for req_id, _unused in events:
        packet = make_packet(
            src=11,
            dst=5,
            sport=NETCLONE_UDP_PORT,
            dport=NETCLONE_UDP_PORT,
            size=64,
            nc=NetCloneHeader(MSG_RESP, req_id=req_id, sid=0, state=0, clo=1, idx=0),
        )
        verdict = program.apply(packet, switch)
        # True drops the packet; None forwards it.
        if slot_model == req_id:
            assert verdict is True
            slot_model = 0
        else:
            assert verdict is None
            slot_model = req_id
        assert program.filters[0].peek(0) == slot_model
