"""Tests for the RpcServer and client applications in isolation."""

import random

import pytest

from helpers import make_packet

from repro.apps.service import KvService, SyntheticService
from repro.core import (
    CLO_CLONED_COPY,
    CLO_CLONED_ORIGINAL,
    MSG_REQ,
    MSG_RESP,
    NETCLONE_UDP_PORT,
    NetCloneHeader,
    RpcServer,
)
from repro.errors import ExperimentError
from repro.kvstore import KeyValueStore, RedisCostModel
from repro.net import Host, Link
from repro.sim import Simulator
from repro.workloads import JitterModel, KvOp, KvRequest, RpcRequest


class Collector(Host):
    """Counterparty host that records everything it receives."""

    def __init__(self, sim, name="collector", ip=42):
        super().__init__(sim, name, ip, tx_cost_ns=0, rx_cost_ns=0)
        self.received = []

    def handle(self, packet):
        self.received.append((self.sim.now, packet))


def make_server(sim, collector, num_workers=2, jitter_p=0.0, **kwargs):
    server = RpcServer(
        sim,
        name="srv",
        ip=99,
        server_id=0,
        service=SyntheticService(),
        jitter=JitterModel(jitter_p, 15.0),
        rng=random.Random(7),
        num_workers=num_workers,
        tx_cost_ns=0,
        rx_cost_ns=0,
        **kwargs,
    )
    link = Link(sim, server, collector, propagation_ns=0, bandwidth_bps=1e15)
    server.attach_link(link)
    collector.attach_link(link)
    return server


def nc_request(seq, service_ns=1000, clo=0):
    payload = RpcRequest(client_id=0, client_seq=seq, service_ns=service_ns)
    return make_packet(
        src=42,
        dst=99,
        sport=NETCLONE_UDP_PORT,
        dport=NETCLONE_UDP_PORT,
        size=128,
        payload=payload,
        nc=NetCloneHeader(MSG_REQ, req_id=seq, clo=clo),
    )


def test_server_executes_and_responds_with_service_time():
    sim = Simulator()
    collector = Collector(sim)
    server = make_server(sim, collector)
    server.handle(nc_request(1, service_ns=5_000))
    sim.run()
    assert len(collector.received) == 1
    time, packet = collector.received[0]
    assert time == 5_000  # zero stack costs in this harness
    assert packet.nc.msg_type == MSG_RESP
    assert packet.nc.sid == 0
    assert packet.payload.client_seq == 1


def test_server_state_piggyback_reflects_queue():
    sim = Simulator()
    collector = Collector(sim)
    server = make_server(sim, collector, num_workers=1)
    for seq in range(1, 5):
        server.handle(nc_request(seq, service_ns=1_000))
    sim.run()
    states = [packet.nc.state for _, packet in collector.received]
    # Responses drain the queue: 4 requests, 1 worker.  After the first
    # completes the next is dispatched, leaving 2, then 1, then 0, 0.
    assert states == [2, 1, 0, 0]


def test_server_drops_stale_clone_when_queue_nonempty():
    sim = Simulator()
    collector = Collector(sim)
    server = make_server(sim, collector, num_workers=1)
    server.handle(nc_request(1, service_ns=10_000))
    server.handle(nc_request(2, service_ns=10_000))  # queued
    server.handle(nc_request(3, clo=CLO_CLONED_COPY))  # stale clone: dropped
    sim.run()
    assert server.counters.get("clones_dropped") == 1
    seqs = sorted(packet.payload.client_seq for _, packet in collector.received)
    assert seqs == [1, 2]


def test_server_never_drops_cloned_original():
    sim = Simulator()
    collector = Collector(sim)
    server = make_server(sim, collector, num_workers=1)
    server.handle(nc_request(1, service_ns=10_000))
    server.handle(nc_request(2, service_ns=10_000))
    server.handle(nc_request(3, clo=CLO_CLONED_ORIGINAL))  # original: kept
    sim.run()
    assert server.counters.get("clones_dropped") == 0
    assert len(collector.received) == 3


def test_server_accepts_clone_when_queue_empty():
    sim = Simulator()
    collector = Collector(sim)
    server = make_server(sim, collector, num_workers=2)
    server.handle(nc_request(1, clo=CLO_CLONED_COPY))
    sim.run()
    assert server.counters.get("clones_dropped") == 0
    assert len(collector.received) == 1


def test_server_clone_drop_disabled_for_ablation():
    sim = Simulator()
    collector = Collector(sim)
    server = make_server(sim, collector, num_workers=1, drop_stale_clones=False)
    server.handle(nc_request(1, service_ns=10_000))
    server.handle(nc_request(2, service_ns=10_000))
    server.handle(nc_request(3, clo=CLO_CLONED_COPY))
    sim.run()
    assert server.counters.get("clones_dropped") == 0
    assert len(collector.received) == 3


def test_server_jitter_extends_execution():
    sim = Simulator()
    collector = Collector(sim)
    server = make_server(sim, collector, jitter_p=1.0)
    server.handle(nc_request(1, service_ns=1_000))
    sim.run()
    time, _ = collector.received[0]
    assert time == 15_000


def test_server_plain_request_gets_plain_response():
    sim = Simulator()
    collector = Collector(sim)
    server = make_server(sim, collector, netclone_mode=False)
    payload = RpcRequest(client_id=0, client_seq=1, service_ns=100)
    server.handle(make_packet(src=42, dst=99, sport=7000, dport=7000, size=128, payload=payload))
    sim.run()
    _, packet = collector.received[0]
    assert packet.nc is None
    assert packet.dst == 42


def test_server_ignores_response_packets():
    sim = Simulator()
    collector = Collector(sim)
    server = make_server(sim, collector)
    server.handle(
        make_packet(
            src=1,
            dst=99,
            sport=NETCLONE_UDP_PORT,
            dport=NETCLONE_UDP_PORT,
            size=64,
            nc=NetCloneHeader(MSG_RESP, req_id=1),
        )
    )
    sim.run()
    assert collector.received == []
    assert server.counters.get("non_request_ignored") == 1


def test_server_validation():
    sim = Simulator()
    collector = Collector(sim)
    with pytest.raises(ExperimentError):
        make_server(sim, collector, num_workers=0)


def test_server_worker_parallelism():
    sim = Simulator()
    collector = Collector(sim)
    server = make_server(sim, collector, num_workers=3)
    for seq in range(1, 4):
        server.handle(nc_request(seq, service_ns=1_000))
    sim.run()
    times = [time for time, _ in collector.received]
    assert times == [1_000, 1_000, 1_000]  # all three in parallel


def test_kv_service_executes_against_store():
    store = KeyValueStore(num_keys=1000)
    service = KvService(store, RedisCostModel())
    get = KvRequest(client_id=0, client_seq=1, op=KvOp.GET, key=5)
    scan = KvRequest(client_id=0, client_seq=2, op=KvOp.SCAN, key=10, count=100)
    assert service.base_service_ns(get) == 50_000
    assert service.base_service_ns(scan) == 150_000 + 100 * 24_000
    value = service.execute(get)
    assert len(value) == store.VALUE_BYTES
    assert service.execute(scan) == 100
    assert store.gets == 1 and store.scans == 1
    assert service.response_size(scan) > service.response_size(get)


def test_kv_service_set_roundtrip():
    store = KeyValueStore(num_keys=10)
    service = KvService(store, RedisCostModel())
    put = KvRequest(client_id=0, client_seq=1, op=KvOp.SET, key=3)
    assert put.write
    service.execute(put)
    assert store.get(3) == b"\x00" * store.VALUE_BYTES
