"""The simulator entry points the end-to-end benchmark's tracer wraps.

``benchmarks/e2e/spans.py`` attributes time to layers by replacing
named class attributes (``ENTRY_POINTS``) and each ToR's cached
``_fast_apply``.  A rename on the simulator side would only break the
benchmark's traced run; these tests catch it in the smoke tier.  They
read ``spans.py`` and never install its class-level wrappers.

The hop entry points may be C methods (the forwarding hop in
``sim/_ccore.c``); a wrapper installed on the class before a cluster is
built must still see every hop, so the C link direction has to call the
entry it resolved at wiring time rather than the C method behind it.
The same holds for recirculation: the C NetClone pass recirculates
clones itself, and the switch schedules the ``_run_recirculated`` it
resolved when it was built.  And for the packet plane: the C hop
releases dropped packets and the C pass copies clones itself, so both
must call ``Packet.release``, ``Packet.copy`` and ``PacketPool.acquire``
as Python would look them up, wrappers included.  And for the server:
the C request path dispatches and finishes requests itself, so the RX
slot must dispatch ``RpcServer.handle`` and a started request must
schedule ``RpcServer._finish_work`` as Python would look them up.
And for the client: the C request path schedules its next send,
dispatches responses and builds packets itself, so it must schedule
``OpenLoopClient._send_one``, dispatch ``OpenLoopClient.handle`` and
call ``NetCloneClient.build_packets``/``BaselineClient.build_packets``
as Python would look them up.  And for the latency recorder: the C
client books sends and first responses in the C recorder itself, so it
must call ``LatencyRecorder.note_sent``/``LatencyRecorder.record`` as
Python would look them up.  And for the KV service: the C server
replays ``KvService``'s cost, execution and response size and
``JitterModel.apply`` itself, so it must call each of them as Python
would look them up, or the tracer's ``apps.service`` layer reads 0.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from helpers import make_packet, tiny_config
from repro.apps.client import OpenLoopClient
from repro.apps.service import KvService
from repro.baselines.random_lb import BaselineClient
from repro.core.client import NetCloneClient
from repro.core.server import RpcServer
from repro.experiments.common import Cluster
from repro.experiments.specs import KvSpec
from repro.metrics.latency import LatencyRecorder
from repro.net.host import Host
from repro.net.packet import Packet, PacketPool
from repro.switchsim.switch import ProgrammableSwitch
from repro.workloads import JitterModel

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer, module, cls_name, attr",
    load_spans().ENTRY_POINTS,
)
def test_entry_point_resolves_on_its_class(layer, module, cls_name, attr):
    cls = getattr(importlib.import_module(module), cls_name)
    assert callable(cls.__dict__.get(attr)), f"{module}.{cls_name}.{attr}"


def test_wrapped_program_sees_every_pass():
    spans = load_spans()
    cluster = Cluster(tiny_config(topology="star"))
    cluster.start()
    recirculated_passes = []
    for tor in cluster.tors:
        program_pass = tor._fast_apply

        def counted(packet, switch, program_pass=program_pass):
            if packet.recirculated:
                recirculated_passes.append(packet)
            return program_pass(packet, switch)

        tor._fast_apply = counted
    tracer = spans.Tracer()
    tracer.wrap_programs(cluster)
    cluster.run()
    cluster.sim.run()

    (tor,) = cluster.tors
    cloned = tor.counters.get("nc_cloned")
    assert cloned > 0
    assert len(recirculated_passes) == tor.counters.get("recirculated") == cloned
    assert tracer.calls("core.program") == (
        tor.counters.get("rx") + tor.counters.get("recirculated")
    )


def test_class_level_hop_wrappers_see_every_hop(monkeypatch):
    calls = {"link_rx_at": 0, "link_ingress": 0}
    for cls, attr in ((Host, "link_rx_at"), (ProgrammableSwitch, "link_ingress")):

        def counted(*args, inner=cls.__dict__[attr], attr=attr):
            calls[attr] += 1
            return inner(*args)

        monkeypatch.setattr(cls, attr, counted)
    cluster = Cluster(
        tiny_config(
            topology="spine_leaf",
            topology_params={"racks": 2, "spines": 2},
            placement="global",
        )
    )
    cluster.start()
    cluster.run()
    cluster.sim.run()

    fabric = cluster.topology
    links = [link for star in fabric.stars for link in star.links] + list(fabric.trunks)
    directions = [d for link in links for d in (link.from_a, link.from_b)]
    host_bookings = sum(d.tx_count for d in directions if d.rx_at_send)
    switch_arrivals = sum(d.tx_count for d in directions if not d.rx_at_send)
    assert host_bookings > 0 and switch_arrivals > 0
    assert calls["link_rx_at"] == host_bookings
    assert calls["link_ingress"] == switch_arrivals == sum(
        switch.counters.get("rx") for switch in cluster.switches
    )


def test_class_level_recirculation_wrapper_sees_every_recirculated_pass(monkeypatch):
    calls = []
    inner = ProgrammableSwitch.__dict__["_run_recirculated"]

    def counted(switch, packet):
        calls.append(packet.uid)
        return inner(switch, packet)

    monkeypatch.setattr(ProgrammableSwitch, "_run_recirculated", counted)
    cluster = Cluster(tiny_config(topology="star"))
    cluster.start()
    cluster.run()
    cluster.sim.run()

    (tor,) = cluster.tors
    recirculated = tor.counters.get("recirculated")
    assert recirculated > 0
    assert len(calls) == recirculated == tor.counters.get("nc_cloned")


def test_class_level_packet_wrappers_see_every_packet_call(monkeypatch):
    calls = {"acquire": 0, "copy": 0, "release": 0}
    for cls, attr in ((PacketPool, "acquire"), (Packet, "copy"), (Packet, "release")):

        def counted(*args, inner=cls.__dict__[attr], attr=attr, **kwargs):
            calls[attr] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)
    cluster = Cluster(tiny_config(topology="star"))
    cluster.start()
    cluster.run()
    cluster.sim.run()

    pool = cluster.packet_pool
    (tor,) = cluster.tors
    # Clone copies come from the C pass and filtered responses are
    # released by the C hop; both must have gone through the wrappers.
    assert tor.counters.get("nc_cloned") > 0 and tor.counters.get("nc_filtered") > 0
    assert calls["acquire"] == pool.uid_count
    assert calls["copy"] == tor.counters.get("nc_cloned")
    assert calls["release"] == pool.released


def test_class_level_server_wrappers_see_every_server_call(monkeypatch):
    calls = {"handle": 0, "_finish_work": 0}
    for attr in calls:

        def counted(*args, inner=RpcServer.__dict__[attr], attr=attr):
            calls[attr] += 1
            return inner(*args)

        monkeypatch.setattr(RpcServer, attr, counted)
    cluster = Cluster(tiny_config(topology="star"))
    cluster.start()
    cluster.run()
    cluster.sim.run()

    def total(key):
        return sum(server.counters.get(key) for server in cluster.servers)

    assert total("clones_dropped") > 0 and total("responses_sent") > 0
    assert calls["handle"] == (
        total("requests_accepted") + total("clones_dropped")
        + total("non_request_ignored")
    )
    assert calls["_finish_work"] == total("responses_sent")


@pytest.mark.parametrize("scheme, builder", [
    ("netclone", NetCloneClient), ("baseline", BaselineClient),
])
def test_class_level_client_wrappers_see_every_client_call(monkeypatch, scheme, builder):
    from repro.workloads import RpcRequest

    calls = {"_send_one": 0, "handle": 0, "build_packets": 0}
    for cls, attr in (
        (OpenLoopClient, "_send_one"), (OpenLoopClient, "handle"),
        (builder, "build_packets"),
    ):

        def counted(*args, inner=cls.__dict__[attr], attr=attr):
            calls[attr] += 1
            return inner(*args)

        monkeypatch.setattr(cls, attr, counted)
    cluster = Cluster(tiny_config(scheme=scheme, topology="star"))
    clients = cluster.clients
    assert all(type(client) is builder for client in clients)
    # Two responses no client counts, through the RX slot: a foreign
    # client's and one with no payload.
    client = clients[0]
    for payload in (RpcRequest(client_id=99, client_seq=1, service_ns=1), None):
        client.link_rx_at(make_packet(payload=payload, pool=cluster.packet_pool), 0)
    cluster.start()
    cluster.run()
    cluster.sim.run()

    sent = sum(client._seq for client in clients)
    assert sent > 0 and all(client.outstanding == 0 for client in clients)
    # Every send, plus each client's one call at stop_at_ns, which
    # sends nothing and schedules no further call.
    assert calls["_send_one"] == sent + len(clients)
    assert calls["handle"] == sum(client.responses_received for client in clients) + 2
    assert calls["build_packets"] == sum(client._predrawn_seq for client in clients)


def test_class_level_recorder_wrappers_see_every_call(monkeypatch):
    calls = {"note_sent": 0, "record": 0}
    for attr in calls:

        def counted(*args, inner=LatencyRecorder.__dict__[attr], attr=attr):
            calls[attr] += 1
            return inner(*args)

        monkeypatch.setattr(LatencyRecorder, attr, counted)
    cluster = Cluster(tiny_config(topology="star"))
    cluster.start()
    cluster.run()
    cluster.sim.run()

    clients = cluster.clients
    sent = sum(client._seq for client in clients)
    first_responses = sum(
        client.responses_received - client.redundant_responses for client in clients
    )
    assert sent > 0 and all(client.outstanding == 0 for client in clients)
    assert calls["note_sent"] == sent
    assert calls["record"] == first_responses == sent
    recorder = cluster.recorder
    assert 0 < recorder.completed_in_window and 0 < len(recorder) <= recorder.sent_in_window


def test_class_level_service_wrappers_see_every_call(monkeypatch):
    calls = {"base_service_ns": 0, "apply": 0, "execute": 0, "response_size": 0}
    for cls, attr in (
        (KvService, "base_service_ns"), (JitterModel, "apply"),
        (KvService, "execute"), (KvService, "response_size"),
    ):

        def counted(*args, inner=cls.__dict__[attr], attr=attr):
            calls[attr] += 1
            return inner(*args)

        monkeypatch.setattr(cls, attr, counted)
    workload = KvSpec(cost_model="redis", scan_fraction=0.01, num_keys=10_000)
    cluster = Cluster(tiny_config(topology="star", workload=workload, rate_rps=0.1e6))
    cluster.start()
    cluster.run()
    cluster.sim.run()

    servers = cluster.servers
    executed = sum(server.counters.get("responses_sent") for server in servers)
    assert executed > 0
    assert sum(server.service.store.scans for server in servers) > 0
    assert calls["base_service_ns"] == calls["apply"] == executed == sum(
        server.counters.get("requests_accepted") for server in servers
    )
    assert calls["execute"] == calls["response_size"] == executed == sum(
        server.service.store.gets + server.service.store.scans for server in servers
    )
