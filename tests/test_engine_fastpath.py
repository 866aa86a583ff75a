"""The engine fast path: ordering and seed bit-identity.

The engine has one scheduling API, ``call_at``/``call_after``, over a
two-lane calendar queue (a sorted tail plus a heap) with one sequence
counter.  These tests pin the contract that makes that safe:

* ``call_at`` and ``call_after`` interleave in strict FIFO order at
  equal timestamps, and out-of-order entries still sort;
* none of it changes simulation results — tiny fig08-star and
  fig18-one-rack runs stay bit-identical to goldens captured at the
  pre-overhaul revision;
* the packet pool's uid stream and the link serialisation memo are
  deterministic and exact, and a steady acquire/release loop recycles
  one backing packet on either engine;
* the packet plane (the C ``PacketCore``/``PoolCore``/``HeaderCore``
  on the C core, the pure-Python twins otherwise) gives identical
  fields, uids, pool counts and header copies through acquire → copy
  → release → double release → re-acquire, and the same header codec;
* the pure-Python engine (``REPRO_PURE_SIM=1``) and the C core produce
  identical points and telemetry — on a plain spine-leaf point and on
  drills that drive every forwarding-hop fallback (recirculation,
  dynamic routes, down and lossy links, a powered-off switch, a
  missing route) — and raise the same error classes;
* the NetClone switch pass (Algorithm 1: the C ``NetClonePass`` on the
  C core, the reference closure on the pure-Python engine) takes every
  branch identically on both: verdicts, header fields, register cells,
  switch counters and the errors it raises;
* the server's request path (the C ``ServerCore`` on the C core, the
  pure-Python ``_ServerCore`` otherwise) queues, drops stale clones,
  ignores non-requests, piggybacks and clamps STATE, answers plain
  and redirected requests, calls a KV service back and rejects a
  shortening jitter identically on both: responses, counters, state
  samples, scheduler seq and RNG draws;
* the client's request path (the C ``ClientCore`` on the C core, the
  pure-Python ``_ClientCore`` otherwise) pre-draws, sends, flushes on
  a rate or table change, stops and books first, redundant and foreign
  responses identically on both: every sent packet and its send time,
  recorder samples, client and pool counts and every RNG's end state;
  and the C client's replay of ``random.Random`` draws matches the
  running interpreter's.
"""

import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import (
    RecordingSwitch,
    assert_points_identical,
    make_packet,
    run_pass,
    tiny_config,
)

import repro
from repro.core import (
    CLO_CLONED_COPY,
    CLO_CLONED_ORIGINAL,
    CLO_NOT_CLONED,
    MSG_REQ,
    MSG_RESP,
    NETCLONE_UDP_PORT,
    NetCloneHeader,
    NetCloneProgram,
    STATE_BUSY,
    VIRTUAL_SERVICE_IP,
)
from repro.core.header import FIELDS as HEADER_FIELDS
from repro.core.program import CLO_NEVER_CLONE, SCHED_JSQ
from repro.errors import NetworkError, StageAccessError
from repro.experiments.common import Cluster, run_point
from repro.net.host import Host
from repro.net.link import Link
from repro.net.packet import PacketPool
from repro.sim.core import USING_CCORE, Simulator
from repro.sim.units import ms
from repro.switchsim.switch import ProgrammableSwitch


# ----------------------------------------------------------------------
# FIFO tie-break across call_at and call_after
# ----------------------------------------------------------------------
def test_call_at_and_call_after_interleave_fifo():
    sim = Simulator()
    order = []
    # Alternate the two calls at one timestamp: scheduling order must win.
    for i in range(20):
        if i % 2:
            sim.call_after(100, order.append, i)
        else:
            sim.call_at(100, order.append, i)
    sim.run()
    assert order == list(range(20))


def test_call_after_matches_call_at_at_equal_time():
    sim = Simulator()
    order = []
    sim.call_at(7, order.append, "start")
    sim.run()
    # now == 7: a delay of 5 and an absolute 12 name the same instant.
    sim.call_after(5, order.append, "after-0")
    sim.call_at(12, order.append, "at-1")
    sim.call_after(5, order.append, "after-2")
    sim.run()
    assert order == ["start", "after-0", "at-1", "after-2"]


def test_fast_lane_out_of_order_times_still_sort():
    sim = Simulator()
    order = []
    # Push against the monotone tail so entries spill into the heap.
    for t in (30, 10, 20, 10, 30, 5):
        sim.call_at(t, order.append, t)
    sim.run()
    assert order == [5, 10, 10, 20, 30, 30]
    assert sim.now == 30


# ----------------------------------------------------------------------
# Seed bit-identity (goldens captured at the pre-overhaul revision)
# ----------------------------------------------------------------------
#: (offered, throughput, p50, p99, p999, mean, samples) per config.
GOLDENS = {
    "fig08_star": (
        196333.33333333334, 195333.33333333334, 31.942, 131.72, 654.085,
        40.074093378607806, 589,
    ),
    "fig18_1rack": (
        203666.66666666666, 206666.66666666666, 25.94, 112.831, 178.187,
        33.548687397708676, 611,
    ),
}

GOLDEN_EXTRA = {
    "fig08_star": {"nc_cloned": 528.0, "nc_filtered": 428.0, "clones_dropped": 100.0},
    "fig18_1rack": {"nc_cloned": 637.0, "nc_filtered": 533.0, "clones_dropped": 104.0},
}


def _golden_config(label):
    if label == "fig08_star":
        return tiny_config(seed=11)
    return tiny_config(
        topology="spine_leaf", topology_params={"racks": 1, "spines": 2}
    )


def test_fig08_star_bit_identical_to_seed():
    point = run_point(_golden_config("fig08_star"))
    got = (
        point.offered_rps, point.throughput_rps, point.p50_us, point.p99_us,
        point.p999_us, point.mean_us, point.samples,
    )
    assert got == GOLDENS["fig08_star"]
    for key, value in GOLDEN_EXTRA["fig08_star"].items():
        assert point.extra[key] == value, key


def test_fig18_one_rack_bit_identical_to_seed():
    point = run_point(_golden_config("fig18_1rack"))
    got = (
        point.offered_rps, point.throughput_rps, point.p50_us, point.p99_us,
        point.p999_us, point.mean_us, point.samples,
    )
    assert got == GOLDENS["fig18_1rack"]
    for key, value in GOLDEN_EXTRA["fig18_1rack"].items():
        assert point.extra[key] == value, key


#: fig18's own 2-rack, 4-spine ECMP grid at scale 0.05, seed 1:
#: (scheme, trunk Gb/s) → (throughput, p50, p99, trunk_util_max,
#: trunk_tx_bytes), at one saturated and one headroom trunk rate.
FIG18_2RACK_GOLDEN = {
    ("baseline", 0.5): (2245600.0, 162.86, 2007.223, 1.2832182857142858, 4235392.0),
    ("baseline", 1.0): (2526400.0, 32.903, 161.919, 0.6417554285714285, 4483328.0),
    ("netclone", 0.5): (2220000.0, 56.631, 2976.067, 1.4886034285714285, 5414600.0),
    ("netclone", 1.0): (2536800.0, 36.316, 158.507, 0.7593691428571429, 5863964.0),
}


def test_fig18_two_rack_spine_trunks_pinned():
    from repro.experiments import fig18_trunk_saturation

    results = fig18_trunk_saturation.collect(
        scale=0.05, seed=1, topology="spine_leaf:spine_policy=ecmp"
    )
    got = {
        (scheme, gbps): (
            point.throughput_rps, point.p50_us, point.p99_us,
            point.extra["trunk_util_max"], point.extra["trunk_tx_bytes"],
        )
        for (scheme, _policy), cells in results.items()
        for gbps, point in cells
    }
    assert got == FIG18_2RACK_GOLDEN


# ----------------------------------------------------------------------
# Packet-pool uid streams are a per-cluster deterministic sequence
# ----------------------------------------------------------------------
def test_identical_runs_produce_identical_uid_streams():
    def run_one():
        cluster = Cluster(tiny_config())
        cluster.start()
        cluster.run()
        pool = cluster.packet_pool
        return cluster.load_point(), (pool._next_uid, pool.allocated, pool.released)

    point_a, uids_a = run_one()
    point_b, uids_b = run_one()
    # Same seed, fresh pool: the uid counter lands on the same value
    # and the free list recycled the same number of lives.
    assert uids_a == uids_b
    assert uids_a[1] < uids_a[0] - 1  # recycling actually happened
    assert_points_identical(point_a, point_b)


def recycle_counts(n=10_000):
    pool = PacketPool()
    for _ in range(n):
        pool.acquire(1, 2, 3, 4, 128).release()
    return pool.allocated, pool.released


def test_pool_recycles_one_backing_packet_in_steady_state():
    # One backing object recycled for every life, on either engine.
    pure = run_on_pure_engine(
        "from test_engine_fastpath import recycle_counts\n"
        "result = recycle_counts()"
    )
    assert recycle_counts() == pure == (1, 10_000)


def _packet_state(packet, pool):
    """Every field of *packet*, with its pool, payload and header by
    value."""
    nc = packet.nc
    return (
        packet.uid,
        packet.src,
        packet.dst,
        packet.sport,
        packet.dport,
        packet.size,
        packet.payload,
        None if nc is None else [getattr(nc, f) for f in HEADER_FIELDS],
        packet.ingress_port,
        packet.recirculated,
        packet.created_at,
        packet.pool is pool,
        packet._freed,
    )


def _raises(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the class is the result
        return type(exc).__name__
    return None


def run_packet_drill():
    """acquire → copy → release → double release → re-acquire, plus
    the header codec: every observable, step by step."""
    pool = PacketPool()
    steps = []

    def record(step, *packets):
        counts = (pool.allocated, pool.released, pool.free_count, pool.uid_count)
        steps.append((step, [_packet_state(p, pool) for p in packets], counts))

    header = NetCloneHeader(MSG_REQ, req_id=5, grp=2, idx=1)
    first = pool.acquire(10, 20, 30, NETCLONE_UDP_PORT, 128, ("kv", 7), header, 99)
    first.ingress_port = 3
    first.recirculated = True
    record("acquire", first)
    copy = first.copy()
    record("copy", first, copy)
    steps.append(
        ("copy shares", copy.nc is first.nc, copy.payload is first.payload, copy is first)
    )
    copy.nc.clo = CLO_CLONED_ORIGINAL
    copy.nc.req_id = 9
    record("mutate the copy's header", first, copy)
    first.release()
    record("release", first, copy)
    first.release()
    record("double release", first, copy)
    again = pool.acquire(src=1, dst=2, sport=3, dport=4, size=64, created_at=5)
    steps.append(("recycled", again is first))
    record("re-acquire", again, copy)
    plain = pool.acquire(1, 2, 3, 4, 64)
    record("fresh object", plain)
    steps.append(
        (
            "errors",
            _raises(pool.acquire, 1, 2, 3, 4),
            _raises(pool.acquire, 1, 2, 3, 4, 5, bogus=1),
            _raises(NetCloneHeader),
            _raises(NetCloneHeader, 1, msg_type=1),
        )
    )

    by_keyword = NetCloneHeader(
        msg_type=MSG_RESP, req_id=0xDEADBEEF, grp=513, sid=7, state=1, clo=2,
        idx=1, swid=3,
    )
    by_position = NetCloneHeader(MSG_RESP, 0xDEADBEEF, 513, 7, 1, 2, 1, 3)
    wire = by_keyword.pack()
    decoded = NetCloneHeader.unpack(wire)
    steps.append(
        (
            "codec",
            wire,
            [getattr(decoded, f) for f in HEADER_FIELDS],
            type(decoded) is NetCloneHeader,
            by_keyword == by_position,
            decoded == by_position,
            by_keyword == by_keyword.copy(),
            by_keyword == NetCloneHeader(MSG_REQ),
            by_keyword.__eq__(42) is NotImplemented,
        )
    )
    return steps


def test_pure_python_engine_matches_live_engine_on_packet_drill():
    live = run_packet_drill()
    pure = run_on_pure_engine(
        "from test_engine_fastpath import run_packet_drill\n"
        "result = run_packet_drill()"
    )
    assert live == pure
    steps = dict((step[0], step[1:]) for step in live)
    # The contract itself, not only engine agreement.
    (first, copy), _ = steps["copy"]
    assert copy[0] == first[0] + 1 and copy[8:11] == (-1, False, 99)
    assert steps["copy shares"] == (False, True, False)
    (first, copy), _ = steps["mutate the copy's header"]
    assert first[7][5] == 0 and first[7][1] == 5 and copy[7][1] == 9
    assert steps["release"][1] == steps["double release"][1] == (2, 1, 1, 2)
    assert steps["double release"][0][0][-1] is True
    assert steps["recycled"] == (True,)
    assert steps["re-acquire"][1] == (2, 1, 0, 3)
    assert steps["fresh object"][1] == (3, 1, 0, 4)
    assert steps["errors"] == ("TypeError",) * 4
    assert steps["codec"][2:] == (True, True, True, True, False, True)


# ----------------------------------------------------------------------
# Link serialisation memo: cached == computed, invalidated on retune
# ----------------------------------------------------------------------
def test_serialization_memo_matches_direct_computation():
    sim = Simulator()
    # The fig18 grid's line rates (trunks) plus the edge default, over
    # the packet sizes the workloads actually emit.
    for gbps in (0.5, 0.7, 1.0, 2.0, 100.0):
        link = Link(sim, Host(sim, "a", 1), Host(sim, "b", 2), bandwidth_bps=gbps * 1e9)
        for size in (64, 128, 256, 1024, 1500):
            direct = int(round(size * 8 / (gbps * 1e9) * 1e9))
            assert link.serialization_ns(size) == direct
            # Second call is the cached path; must be byte-identical.
            assert link.serialization_ns(size) == direct
            assert link._ser_ns[size] == direct


def test_serialization_memo_invalidated_by_bandwidth_change():
    sim = Simulator()
    a, b = Host(sim, "a", 1), Host(sim, "b", 2)
    link = Link(sim, a, b, bandwidth_bps=1e9)
    for end in (a, b):  # warm the memo at the old rate, both ways
        link.send(make_packet(src=1, dst=2, sport=1, dport=1, size=1500), end)
    before = link.serialization_ns(1500)
    link.bandwidth_bps = 2e9
    assert not link._ser_ns  # memo dropped with the old line rate
    after = link.serialization_ns(1500)
    assert after == int(round(1500 * 8 / 2e9 * 1e9))
    assert after != before
    # Both directions share the memo, so both book at the new rate.
    sim.run()
    for end in (a, b):
        arrival = link.send(make_packet(src=1, dst=2, sport=1, dport=1, size=1500), end)
        assert arrival == sim.now + after + link.propagation_ns


# ----------------------------------------------------------------------
# Engine pinning: the pure-Python engine against the live one
# ----------------------------------------------------------------------
def run_on_pure_engine(body):
    """Run *body*, which binds ``result``, in a fresh interpreter under
    ``REPRO_PURE_SIM=1`` (this directory importable) and return
    ``result``."""
    script = (
        "import pickle, sys\n"
        "from repro.sim.core import PySimulator, Simulator, USING_CCORE\n"
        "assert Simulator is PySimulator and not USING_CCORE\n"
        f"{body}\n"
        "sys.stdout.buffer.write(pickle.dumps(result))\n"
    )
    paths = [str(Path(repro.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, REPRO_PURE_SIM="1", PYTHONPATH=os.pathsep.join(paths))
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=False
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return pickle.loads(completed.stdout)


def test_pure_python_engine_matches_live_engine_on_spine_leaf():
    """``REPRO_PURE_SIM=1`` runs :class:`PySimulator`; a spine-leaf
    NetClone point must come out identical to the in-process engine
    (the C core wherever it builds)."""
    config = dict(
        topology="spine_leaf",
        topology_params={"racks": 2, "spines": 2},
        placement="global",
    )
    pure = run_on_pure_engine(
        "from helpers import tiny_config\n"
        "from repro.experiments.common import run_point\n"
        f"result = run_point(tiny_config(**{config!r}))"
    )
    assert_points_identical(pure, run_point(tiny_config(**config)))


# ----------------------------------------------------------------------
# Forwarding-hop drills: every fallback, on both engines
# ----------------------------------------------------------------------
SPINE_LEAF = dict(
    topology="spine_leaf",
    topology_params={"racks": 2, "spines": 2},
    placement="global",
)


def _during_measurement(cluster, fraction, fn, *args):
    config = cluster.config
    when = config.warmup_ns + int(config.measure_ns * fraction)
    cluster.sim.call_at(when, fn, *args)


def _lossy_link(cluster):
    # Host sends take the evented _emit path; switch egress Link.send.
    cluster.topology.link_of(cluster.clients[0]).loss_probability = 0.05


def _down_link(cluster):
    server = cluster.servers[0]
    _during_measurement(cluster, 0.3, cluster.topology.fail_host, server)
    _during_measurement(cluster, 0.6, cluster.topology.restore_host, server)


def _switch_down(cluster):
    tor = cluster.tors[-1]
    _during_measurement(cluster, 0.3, tor.fail)
    _during_measurement(cluster, 0.5, tor.recover)


def _no_route(cluster):
    tor = cluster.switch
    ip = cluster.servers[0].ip
    port = tor.routes[ip]
    _during_measurement(cluster, 0.3, tor.remove_route, ip)
    _during_measurement(cluster, 0.6, tor.install_route, ip, port)


def _switch_total(counters, key):
    return sum(switch.get(key, 0) for switch in counters)


#: name → (tiny_config overrides, perturbation, check that the drill
#: reached the path it exists for).
HOP_DRILLS = {
    "star-netclone": (
        dict(topology="star"),
        None,
        lambda tel, counters: _switch_total(counters, "recirculated") > 0,
    ),
    "spine-least-loaded": (
        dict(
            SPINE_LEAF,
            topology_params={"racks": 2, "spines": 2, "spine_policy": "least-loaded"},
        ),
        None,
        lambda tel, counters: tel["trunk_tx_bytes"] > 0,
    ),
    "lossy-link": (
        dict(topology="star"),
        _lossy_link,
        lambda tel, counters: tel["link_drops"] > 0,
    ),
    "down-link": (
        dict(topology="star"),
        _down_link,
        lambda tel, counters: tel["link_drops"] > 0,
    ),
    "switch-down": (
        SPINE_LEAF,
        _switch_down,
        lambda tel, counters: _switch_total(counters, "rx_dropped_down") > 0,
    ),
    "no-route": (
        dict(topology="star"),
        _no_route,
        lambda tel, counters: _switch_total(counters, "no_route") > 0,
    ),
}


def run_hop_drill(name):
    """One drill's ``(LoadPoint, telemetry, switch counters)``; the
    queue is drained before the telemetry is read, so packets in flight
    at the end meet the same drops on either engine."""
    overrides, perturb, _ = HOP_DRILLS[name]
    cluster = Cluster(tiny_config(**overrides))
    if perturb is not None:
        perturb(cluster)
    cluster.start()
    cluster.run()
    point = cluster.load_point()
    cluster.sim.run()
    counters = [dict(switch.counters._counts) for switch in cluster.switches]
    return point, cluster.telemetry(), counters


def _nan_as_none(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, list):
        return [_nan_as_none(item) for item in value]
    if isinstance(value, dict):
        return {key: _nan_as_none(item) for key, item in value.items()}
    return value


@pytest.fixture(scope="module")
def pure_hop_drills():
    return run_on_pure_engine(
        "from test_engine_fastpath import HOP_DRILLS, run_hop_drill\n"
        "result = {name: run_hop_drill(name) for name in HOP_DRILLS}"
    )


@pytest.mark.parametrize("name", list(HOP_DRILLS))
def test_pure_python_engine_matches_live_engine_on_hop_drill(name, pure_hop_drills):
    point, telemetry, counters = run_hop_drill(name)
    pure_point, pure_telemetry, pure_counters = pure_hop_drills[name]
    assert HOP_DRILLS[name][2](telemetry, counters), f"{name} missed its path"
    assert_points_identical(pure_point, point)
    assert _nan_as_none(pure_telemetry) == _nan_as_none(telemetry)
    assert pure_counters == counters


def hop_wiring_errors():
    """``(class name, message)`` of the hop's two wiring errors: a host
    sending with no link, and a packet arriving on an unconnected port."""
    sim = Simulator()
    lonely = Host(sim, "lonely", 1)
    switch = ProgrammableSwitch(sim, "sw")
    stray = Link(sim, Host(sim, "h", 2), switch)  # never given a port
    calls = (
        lambda: lonely.send(make_packet(pool=lonely.packet_pool)),
        lambda: switch.link_ingress(make_packet(), stray.from_a),
    )
    raised = []
    for call in calls:
        with pytest.raises(NetworkError) as info:
            call()
        raised.append((type(info.value).__name__, str(info.value)))
    return raised


HOP_WIRING_ERRORS = [
    ("NetworkError", "lonely has no link attached"),
    ("PortError", "sw: packet arrived on unknown link link(h-sw)"),
]


def test_hop_wiring_errors_on_live_engine():
    assert hop_wiring_errors() == HOP_WIRING_ERRORS


def test_hop_wiring_errors_on_pure_engine():
    result = run_on_pure_engine(
        "from test_engine_fastpath import hop_wiring_errors\n"
        "result = hop_wiring_errors()"
    )
    assert result == HOP_WIRING_ERRORS


# ----------------------------------------------------------------------
# Algorithm 1 drills: every branch of the switch pass, on both engines
# ----------------------------------------------------------------------
def _request(grp=0, clo=CLO_NOT_CLONED, swid=0, req_id=0, msg_type=MSG_REQ,
             dport=NETCLONE_UDP_PORT):
    return make_packet(
        src=5000, dst=VIRTUAL_SERVICE_IP, sport=NETCLONE_UDP_PORT,
        dport=dport, size=128,
        nc=NetCloneHeader(msg_type, req_id=req_id, grp=grp, clo=clo, swid=swid),
    )


def _response(req_id, sid, clo=CLO_CLONED_ORIGINAL, state=0, idx=0):
    return make_packet(
        src=1001 + sid, dst=5000, sport=NETCLONE_UDP_PORT,
        dport=NETCLONE_UDP_PORT, size=128,
        nc=NetCloneHeader(MSG_RESP, req_id=req_id, sid=sid, state=state,
                          clo=clo, idx=idx),
    )


def _fresh(packet):
    """A pass over a new packet: ``make(program, copies) -> packet``."""
    return lambda program, copies: packet()


def _last_copy(program, copies):
    return copies[-1]


def _last_copy_without_address(program, copies):
    program.addr_table.remove(copies[-1].nc.sid)
    return copies[-1]


def _poke(**cells):
    """Setup poking ``register=(index, value)`` control-plane writes."""
    def setup(program):
        for register, (index, value) in cells.items():
            getattr(program, register).poke(index, value)
    return setup


def _install_pair(pair):
    return lambda program: program.grp_table.install(0, pair)


def _remove_address(server):
    return lambda program: program.addr_table.remove(server)


def _headers(trace, field):
    """*field* of each pass's packet header, in pass order."""
    return [entry[1][2][field] for entry in trace]


def _counted(key, value=1):
    return lambda trace, counters: counters.get(key) == value


def _raised(trace, counters):
    return trace[-1][0] == "raised"


#: name → (program kwargs, setup(program) or None, passes as
#: (make(program, copies) -> packet, recirculated), check that the
#: drill took the branch it exists for).
ALGORITHM1_DRILLS = {
    "foreign-swid": (
        dict(switch_id=2), None, [(_fresh(lambda: _request(swid=1)), False)],
        lambda trace, counters: counters == {} and not trace[0][0],
    ),
    "own-swid": (
        dict(switch_id=2), None, [(_fresh(lambda: _request(swid=2)), False)],
        _counted("nc_cloned"),
    ),
    "non-netclone-port": (
        {}, None, [(_fresh(lambda: _request(dport=80)), False)],
        lambda trace, counters: counters == {},
    ),
    "no-header": (
        {}, None,
        [(_fresh(lambda: make_packet(sport=NETCLONE_UDP_PORT,
                                     dport=NETCLONE_UDP_PORT)), False)],
        lambda trace, counters: counters == {},
    ),
    "unknown-message-type": (
        {}, None, [(_fresh(lambda: _request(msg_type=7)), False)],
        lambda trace, counters: counters == {},
    ),
    "seq-wrap": (
        {}, _poke(seq=(0, (1 << 32) - 2)),
        [(_fresh(_request), False)] * 3,
        lambda trace, counters: _headers(trace, "req_id") == [(1 << 32) - 1, 1, 2],
    ),
    "client-assigned-id": (
        {}, None,
        [(_fresh(lambda: _request(req_id=7)), False), (_fresh(_request), False)],
        lambda trace, counters: _headers(trace, "req_id") == [7, 1],
    ),
    "clone-and-recirculate": (
        {}, None, [(_fresh(_request), False), (_last_copy, True)],
        lambda trace, counters: _headers(trace, "clo") == [1, 2],
    ),
    "unknown-group": (
        {}, None, [(_fresh(lambda: _request(grp=9999)), False)],
        _counted("nc_unknown_group"),
    ),
    "unknown-server-fresh": (
        {}, _remove_address(0), [(_fresh(_request), False)],
        _counted("nc_unknown_server"),
    ),
    "unknown-server-recirculated": (
        {}, None,
        [(_fresh(_request), False), (_last_copy_without_address, True)],
        _counted("nc_unknown_server"),
    ),
    "never-clone": (
        {}, None, [(_fresh(lambda: _request(clo=CLO_NEVER_CLONE)), False)],
        lambda trace, counters: "nc_cloned" not in counters,
    ),
    "cloning-disabled": (
        dict(cloning_enabled=False), None, [(_fresh(_request), False)],
        lambda trace, counters: "nc_cloned" not in counters,
    ),
    "jsq-second-choice": (
        dict(scheduler=SCHED_JSQ),
        _poke(state_table=(0, 5), shadow_table=(1, 2)),
        [(_fresh(_request), False)],
        _counted("nc_jsq_second_choice"),
    ),
    "jsq-tie": (
        dict(scheduler=SCHED_JSQ),
        _poke(state_table=(0, 3), shadow_table=(1, 3)),
        [(_fresh(_request), False)],
        lambda trace, counters: counters == {},
    ),
    "filter-hit": (
        {}, None,
        [(_fresh(lambda: _response(7, sid=0, state=STATE_BUSY)), False),
         (_fresh(lambda: _response(7, sid=1)), False)],
        _counted("nc_filtered"),
    ),
    "filter-index-wraps": (
        {}, None,
        [(_fresh(lambda: _response(9, sid=0, idx=3)), False),
         (_fresh(lambda: _response(9, sid=1, idx=1)), False)],
        _counted("nc_filtered"),
    ),
    "fingerprint-overwrite": (
        dict(num_filter_tables=1, filter_slots=1), None,
        [(_fresh(lambda: _response(10, sid=0)), False),
         (_fresh(lambda: _response(20, sid=1)), False),
         (_fresh(lambda: _response(10, sid=2)), False)],
        _counted("nc_fingerprint_overwrite", 2),
    ),
    "filtering-disabled": (
        dict(filtering_enabled=False), None,
        [(_fresh(lambda: _response(7, sid=0)), False),
         (_fresh(lambda: _response(7, sid=1)), False)],
        lambda trace, counters: counters == {},
    ),
    "non-cloned-response": (
        {}, None,
        [(_fresh(lambda: _response(3, sid=0, clo=CLO_NOT_CLONED)), False),
         (_fresh(lambda: _response(3, sid=1, clo=CLO_NOT_CLONED)), False)],
        lambda trace, counters: counters == {},
    ),
    "srv1-out-of-range": (
        dict(max_servers=4), _install_pair((4, 0)),
        [(_fresh(_request), False)], _raised,
    ),
    "srv2-out-of-range": (
        dict(max_servers=4), _install_pair((0, 4)),
        [(_fresh(_request), False)], _raised,
    ),
    "sid-out-of-range": (
        dict(max_servers=4), None,
        [(_fresh(lambda: _response(1, sid=5)), False)], _raised,
    ),
}


def _packet_fields(packet):
    nc = packet.nc
    header = None if nc is None else {f: getattr(nc, f) for f in HEADER_FIELDS}
    return (packet.dst, packet.recirculated, header)


def run_algorithm1_drill(name):
    """One drill's ``(trace, register cells, switch counters)``: per
    pass, the verdict and the packet's and its copies' fields, or the
    class and message of the error it raised."""
    kwargs, setup, passes, _ = ALGORITHM1_DRILLS[name]
    program = NetCloneProgram(
        server_ips=[1001, 1002, 1003], **{"filter_slots": 64, **kwargs}
    )
    if setup is not None:
        setup(program)
    switch = RecordingSwitch()
    trace = []
    for make, recirculated in passes:
        packet = make(program, switch.copies)
        try:
            dropped, copies = run_pass(program, switch, packet, recirculated)
        except StageAccessError as exc:
            trace.append(("raised", type(exc).__name__, str(exc)))
            continue
        trace.append(
            (dropped, _packet_fields(packet), [_packet_fields(c) for c in copies])
        )
    return (
        trace, list(program._register_file.data), dict(switch.counters._counts)
    )


@pytest.fixture(scope="module")
def pure_algorithm1_drills():
    return run_on_pure_engine(
        "from test_engine_fastpath import ALGORITHM1_DRILLS, run_algorithm1_drill\n"
        "result = {name: run_algorithm1_drill(name) for name in ALGORITHM1_DRILLS}"
    )


@pytest.mark.parametrize("name", list(ALGORITHM1_DRILLS))
def test_pure_python_engine_matches_live_engine_on_algorithm1_drill(
    name, pure_algorithm1_drills
):
    trace, cells, counters = run_algorithm1_drill(name)
    assert ALGORITHM1_DRILLS[name][3](trace, counters), f"{name} missed its branch"
    assert pure_algorithm1_drills[name] == (trace, cells, counters)


@pytest.mark.skipif(not USING_CCORE, reason="the C core did not build")
def test_live_engine_compiles_the_c_pass():
    program = NetCloneProgram(server_ips=[1001, 1002])
    assert type(program.apply).__module__ == "repro.sim._ccore"
    assert ProgrammableSwitch.__mro__[1].__module__ == "repro.sim._ccore"


# ----------------------------------------------------------------------
# Server drill: every branch of the request path, on both engines
# ----------------------------------------------------------------------
class _ServerSink(Host):
    """The client side of a server drill: keeps every response."""

    def __init__(self, sim):
        super().__init__(sim, "sink", 42, tx_cost_ns=0, rx_cost_ns=0)
        self.received = []

    def handle(self, packet):
        nc = packet.nc
        self.received.append(
            (
                self.sim.now, packet.uid, packet.src, packet.dst, packet.sport,
                packet.dport, packet.size, packet.payload.client_seq,
                packet.created_at,
                None if nc is None else [getattr(nc, f) for f in HEADER_FIELDS],
            )
        )


class _ShorteningJitter:
    """A jitter model that breaks the never-shorten invariant."""

    def apply(self, base_ns, rng):
        return base_ns - 1 if rng.random() < 0.5 else base_ns


def _server_drill_request(pool, seq, clo=CLO_NOT_CLONED, msg_type=MSG_REQ,
                          service_ns=1_000, payload=None, plain=False):
    from repro.workloads import RpcRequest

    if payload is None:
        payload = RpcRequest(client_id=0, client_seq=seq, service_ns=service_ns)
    nc = None if plain else NetCloneHeader(msg_type, req_id=seq, clo=clo)
    return pool.acquire(42, 99, 7_000 + seq, NETCLONE_UDP_PORT, 128, payload, nc, seq)


def _kv_service():
    from repro.apps.service import KvService
    from repro.kvstore import KeyValueStore, RedisCostModel

    return KvService(KeyValueStore(num_keys=1_000), RedisCostModel())


def _kv_payloads():
    from repro.workloads import KvOp, KvRequest

    ops = (KvOp.GET, KvOp.SCAN, KvOp.SET, KvOp.GET, KvOp.SCAN)
    return [
        KvRequest(client_id=0, client_seq=seq, op=op, key=seq * 7, count=20 * seq)
        for seq, op in enumerate(ops, start=1)
    ]


#: name → (RpcServer overrides, whether to flip ``drop_stale_clones``
#: off after construction, the requests as ``_server_drill_request``
#: keyword sets).
SERVER_DRILLS = {
    # Queueing past num_workers, stale clones dropped while the queue is
    # non-empty, a cloned original never dropped, a response ignored.
    "netclone": (
        dict(num_workers=2),
        False,
        [dict(seq=1, service_ns=5_000), dict(seq=2, service_ns=3_000),
         dict(seq=3, clo=CLO_CLONED_COPY),  # queue empty: accepted
         dict(seq=4, service_ns=2_000),
         dict(seq=5, clo=CLO_CLONED_COPY),  # queue non-empty: dropped
         dict(seq=6, clo=CLO_CLONED_ORIGINAL),  # never dropped
         dict(seq=7, msg_type=MSG_RESP),  # not a request: ignored
         dict(seq=8, service_ns=500)],
    ),
    "clone-drop-off": (
        dict(num_workers=1),
        True,
        [dict(seq=1, service_ns=4_000), dict(seq=2),
         dict(seq=3, clo=CLO_CLONED_COPY), dict(seq=4, clo=CLO_CLONED_COPY)],
    ),
    # Baseline mode: STATE 0, plain requests answered on their sport.
    "plain": (
        dict(num_workers=1, netclone_mode=False),
        False,
        [dict(seq=1, service_ns=2_000), dict(seq=2, plain=True),
         dict(seq=3, clo=CLO_CLONED_COPY), dict(seq=4, plain=True)],
    ),
    "reply-to": (
        dict(num_workers=1, reply_to_ip=77),
        False,
        [dict(seq=1), dict(seq=2, plain=True), dict(seq=3)],
    ),
    # More queued requests than the one-byte STATE field can count.
    "deep-queue": (
        dict(num_workers=1),
        False,
        [dict(seq=seq, service_ns=100) for seq in range(1, 301)],
    ),
    "kv": (
        dict(num_workers=2, service="kv"),
        False,
        [dict(seq=p.client_seq, payload=p) for p in _kv_payloads()],
    ),
    "kv-shortening-jitter": (
        dict(num_workers=2, service="kv", jitter="shortening"),
        False,
        [dict(seq=p.client_seq, payload=p) for p in _kv_payloads()],
    ),
}


def run_server_drill(name):
    """One drill's responses (arrival time and every field), the error
    it raised, the server's counters (in insertion order), its state
    samples and worker state, the simulator's seq and the RNG's next
    draw (so a missing or extra draw shows)."""
    import random

    from repro.apps.service import SyntheticService
    from repro.core import RpcServer
    from repro.errors import ExperimentError
    from repro.workloads import JitterModel

    overrides, flip, requests = SERVER_DRILLS[name]
    overrides = dict(overrides)
    service = overrides.pop("service", None)
    jitter = overrides.pop("jitter", None)
    sim = Simulator()
    sink = _ServerSink(sim)
    server = RpcServer(
        sim, name="srv", ip=99, server_id=3,
        service=_kv_service() if service == "kv" else SyntheticService(),
        jitter=_ShorteningJitter() if jitter else JitterModel(0.3, 15.0),
        rng=random.Random(11), tx_cost_ns=0, rx_cost_ns=0, **overrides,
    )
    link = Link(sim, server, sink, propagation_ns=0, bandwidth_bps=1e15)
    server.attach_link(link)
    sink.attach_link(link)
    if flip:
        server.drop_stale_clones = False
    raised = None
    try:
        for request in requests:
            server.handle(_server_drill_request(sink.packet_pool, **request))
        sim.run()
    except ExperimentError as exc:
        raised = (type(exc).__name__, str(exc))
    return (
        sink.received, raised, list(server.counters._counts.items()),
        (server.state_samples_zero, server.state_samples_total),
        (server.busy_workers, len(server.queue)), sim._seq, server.rng.random(),
    )


def test_pure_python_engine_matches_live_engine_on_server_drill():
    from repro.apps.service import SyntheticService

    live = {name: run_server_drill(name) for name in SERVER_DRILLS}
    pure = run_on_pure_engine(
        "from test_engine_fastpath import SERVER_DRILLS, run_server_drill\n"
        "result = {name: run_server_drill(name) for name in SERVER_DRILLS}"
    )
    assert pure == live
    # The contract itself, not only engine agreement.
    state = HEADER_FIELDS.index("state")
    received, raised, counts, samples, workers, _, _ = live["netclone"]
    assert dict(counts) == {
        "requests_accepted": 6, "clones_dropped": 1, "non_request_ignored": 1,
        "responses_sent": 6,
    }
    assert sorted(r[7] for r in received) == [1, 2, 3, 4, 6, 8]
    assert raised is None and workers == (0, 0) and samples[1] == 6
    assert any(r[9][state] > 0 for r in received)
    received, _, counts, _, _, _, _ = live["clone-drop-off"]
    assert dict(counts)["requests_accepted"] == 4 and "clones_dropped" not in dict(counts)
    received, _, _, _, _, _, _ = live["plain"]
    assert [r[9] is None for r in received] == [False, True, False, True]
    assert all(r[9][state] == 0 for r in received if r[9] is not None)
    assert [r[5] for r in received if r[9] is None] == [7_002, 7_004]
    assert {r[3] for r in live["reply-to"][0]} == {77}
    assert max(r[9][state] for r in live["deep-queue"][0]) == 255
    received, raised, counts, _, _, _, _ = live["kv"]
    assert raised is None and len(received) == 5
    assert {r[6] for r in received} != {SyntheticService.RESPONSE_SIZE}
    assert live["kv-shortening-jitter"][1] == (
        "ExperimentError", "jitter must never shorten execution"
    )


# ----------------------------------------------------------------------
# Client drill: the open-loop client's request path, on both engines
# ----------------------------------------------------------------------
class _ClientPeer(Host):
    """The far end of a client drill: keeps every request and answers
    it after a seq-dependent delay (so responses overtake each other),
    twice for every fifth request, and adds a foreign and an empty
    response for every seventh."""

    def __init__(self, sim):
        super().__init__(sim, "peer", 42, tx_cost_ns=0, rx_cost_ns=0)
        self.received = []

    def handle(self, packet):
        from repro.workloads import RpcRequest

        nc = packet.nc
        payload = packet.payload
        seq = payload.client_seq
        self.received.append(
            (
                self.sim.now, packet.uid, packet.src, packet.dst, packet.sport,
                packet.dport, packet.size, seq, getattr(payload, "write", None),
                packet.created_at,
                None if nc is None else [getattr(nc, f) for f in HEADER_FIELDS],
            )
        )
        replies = [payload] * (2 if seq % 5 == 0 else 1)
        if seq % 7 == 0:
            replies += [RpcRequest(client_id=99, client_seq=seq, service_ns=0), None]
        for reply in replies:
            response = self.packet_pool.acquire(
                self.ip, packet.src, packet.dport, packet.sport, 64, reply, None,
                packet.created_at,
            )
            self.sim.call_after(3_000 + 700 * (seq % 4), self.send, response)
        packet.release()


class _BarePayload:
    """A request payload with no ``write`` attribute."""

    __slots__ = ("client_id", "client_seq")

    def __init__(self, client_id, client_seq):
        self.client_id = client_id
        self.client_seq = client_seq


class _WriteMix:
    """A KV workload with writes, drawn one ``make_request`` at a time
    (no chunk method): every third request a SET, every tenth payload
    without a ``write`` flag, GETs otherwise."""

    def __init__(self, rng):
        self.rng = rng

    def make_request(self, client_id, client_seq):
        from repro.workloads import KvOp, KvRequest

        key = self.rng.randrange(1_000)
        if client_seq % 10 == 0:
            return _BarePayload(client_id, client_seq)
        op = KvOp.SET if client_seq % 3 == 0 else KvOp.GET
        return KvRequest(client_id, client_seq, op, key)

    def request_size(self, request):
        return 80 + request.client_seq % 3


def _drill_tables():
    from repro.core.groups import ordered_pairs
    from repro.core.placement import GroupTable

    pairs = tuple(ordered_pairs(range(4)))  # 12 ordered pairs
    return {
        "uniform": GroupTable(pairs=pairs, split=len(pairs)),
        "sectioned": GroupTable(pairs=pairs, split=4, p_local=0.7),
        "swapped": GroupTable(pairs=pairs[::-1], split=5, p_local=0.4, epoch=1),
    }


#: name → (client kind, options).  Every drill stops its client at
#: ``stop_at_ns``; the peer's redundant, foreign and empty responses
#: reach every one.
CLIENT_DRILLS = {
    "netclone-uniform": ("netclone", dict(table="uniform")),
    "netclone-sectioned": ("netclone", dict(table="sectioned")),
    "baseline": ("baseline", {}),
    "kv-write": ("netclone", dict(table="sectioned", workload="write")),
    "set-rate": ("netclone", dict(table="uniform", set_rate=True)),
    "install-table": ("netclone", dict(table="sectioned", swap_table=True)),
    "baseline-set-rate": ("baseline", dict(set_rate=True)),
    "mmpp": ("netclone", dict(table="sectioned", mmpp=True, set_rate=True)),
}


def run_client_drill(name):
    """One drill's requests as the peer saw them (arrival time, send
    time and every field), the recorder's samples and counts, the
    client's counters and outstanding map, the pool's counts, the
    simulator's seq and the end state of every RNG (so a missing,
    extra or reordered draw shows)."""
    import random

    from repro.baselines.random_lb import BaselineClient
    from repro.core.client import NetCloneClient
    from repro.metrics.latency import LatencyRecorder
    from repro.workloads import ExponentialDistribution, MmppArrivals, SyntheticWorkload

    kind, options = CLIENT_DRILLS[name]
    tables = _drill_tables()
    sim = Simulator()
    peer = _ClientPeer(sim)
    recorder = LatencyRecorder(warmup_ns=200_000, end_ns=1_200_000)
    rng, workload_rng, arrival_rng = random.Random(5), random.Random(6), random.Random(8)
    if options.get("workload") == "write":
        workload = _WriteMix(workload_rng)
    else:
        workload = SyntheticWorkload(ExponentialDistribution(2.0), workload_rng)
    common = dict(
        sim=sim, name="client", ip=7, client_id=3, workload=workload,
        rate_rps=300_000, recorder=recorder, rng=rng, stop_at_ns=1_500_000,
        tx_cost_ns=100, rx_cost_ns=50,
    )
    if options.get("mmpp"):
        common["arrival_process"] = MmppArrivals(arrival_rng, 300_000)
    if kind == "baseline":
        client = BaselineClient(server_ips=[42, 43, 44, 45, 46], **common)
    else:
        client = NetCloneClient(
            group_table=tables[options["table"]], num_filter_tables=3, **common
        )
    link = Link(sim, client, peer, propagation_ns=250, bandwidth_bps=1e15)
    client.attach_link(link)
    peer.attach_link(link)
    if options.get("set_rate"):
        sim.call_at(500_000, client.set_rate, 150_000)
    if options.get("swap_table"):
        sim.call_at(700_000, client.install_group_table, tables["swapped"])
    client.start()
    sim.run()
    end = (client._seq, client._predrawn_seq, client._arrival_idx)
    client.flush_predrawn()
    pool = client.packet_pool
    return (
        peer.received, list(recorder.latencies_ns),
        (recorder.sent_in_window, recorder.completed_in_window),
        end, (client._seq, client._predrawn_seq, client._arrival_idx),
        (client.responses_received, client.redundant_responses),
        sorted(client._outstanding.items()), client.outstanding,
        (pool.allocated, pool.released, pool.uid_count), sim._seq, sim.now,
        rng.getstate(), workload_rng.getstate(), arrival_rng.getstate(),
    )


def test_pure_python_engine_matches_live_engine_on_client_drill():
    live = {name: run_client_drill(name) for name in CLIENT_DRILLS}
    pure = run_on_pure_engine(
        "from test_engine_fastpath import CLIENT_DRILLS, run_client_drill\n"
        "result = {name: run_client_drill(name) for name in CLIENT_DRILLS}"
    )
    assert pure == live
    # The contract itself, not only engine agreement.
    header = {field: HEADER_FIELDS.index(field) for field in ("grp", "clo", "idx")}
    for name, (kind, options) in CLIENT_DRILLS.items():
        received, latencies, window, end, flushed, responses, outstanding = live[name][:7]
        seqs = [r[7] for r in received]
        # Sent seqs are contiguous and every send stops at stop_at_ns.
        assert seqs == list(range(1, end[0] + 1)), name
        assert max(r[9] for r in received) < 1_500_000 <= live[name][10], name
        assert len(latencies) == window[0] > 0, name
        # Every request answered once plus every fifth twice; the
        # foreign and empty responses are dropped uncounted.
        assert responses == (end[0] + end[0] // 5, end[0] // 5), name
        assert outstanding == [] and flushed[1] == flushed[0] == end[0], name
        assert end[1] >= end[0], name
        if kind == "baseline":
            assert {r[3] for r in received} == {42, 43, 44, 45, 46}, name
            assert all(r[10] is None for r in received), name
            continue
        assert {r[3] for r in received} == {VIRTUAL_SERVICE_IP}, name
        assert {r[10][header["idx"]] for r in received} == {0, 1, 2}, name
        clos = {}  # write flag -> CLO values seen
        for r in received:
            clos.setdefault(r[8], set()).add(r[10][header["clo"]])
        if options.get("workload") == "write":
            assert clos[True] == {CLO_NEVER_CLONE} and clos[False] == {CLO_NOT_CLONED}, name
            assert clos[None] == {CLO_NOT_CLONED}, name
        else:
            assert set(clos) == {False} and clos[False] == {CLO_NOT_CLONED}, name
        groups = [r[10][header["grp"]] for r in received]
        assert set(groups) == set(range(12)), name
    # A sectioned table favours its preferred section.
    grps = [r[10][header["grp"]] for r in live["netclone-sectioned"][0]]
    assert sum(g < 4 for g in grps) > 0.6 * len(grps)
    # A mid-run flush re-draws the flushed seqs: more pre-drawn than
    # without one, sent seqs still contiguous (checked above).
    assert live["set-rate"][3][1] != live["netclone-uniform"][3][1]


class _SizeOnly:
    """A workload that only sizes requests (draw tests build directly)."""

    def request_size(self, request):
        return 64


class _HalvesRandom(random.Random):
    """A Random subclass whose ``random()`` is always 0.5."""

    def random(self):
        return 0.5


def _draw_client(cls, rng, rate_rps=1e6, **kwargs):
    from repro.metrics.latency import LatencyRecorder

    return cls(
        sim=Simulator(), name="draws", ip=1, client_id=0, workload=_SizeOnly(),
        rate_rps=rate_rps, recorder=LatencyRecorder(), rng=rng, **kwargs
    )


@pytest.mark.skipif(not USING_CCORE, reason="pins the C core's RNG replay")
def test_c_client_draws_replay_the_interpreters_random():
    """The C client replays ``randrange``, ``choice``, a sectioned
    table's section draw and ``expovariate`` from ``random.Random``'s two
    primitives.  That couples it to CPython's ``Random`` internals, so
    an interpreter whose ``Random`` draws differently fails here rather
    than silently moving every golden."""
    from repro.baselines.random_lb import BaselineClient
    from repro.core.client import NetCloneClient
    from repro.core.groups import ordered_pairs
    from repro.core.placement import GroupTable
    from repro.workloads import RpcRequest

    request = RpcRequest(client_id=0, client_seq=1, service_ns=1)
    pairs = tuple(ordered_pairs(range(3)))  # 6 groups
    uniform = GroupTable(pairs=pairs, split=len(pairs))
    sectioned = GroupTable(pairs=pairs, split=2, p_local=0.6)
    # n = 1, 3 and 2**16 + 1 reject up to half of the getrandbits draws.
    for n in (1, 2, 3, 6, 2**16, 2**16 + 1):
        for table in (uniform, sectioned):
            rng, ref = random.Random(n), random.Random(n)
            client = _draw_client(NetCloneClient, rng, group_table=table,
                                  num_filter_tables=n)
            for _ in range(300):
                (packet,) = client.build_packets(request)
                assert (packet.nc.grp, packet.nc.idx) == (
                    table.sample(ref), ref.randrange(n)
                ), (n, table.split)
                packet.release()
            assert rng.getstate() == ref.getstate()
        servers = list(range(100, 100 + n))
        rng, ref = random.Random(-n), random.Random(-n)
        client = _draw_client(BaselineClient, rng, server_ips=servers)
        for _ in range(300):
            (packet,) = client.build_packets(request)
            assert packet.dst == ref.choice(servers), n
            packet.release()
        assert rng.getstate() == ref.getstate()
    for rate in (1e6, 37_000.0):
        rng, ref = random.Random(int(rate)), random.Random(int(rate))
        client = _draw_client(NetCloneClient, rng, rate_rps=rate,
                              group_table=uniform)
        mean = 1e9 / rate
        gaps = [client._next_gap() for _ in range(10_000)]
        assert gaps == [int(ref.expovariate(1.0) * mean) + 1 for _ in range(10_000)]
        assert rng.getstate() == ref.getstate()

    # Any other Random class gets the Python calls: its own random()
    # shapes expovariate, and randrange/choice go through
    # _randbelow_without_getrandbits, which never touches the
    # Mersenne Twister state that a getrandbits replay would advance.
    rng, ref = _HalvesRandom(1), _HalvesRandom(1)
    client = _draw_client(NetCloneClient, rng, group_table=sectioned,
                          num_filter_tables=6)
    (packet,) = client.build_packets(request)
    assert (packet.nc.grp, packet.nc.idx) == (sectioned.sample(ref), ref.randrange(6))
    assert client._next_gap() == int(-math.log(0.5) * 1e3) + 1
    client = _draw_client(BaselineClient, rng, server_ips=servers)
    assert client.build_packets(request)[0].dst == ref.choice(servers)
    assert rng.getstate() == _HalvesRandom(1).getstate()


# ----------------------------------------------------------------------
# Workload chunk draws and the latency recorder on both engines
# ----------------------------------------------------------------------
def _historical_bimodal(distribution, rng):
    """The per-draw bimodal body the chunked draw replaced."""
    pick = rng.random()
    cumulative = 0.0
    mean_ns = distribution.modes[-1][1]
    for weight, mode_mean in distribution.modes:
        cumulative += weight
        if pick < cumulative:
            mean_ns = mode_mean
            break
    return int(rng.expovariate(1.0 / mean_ns)) + 1


#: Chunk sizes a draw drill splits its draws into (a chunk of one and
#: an empty chunk included).
DRAW_CHUNKS = (64, 1, 0, 13, 200, 7)
RPC_FIELDS = ("client_id", "client_seq", "service_ns", "write")
KV_FIELDS = ("client_id", "client_seq", "op", "key", "count", "write")


def run_workload_draws():
    """Every chunked workload draw three ways on equal RNGs: in chunks
    of ``DRAW_CHUNKS``, one ``sample``/``make_request`` at a time, and
    as the historical per-request body computes it with the running
    interpreter's ``random.Random`` calls (``expovariate``, ``random``,
    ``bisect_left`` over the CDF as a list, the SCAN counter); each
    with its RNG's end state.  Run for a stock ``Random`` and for a
    subclass whose ``random()`` is always 0.5.  Payloads come back as
    their type name and slot values."""
    from bisect import bisect_left

    from repro.workloads import (
        BimodalDistribution,
        ExponentialDistribution,
        KvOp,
        KvWorkload,
        SyntheticWorkload,
        ZipfGenerator,
    )

    exponential = ExponentialDistribution(25.0)
    bimodal = BimodalDistribution([(0.7, 25.0), (0.2, 100.0), (0.1, 250.0)])
    zipf = ZipfGenerator(1_000, 0.99)
    cdf = zipf._cdf.tolist()
    total = sum(DRAW_CHUNKS)
    seqs = range(1, total + 1)

    def kv_workload(rng):
        # SCAN period 11: the chunks above cross several periods.
        return KvWorkload(rng, num_keys=1_000, scan_fraction=0.1, zipf=zipf)

    def historical_kv(rng):
        out = []
        for seq in seqs:
            key = bisect_left(cdf, rng.random())
            scan = seq % 11 == 0
            op = KvOp.SCAN if scan else KvOp.GET
            out.append(("KvRequest", 3, seq, op, key, 100 if scan else 1, False))
        return out

    def as_fields(payload, names):
        return (type(payload).__name__,) + tuple(getattr(payload, n) for n in names)

    draws = {
        "exponential": (exponential, lambda rng: [
            int(rng.expovariate(1.0 / 25_000.0)) + 1 for _ in seqs
        ]),
        "bimodal": (bimodal, lambda rng: [
            _historical_bimodal(bimodal, rng) for _ in seqs
        ]),
        "zipf": (zipf, lambda rng: [bisect_left(cdf, rng.random()) for _ in seqs]),
    }
    workloads = {
        "synthetic": (
            lambda rng: SyntheticWorkload(bimodal, rng), RPC_FIELDS,
            lambda rng: [
                ("RpcRequest", 3, seq, _historical_bimodal(bimodal, rng), False)
                for seq in seqs
            ],
        ),
        "kv": (kv_workload, KV_FIELDS, historical_kv),
    }
    result = {}
    for cls in (random.Random, _HalvesRandom):
        for name, (source, historical) in draws.items():
            rngs = [cls(11), cls(11), cls(11)]
            chunked = []
            for n in DRAW_CHUNKS:
                chunked += source.sample_chunk(rngs[0], n)
            singles = [source.sample(rngs[1]) for _ in seqs]
            result[name, cls.__name__] = (
                chunked, singles, historical(rngs[2]),
                [rng.getstate() for rng in rngs],
            )
        for name, (make, names, historical) in workloads.items():
            rngs = [cls(11), cls(11), cls(11)]
            chunked, seq, workload = [], 1, make(rngs[0])
            for n in DRAW_CHUNKS:
                chunked += [
                    as_fields(p, names) for p in workload.make_request_chunk(3, seq, n)
                ]
                seq += n
            workload = make(rngs[1])
            singles = [as_fields(workload.make_request(3, seq), names) for seq in seqs]
            result[name, cls.__name__] = (
                chunked, singles, historical(rngs[2]),
                [rng.getstate() for rng in rngs],
            )
    return result


def _check_workload_draws(result):
    for case, (chunked, singles, historical, states) in result.items():
        assert chunked == singles == historical, case
        assert states[0] == states[1] == states[2], case
    # A Random subclass gets its own Python calls: every draw sees its
    # random() of 0.5, and the Mersenne Twister state never moves.
    halves = {name: value for (name, cls), value in result.items() if cls == "_HalvesRandom"}
    assert set(halves["exponential"][0]) == {int(-math.log(0.5) * 25_000.0) + 1}
    assert len(set(halves["zipf"][0])) == 1
    for chunked, _, _, states in halves.values():
        assert states[0] == _HalvesRandom(11).getstate()
    stock = result["kv", "Random"][0]
    assert {payload[3].value for payload in stock} == {"get", "scan"}


def test_workload_chunk_draws_replay_the_interpreters_random():
    """The chunked service-time and Zipf draws and the payloads built
    without ``__init__`` equal one draw at a time and the historical
    per-request bodies on the running interpreter's ``random.Random``,
    on the live engine and under ``REPRO_PURE_SIM=1``."""
    from repro.workloads import chunks

    if USING_CCORE:
        # The C replay is what the live engine ran.
        assert chunks.expovariate_chunk.__module__ == "repro.sim._ccore"
        assert chunks.payloads.__module__ == "repro.sim._ccore"
    live = run_workload_draws()
    _check_workload_draws(live)
    pure = run_on_pure_engine(
        "from test_engine_fastpath import run_workload_draws\n"
        "result = run_workload_draws()"
    )
    _check_workload_draws(pure)
    assert pure == live


def run_recorder_drill():
    """One scripted life of three recorders (exact with a window, exact
    without an end, sketch): the state after every call, or the error
    it raised.  Covers sends and completions exactly at ``warmup_ns``
    and ``end_ns``, a completion before its send, a fed
    ``completion_monitor``, keyword calls, and a running sum written
    past int64 and grown past it by ``record``."""
    from array import array

    from repro.metrics.latency import LatencyRecorder
    from repro.sim.monitor import IntervalMonitor

    steps = [
        ("note_sent", 999), ("note_sent", 1_000), ("note_sent", 4_999),
        ("note_sent", 5_000), ("note_sent", 12_345),
        ("record", 999, 1_000), ("record", 1_000, 1_000), ("record", 1_000, 4_999),
        ("record", 4_999, 5_000), ("record", 5_000, 5_001), ("record", 2_000, 1_999),
        ("monitor",), ("record", 1_500, 3_250), ("record", 6_000, 9_999),
        ("record", 4_000, 4_000),
        ("keywords", 2_000, 2_400), ("record", 3,), ("note_sent", "7"),
        ("sum", 2**63 - 100), ("record", 2_000, 2_500), ("record", 2_000, 2**62),
        ("sum", 2**70), ("record", 1_000, 1_001), ("sum", -5), ("record", 1_000, 1_003),
    ]
    trace = []
    for kwargs in (
        dict(warmup_ns=1_000, end_ns=5_000),
        dict(warmup_ns=0),
        dict(warmup_ns=1_000, end_ns=5_000, mode="sketch"),
    ):
        recorder = LatencyRecorder(**kwargs)
        monitor = IntervalMonitor(window_ns=1_000, horizon_ns=10_000)
        for step in steps:
            op, args = step[0], step[1:]
            try:
                if op == "monitor":
                    recorder.completion_monitor = monitor
                elif op == "sum":
                    recorder._sum_ns = args[0]
                elif op == "keywords":
                    recorder.record(done_time_ns=args[1], send_time_ns=args[0])
                else:
                    getattr(recorder, op)(*args)
                outcome = None
            except Exception as exc:  # noqa: BLE001 - the drill records it
                outcome = type(exc).__name__
            samples = recorder.latencies_ns
            trace.append((
                step, outcome, recorder.sent_in_window, recorder.completed_in_window,
                recorder._sum_ns, len(recorder), recorder.end_ns, recorder.warmup_ns,
                None if samples is None else (type(samples) is array, list(samples)),
                recorder.percentile_ns(50) if len(recorder) else None,
                monitor.counts(),
            ))
    return trace


def test_pure_python_engine_matches_live_engine_on_recorder_drill():
    """``note_sent`` and ``record`` (the C ``RecorderCore`` on the C
    core, the pure-Python ``_RecorderCore`` otherwise) keep the same
    window, counts, samples, monitor feed, running sum and errors."""
    from repro.metrics.latency import LatencyRecorder

    if USING_CCORE:
        from repro.sim._ccore import RecorderCore

        assert LatencyRecorder.__mro__[1] is RecorderCore
    live = run_recorder_drill()
    pure = run_on_pure_engine(
        "from test_engine_fastpath import run_recorder_drill\n"
        "result = run_recorder_drill()"
    )
    assert pure == live
    # The contract itself, on the windowed exact recorder.
    by_step = {}
    for entry in live[: len(live) // 3]:
        by_step.setdefault(entry[0], entry)
    sent = by_step[("note_sent", 5_000)]
    assert sent[2] == 2  # 1_000 and 4_999 count; 999 and 5_000 do not
    # Done at warmup_ns counts; a zero latency sent at warmup_ns is a
    # sample; done or sent at end_ns is out.
    assert by_step[("record", 999, 1_000)][3:6] == (1, 0, 0)
    assert by_step[("record", 1_000, 1_000)][3:6] == (2, 0, 1)
    assert by_step[("record", 4_999, 5_000)][3:6] == (3, 3_999 + 1, 3)
    assert by_step[("record", 5_000, 5_001)][3:6] == (3, 4_000, 3)
    failed = by_step[("record", 2_000, 1_999)]
    assert failed[1] == "ExperimentError"
    assert failed[2:] == by_step[("record", 5_000, 5_001)][2:]
    assert by_step[("record", 6_000, 9_999)][-1][9] == 1  # fed out of window
    assert by_step[("record", 3,)][1] == by_step[("note_sent", "7")][1] == "TypeError"
    assert by_step[("record", 2_000, 2_500)][4] == 2**63 - 100 + 500
    assert by_step[("record", 1_000, 1_001)][4] == 2**70 + 1
    assert by_step[("record", 1_000, 1_003)][4] == -2
