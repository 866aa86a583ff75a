"""Shared helpers for the test suite.

Import explicitly (``from helpers import tiny_config``), so every
test module names the helpers it uses.
"""

import math

from repro.experiments.common import ClusterConfig
from repro.net import PacketPool
from repro.sim import Simulator
from repro.sim.units import ms
from repro.switchsim import ProgrammableSwitch


def tiny_config(**overrides):
    """A cluster config small enough for sub-second runs."""
    defaults = dict(
        scheme="netclone",
        num_servers=3,
        workers_per_server=4,
        num_clients=2,
        rate_rps=0.2e6,
        warmup_ns=ms(1),
        measure_ns=ms(3),
        drain_ns=ms(1),
        seed=7,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def make_packet(
    src=1, dst=2, sport=0, dport=0, size=64, payload=None, nc=None, pool=None
):
    """One packet acquired from *pool* (default: a fresh pool).

    ``PacketPool.acquire`` is the only way to make a packet; tests that
    need a packet outside a cluster get it here, usually from the
    sending host's ``packet_pool``.
    """
    return (pool or PacketPool()).acquire(src, dst, sport, dport, size, payload, nc)


class RecordingSwitch(ProgrammableSwitch):
    """A program-less switch that keeps every copy a pass recirculates.

    Program unit tests call ``program.apply(packet, switch)`` directly;
    each copy a clone hands to :meth:`recirculate` lands in ``copies``
    and is scheduled as usual, on a simulator no test runs.
    """

    def __init__(self):
        super().__init__(Simulator())
        self.copies = []

    def recirculate(self, packet):
        self.copies.append(packet)
        super().recirculate(packet)


def run_pass(program, switch, packet, recirculated=False):
    """One pass of *program* over *packet* on a :class:`RecordingSwitch`.

    Returns ``(dropped, copies)``: whether the verdict drops the packet
    and the copies this pass recirculated.  Also checks that the
    verdict is ``True`` or ``None`` and that the switch's
    ``recirculated`` counter counts every copy.
    """
    packet.recirculated = recirculated
    before = len(switch.copies)
    verdict = program.apply(packet, switch)
    assert verdict is True or verdict is None, verdict
    assert switch.counters.get("recirculated") == len(switch.copies)
    return verdict is True, switch.copies[before:]


def tiny_scenario(name="tiny", events=(), cluster=None, **scenario_fields):
    """A validated scenario over a :func:`tiny_config`-sized cluster.

    *events* are plain event dicts (the ``Scenario.from_dict`` shape);
    *cluster* overrides individual cluster-config fields.  Shared by
    the scenario unit tests and the scenario fuzz harness, exactly as
    :func:`tiny_config` is shared by the cluster ones.
    """
    from repro.scenarios import Scenario

    config = dict(
        scheme="netclone",
        num_servers=3,
        workers_per_server=4,
        num_clients=2,
        rate_rps=0.2e6,
        warmup_ns=ms(1),
        measure_ns=ms(3),
        drain_ns=ms(1),
        seed=7,
    )
    config.update(cluster or {})
    spec = {
        "name": name,
        "cluster": config,
        "events": list(events),
        "report_window_ns": ms(1),
    }
    spec.update(scenario_fields)
    return Scenario.from_dict(spec)


def assert_points_identical(a, b):
    """Field-by-field LoadPoint equality that treats nan == nan."""

    def same(x, y):
        if isinstance(x, float) and math.isnan(x):
            return isinstance(y, float) and math.isnan(y)
        return x == y

    for name in ("offered_rps", "throughput_rps", "p50_us", "p99_us", "p999_us",
                 "mean_us", "samples"):
        assert same(getattr(a, name), getattr(b, name)), name
    assert a.extra.keys() == b.extra.keys()
    for key in a.extra:
        assert same(a.extra[key], b.extra[key]), key
