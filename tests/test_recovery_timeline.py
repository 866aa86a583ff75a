"""Trunk byte timelines and the spine withdraw → fail → restore drill.

:class:`~repro.metrics.links.TrunkByteMonitor` turns per-link byte
counters into per-window deltas; these tests pin its accounting and
then run a scaled-down version of the fig16-style spine recovery
drill from ``examples/switch_failure_drill.py``, asserting the story
the timeline panel tells: traffic drains off a withdrawn spine within
one window, total throughput never gaps (the withdrawal is hitless),
and the trunks carry bytes again after restoration.
"""

import pytest
from helpers import make_packet, tiny_config

from repro.errors import ExperimentError
from repro.experiments.common import Cluster
from repro.metrics.links import TrunkByteMonitor
from repro.net.host import Host
from repro.net.link import Link
from repro.sim.core import Simulator
from repro.sim.monitor import IntervalMonitor
from repro.sim.units import ms, us


def test_trunk_byte_monitor_bins_deltas_per_window():
    sim = Simulator()
    a, b = Host(sim, "a", 1), Host(sim, "b", 2)
    link = Link(sim, a, b, propagation_ns=10, bandwidth_bps=1e12, name="t")

    # Two sends in window 0, one in window 2, none in window 1.
    for at in (us(1), us(2), us(25)):
        sim.call_at(at, link.send, make_packet(size=100, pool=a.packet_pool), a)
    monitor = TrunkByteMonitor(sim, [link], window_ns=us(10), horizon_ns=us(40))
    sim.run(until=us(50))
    assert monitor.deltas() == {"t": [200, 0, 100, 0]}
    assert monitor.total_per_window() == [200, 0, 100, 0]
    assert len(monitor.window_starts_sec()) == 4


def test_trunk_byte_monitor_zero_fills_unreached_windows():
    sim = Simulator()
    a, b = Host(sim, "a", 1), Host(sim, "b", 2)
    link = Link(sim, a, b, propagation_ns=10, bandwidth_bps=1e12, name="t")
    monitor = TrunkByteMonitor(sim, [link], window_ns=us(10), horizon_ns=us(100))
    sim.run(until=us(35))  # only 3 of 10 windows sampled
    assert monitor.deltas()["t"] == [0] * 10
    with pytest.raises(ExperimentError):
        TrunkByteMonitor(sim, [link], window_ns=0, horizon_ns=us(10))


def test_spine_drill_timeline_is_hitless_and_recovers():
    window = ms(1)
    horizon = ms(12)
    config = tiny_config(
        topology="spine_leaf",
        topology_params={"racks": 2, "spines": 2},
        num_servers=4,
        warmup_ns=0,
        measure_ns=horizon,
        drain_ns=ms(1),
    )
    cluster = Cluster(config)
    fabric = cluster.topology
    completions = IntervalMonitor(window_ns=window, horizon_ns=horizon)
    cluster.recorder.completion_monitor = completions
    trunks = TrunkByteMonitor(cluster.sim, fabric.trunks, window, horizon)
    cluster.sim.call_at(ms(3), fabric.withdraw_spine, 0)
    cluster.sim.call_at(ms(6), fabric.spines[0].fail)
    cluster.sim.call_at(ms(8), fabric.restore_spine, 0, us(100))
    cluster.start()
    cluster.run()

    deltas = trunks.deltas()
    spine0_per_window = [
        sum(deltas[name][w] for name in deltas if name.endswith("s1"))
        for w in range(trunks.num_windows)
    ]
    # Traffic rode spine 0 before the withdrawal and after restoration;
    # between them (one settling window allowed for in-flight drain)
    # its trunks go quiet — including across the power-off.
    assert all(bytes_ > 0 for bytes_ in spine0_per_window[:3])
    assert all(bytes_ == 0 for bytes_ in spine0_per_window[4:8])
    assert any(bytes_ > 0 for bytes_ in spine0_per_window[9:])
    # Hitless: no throughput gap in any window, and the register wipe
    # never produced a duplicate delivery.
    rates = completions.rates_per_second()[: horizon // window]
    assert min(rates) > 0
    assert sum(c.redundant_responses for c in cluster.clients) == 0
