"""Discrete-event simulation substrate.

This package is a from-scratch, dependency-free discrete-event engine
with an integer nanosecond clock and one programming model: callbacks
scheduled on the :class:`Simulator` (:meth:`Simulator.call_at` /
:meth:`Simulator.call_after` on the hot paths, the cancellable
:meth:`Simulator.at` / :meth:`Simulator.schedule` where a handle is
needed).

Helper submodules provide seeded random-number streams (:mod:`rng`)
and measurement probes (:mod:`monitor`).
"""

from repro.sim.core import EventHandle, Simulator
from repro.sim.monitor import Counter, IntervalMonitor, TimeSeries
from repro.sim.rng import RngRegistry, splitmix64
from repro.sim.units import MICROS, MILLIS, NANOS, SECONDS, ms, ns, sec, us

__all__ = [
    "Counter",
    "EventHandle",
    "IntervalMonitor",
    "MICROS",
    "MILLIS",
    "NANOS",
    "RngRegistry",
    "SECONDS",
    "Simulator",
    "TimeSeries",
    "ms",
    "ns",
    "sec",
    "splitmix64",
    "us",
]
