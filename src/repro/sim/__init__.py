"""Discrete-event simulation substrate.

This package is a from-scratch, dependency-free discrete-event engine
with an integer nanosecond clock and one programming model: callbacks
scheduled on the :class:`Simulator` with :meth:`Simulator.call_at` /
:meth:`Simulator.call_after` (fire-and-forget) and consumed by
:meth:`Simulator.run`.

Helper submodules provide seeded random-number streams (:mod:`rng`)
and measurement probes (:mod:`monitor`).
"""

from repro.sim.core import Simulator
from repro.sim.monitor import Counter, IntervalMonitor
from repro.sim.rng import RngRegistry, splitmix64
from repro.sim.units import MICROS, MILLIS, NANOS, SECONDS, ms, ns, sec, us

__all__ = [
    "Counter",
    "IntervalMonitor",
    "MICROS",
    "MILLIS",
    "NANOS",
    "RngRegistry",
    "SECONDS",
    "Simulator",
    "ms",
    "ns",
    "sec",
    "splitmix64",
    "us",
]
