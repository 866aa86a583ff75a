"""Switch control plane.

Control-plane operations (installing table entries, removing a failed
server) run on the switch CPU over a slow channel — §3.8 points out
they have *limited update throughput* compared to data-plane register
writes.  The model applies each operation :data:`OP_LATENCY_NS` after
it is submitted and starts at most :data:`OPS_PER_SECOND` operations a
second, so experiments that lean on the control plane (server failure
handling, §3.6) pay a realistic cost.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.core import Simulator
from repro.sim.units import ms

__all__ = ["OPS_PER_SECOND", "OP_LATENCY_NS", "ControlPlane"]

#: Delay from submitting an operation to its taking effect, in ns.
OP_LATENCY_NS = ms(1)
#: Control-plane update rate: operations start at least 1e9 / this ns apart.
OPS_PER_SECOND = 10_000


class ControlPlane:
    """Serialised, delayed application of control operations."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._free_at = 0
        self.ops_applied = 0

    def submit(self, operation: Callable[..., Any], *args: Any) -> int:
        """Queue ``operation(*args)``; returns the time it will apply."""
        now = self.sim.now
        start = self._free_at if self._free_at > now else now
        apply_at = start + OP_LATENCY_NS
        self._free_at = start + 1_000_000_000 // OPS_PER_SECOND
        self.sim.call_at(apply_at, self._apply, operation, args)
        return apply_at

    def _apply(self, operation: Callable[..., Any], args: tuple) -> None:
        operation(*args)
        self.ops_applied += 1
