"""Measurement probes for simulations.

* :class:`Counter` — named integer counters (drops, clones, ...).
* :class:`IntervalMonitor` — bins occurrences into fixed windows,
  used e.g. for the throughput-over-time plot of Figure 16.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from repro.sim.units import SECONDS

__all__ = ["Counter", "IntervalMonitor"]


class Counter:
    """A bag of named integer counters."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        # defaultdict keeps the increment a single C-level dict op.
        self._counts: Dict[str, int] = defaultdict(int)

    def incr(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* (creating it at zero)."""
        self._counts[name] += amount

    def get(self, name: str) -> int:
        """Current value of *name* (zero if never incremented)."""
        return self._counts.get(name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self._counts!r})"


class IntervalMonitor:
    """Counts occurrences per fixed-width time window.

    Used for throughput timelines: ``note(now)`` marks one completed
    request; ``rates_per_second()`` converts window counts to a rate.
    """

    def __init__(self, window_ns: int, horizon_ns: int):
        if window_ns <= 0 or horizon_ns <= 0:
            raise ValueError("window and horizon must be positive")
        self.window_ns = window_ns
        self.horizon_ns = horizon_ns
        self.bins = [0] * (1 + horizon_ns // window_ns)

    def note(self, time_ns: int, amount: int = 1) -> None:
        """Record *amount* occurrences at *time_ns* (clamped to horizon)."""
        index = min(time_ns // self.window_ns, len(self.bins) - 1)
        self.bins[index] += amount

    def counts(self) -> Sequence[int]:
        """Raw per-window counts."""
        return list(self.bins)

    def window_starts_sec(self) -> List[float]:
        """Start time of each window, in seconds."""
        return [i * self.window_ns / SECONDS for i in range(len(self.bins))]

    def rates_per_second(self) -> List[float]:
        """Per-window occurrence rate, in events per second."""
        scale = SECONDS / self.window_ns
        return [count * scale for count in self.bins]
