"""Per-trunk byte timeline.

Every :class:`~repro.net.link.Link` counts the bytes it clocks onto
the wire per direction.  :class:`TrunkByteMonitor` turns those
counters into a *timeline*: it samples each link's cumulative byte
count at fixed window boundaries, so fig16-style drills can plot
per-trunk throughput over time next to the request-completion rate —
e.g. traffic draining off a withdrawn spine and returning after
restoration.  Whole-run trunk totals and utilization are not a
timeline; they are keys of
:meth:`~repro.experiments.common.Cluster.telemetry`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.errors import ExperimentError
from repro.net.link import Link

__all__ = ["TrunkByteMonitor"]


class TrunkByteMonitor:
    """Per-window transmitted-byte deltas for a set of links.

    Samples each link's cumulative ``tx_bytes`` at every window
    boundary up to the horizon (events self-schedule on the
    simulator), then reports per-window deltas — the trunk half of a
    recovery timeline.  Windows the run never reached report zero.
    """

    def __init__(self, sim: Any, links: Sequence[Link], window_ns: int, horizon_ns: int):
        if window_ns <= 0 or horizon_ns <= 0:
            raise ExperimentError("window and horizon must be positive")
        self.links = list(links)
        self.window_ns = window_ns
        self.num_windows = -(-horizon_ns // window_ns)  # ceil
        #: samples[w][l] = cumulative tx_bytes of link *l* at the end
        #: of window *w* (filled as the simulation reaches each edge).
        self._samples: List[List[int]] = []
        self._sim = sim
        sim.call_after(window_ns, self._tick)

    def _tick(self) -> None:
        self._samples.append([link.tx_bytes for link in self.links])
        if len(self._samples) < self.num_windows:
            self._sim.call_after(self.window_ns, self._tick)

    def window_starts_sec(self) -> List[float]:
        """Start time of each window, in seconds."""
        return [w * self.window_ns / 1e9 for w in range(self.num_windows)]

    def deltas(self) -> Dict[str, List[int]]:
        """link name → bytes clocked onto the wire per window."""
        out: Dict[str, List[int]] = {}
        for index, link in enumerate(self.links):
            previous = 0
            series: List[int] = []
            for sample in self._samples:
                series.append(sample[index] - previous)
                previous = sample[index]
            series.extend([0] * (self.num_windows - len(series)))
            out[link.name] = series
        return out

    def total_per_window(self) -> List[int]:
        """Bytes across all monitored links, per window."""
        per_link = self.deltas().values()
        return [sum(window) for window in zip(*per_link)] if per_link else []
