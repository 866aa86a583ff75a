"""Per-link utilization series.

Every :class:`~repro.net.link.Link` counts the bytes it clocks onto
the wire per direction; this module reduces those counters to a
utilization series — one :class:`LinkLoad` per link — so trunk
saturation experiments (fig18) can report how hot each inter-rack
link ran alongside the latency percentiles.  Utilization is the
busiest direction's *offered* share of the line rate over the whole
simulated window (the link is full duplex, so each direction owns the
full rate); values above 1.0 mean the direction was oversubscribed
and queued a growing backlog.

:class:`TrunkByteMonitor` turns the same counters into a *timeline*:
it samples each link's cumulative byte count at fixed window
boundaries, so fig16-style drills can plot per-trunk throughput over
time next to the request-completion rate — e.g. traffic draining off
a withdrawn spine and returning after restoration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.errors import ExperimentError
from repro.metrics.tables import format_table
from repro.net.link import Link

__all__ = [
    "LinkLoad",
    "TrunkByteMonitor",
    "collect_link_loads",
    "format_link_loads",
    "trunk_summary",
]


@dataclass
class LinkLoad:
    """One link's traffic totals over a finished run."""

    name: str
    tx_bytes: int
    tx_count: int
    drop_count: int
    #: Busiest-direction offered fraction of the line rate over the
    #: window (> 1.0 = oversubscribed).
    utilization: float

    def row(self) -> tuple:
        return (
            self.name,
            f"{self.tx_bytes}",
            f"{self.tx_count}",
            f"{self.drop_count}",
            f"{self.utilization:.3f}",
        )


def collect_link_loads(links: Sequence[Link], window_ns: int) -> List[LinkLoad]:
    """One :class:`LinkLoad` per link, measured over *window_ns*."""
    return [
        LinkLoad(
            name=link.name,
            tx_bytes=link.tx_bytes,
            tx_count=link.tx_count,
            drop_count=link.drop_count,
            utilization=link.utilization(window_ns),
        )
        for link in links
    ]


def format_link_loads(loads: Sequence[LinkLoad]) -> str:
    """A printable table of per-link traffic totals."""
    return format_table(
        ["link", "tx_bytes", "tx_pkts", "drops", "util"],
        [load.row() for load in loads],
    )


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


def trunk_summary(trunks: Sequence[Link], window_ns: int) -> Dict[str, float]:
    """Reduce a fabric's trunk set to sweep-point extras.

    Always returns the same keys (zeros on trunkless fabrics such as
    the single-rack star) so load points stay field-compatible across
    topologies — determinism tests compare ``extra`` dicts key for key.
    """
    loads = collect_link_loads(trunks, window_ns)
    return {
        "trunk_util_max": max((l.utilization for l in loads), default=0.0),
        "trunk_util_mean": (
            sum(l.utilization for l in loads) / len(loads) if loads else 0.0
        ),
        "trunk_tx_bytes": float(sum(l.tx_bytes for l in loads)),
        "trunk_drops": float(sum(l.drop_count for l in loads)),
    }

