"""Measurement: latency recording, sketches, percentiles, sweeps, tables."""

from repro.metrics.latency import LatencyRecorder, percentile
from repro.metrics.sketch import LatencySketch
from repro.metrics.sweep import LoadPoint, SweepResult
from repro.metrics.tables import format_table

__all__ = [
    "LatencyRecorder",
    "LatencySketch",
    "LoadPoint",
    "SweepResult",
    "format_table",
    "percentile",
]

from repro.metrics.charts import render_chart, render_sweeps  # noqa: E402
from repro.metrics.links import (  # noqa: E402
    LinkLoad,
    collect_link_loads,
    format_link_loads,
    trunk_summary,
)

__all__ += [
    "LinkLoad",
    "collect_link_loads",
    "format_link_loads",
    "render_chart",
    "render_sweeps",
    "trunk_summary",
]
