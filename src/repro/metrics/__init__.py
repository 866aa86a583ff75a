"""Measurement: latency recording, sketches, percentiles, sweeps, tables.

Component counters are not read here: ``Cluster.telemetry()``
(:mod:`repro.experiments.common`) is their one reader.  Of link
traffic, :mod:`repro.metrics.links` keeps only the per-trunk byte
timeline (:class:`~repro.metrics.links.TrunkByteMonitor`).
"""

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

__all__ += ["render_chart", "render_sweeps"]
