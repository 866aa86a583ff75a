"""Shared utilities for the figure/table harnesses.

Every throughput-latency figure is driven the same way: compute the
cluster's theoretical capacity from worker count and mean service
time, sweep offered load over fractions of it, and print one curve per
scheme.  ``scale`` shrinks the measurement windows and thins the load
grid so the identical harness serves CI smoke tests, pytest-benchmark
runs, and full reproductions.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.errors import ExperimentError
from repro.experiments.common import ClusterConfig, run_sweep, sweep_override_kwargs
from repro.experiments.executor import SweepExecutor, resolve_executor
from repro.experiments.schemes import SCHEMES
from repro.metrics.sweep import LoadPoint, SweepResult
from repro.sim.units import ms

_LOG = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_FRACTIONS",
    "capacity_rps",
    "format_series",
    "load_grid",
    "scaled_config",
    "sweep_schemes",
]

#: Offered-load fractions of theoretical capacity for a full sweep.
DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def capacity_rps(total_workers: int, mean_service_ns: float) -> float:
    """Theoretical saturation throughput of the worker pool."""
    if total_workers <= 0 or mean_service_ns <= 0:
        raise ExperimentError("capacity needs positive workers and service time")
    return total_workers * 1e9 / mean_service_ns


def load_grid(
    capacity: float,
    scale: float = 1.0,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
) -> List[float]:
    """Offered loads for a sweep, thinned when *scale* < 1."""
    chosen = list(fractions)
    if scale < 0.4 and len(chosen) > 4:
        chosen = chosen[1::3] + [chosen[-1]]
    return [capacity * fraction for fraction in sorted(set(chosen))]


def scaled_config(config: ClusterConfig, scale: float) -> ClusterConfig:
    """Shrink the measurement windows by *scale* (floored sensibly)."""
    if scale <= 0:
        raise ExperimentError("scale must be positive")
    if scale >= 1.0:
        return config
    return replace(
        config,
        warmup_ns=max(ms(2), int(config.warmup_ns * scale)),
        measure_ns=max(ms(5), int(config.measure_ns * scale)),
        drain_ns=max(ms(2), int(config.drain_ns * scale)),
    )


def sweep_schemes(
    config: ClusterConfig,
    schemes: Sequence[str],
    loads: Sequence[float],
    jobs: Optional[int] = None,
    executor: Optional[SweepExecutor] = None,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[str, SweepResult]:
    """One curve per scheme over the same load grid.

    The whole scheme × load grid is flattened into one batch so a
    parallel executor keeps every worker busy across curves, not just
    within one; the serial default matches ``run_sweep`` per scheme.
    *topology* / *placement* override the config's fabric and group
    placement for every curve.
    """
    chosen = resolve_executor(executor, jobs)
    schemes = list(schemes)
    canonical = [SCHEMES.get(scheme).name for scheme in schemes]
    overrides = sweep_override_kwargs(config, topology, placement)
    loads = list(loads)
    point_configs = [
        replace(config, scheme=name, rate_rps=rate, **overrides)
        for name in canonical
        for rate in loads
    ]
    points: List[LoadPoint] = chosen.run_points(point_configs)
    # Results are keyed by the names the caller passed (aliases intact);
    # the curve labels use the canonical names the configs resolved to.
    results: Dict[str, SweepResult] = {}
    per_scheme = len(loads)
    for index, (key, name) in enumerate(zip(schemes, canonical)):
        result = SweepResult(scheme=name, workload=config.workload.name)
        for point in points[index * per_scheme : (index + 1) * per_scheme]:
            result.add(point)
        results[key] = result
    return results


def format_series(
    title: str,
    series: Dict[str, SweepResult],
    notes: Optional[Sequence[str]] = None,
    chart: bool = True,
) -> str:
    """A printable report section for one figure panel."""
    lines = [f"== {title} =="]
    for scheme in series:
        lines.append(series[scheme].format())
        lines.append("")
    if chart:
        from repro.metrics.charts import render_sweeps

        try:
            lines.append(render_sweeps(list(series.values())))
            lines.append("")
        except ExperimentError:
            pass  # a panel with no samples is not chartable; omit the chart
        except Exception:
            _LOG.exception("chart rendering failed for %r; omitting the chart", title)
    if notes:
        lines.append("shape checks:")
        lines.extend(f"  - {note}" for note in notes)
        lines.append("")
    return "\n".join(lines)
