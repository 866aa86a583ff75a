"""Shared utilities for the figure/table harnesses.

Every throughput-latency figure is driven the same way: a figure
builds one scaled :class:`ClusterConfig` per panel and hands them to
:func:`sweep_panels`, which sweeps offered load over fractions of each
panel's worker-pool capacity for every scheme and runs the whole
panel × scheme × load grid as one executor batch; :func:`format_series`
formats one curve per scheme.  ``scale`` shrinks the measurement
windows (:func:`scaled_config`) and thins the load grid
(:func:`load_grid`) so the identical harness serves CI smoke tests
and full reproductions.  A caller with its own load grid sweeps one
curve with :func:`~repro.experiments.common.run_sweep`; topology and
placement ride on the :class:`ClusterConfig` in both.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.coerce import finite_float
from repro.errors import ExperimentError
from repro.experiments.common import ClusterConfig, _sweep_grid
from repro.experiments.placements import PLACEMENTS
from repro.experiments.topologies import TOPOLOGIES
from repro.metrics.sweep import SweepResult
from repro.sim.units import ms

_LOG = logging.getLogger(__name__)

__all__ = [
    "DEFAULT_FRACTIONS",
    "SCALE",
    "SWEPT_PLACEMENTS",
    "capacity_rps",
    "format_series",
    "load_grid",
    "scaled_config",
    "spine_leaf_params",
    "sweep_panels",
    "swept_placements",
]

#: How far a run shrinks (``--scale``): windows and grids for a figure,
#: the offered rate for a scenario.
SCALE = finite_float(gt=0)

#: Offered-load fractions of theoretical capacity for a full sweep.
DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: Placement policies a placement grid sweeps unless one is pinned.
SWEPT_PLACEMENTS = ("global", "rack-weighted:p=0.5", "rack-local")


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
    if SCALE(scale, "scale") >= 1.0:
        return config
    return replace(
        config,
        warmup_ns=max(ms(2), int(config.warmup_ns * scale)),
        measure_ns=max(ms(5), int(config.measure_ns * scale)),
        drain_ns=max(ms(2), int(config.drain_ns * scale)),
    )


def spine_leaf_params(
    topology: Optional[str], figure: str, **defaults: Any
) -> Dict[str, Any]:
    """*defaults* overlaid with the typed params pinned inline on a
    ``spine_leaf`` *topology* (None is the bare fabric); another fabric raises."""
    name, pinned = TOPOLOGIES.parse(topology or "spine_leaf")
    if name != "spine_leaf":
        raise ExperimentError(
            f"{figure} measures racks joined by spine trunks; topology "
            f"{name!r} has none (use spine_leaf, optionally with inline params)"
        )
    # The inline form, so the pinned text is read as numbers before typing.
    resolved = TOPOLOGIES.resolve(topology or name)[1]
    return {**defaults, **{key: resolved[key] for key in pinned}}


def swept_placements(pinned: Optional[str]) -> Tuple[str, ...]:
    """The placement set to sweep; a pinned policy races ``global``."""
    if pinned is None:
        return SWEPT_PLACEMENTS
    pinned = PLACEMENTS.canonical(pinned)
    if pinned == "global":
        return ("global",)
    return ("global", pinned)


def sweep_panels(
    panels: Dict[Any, ClusterConfig],
    schemes: Sequence[str],
    scale: float,
    jobs: int = 1,
) -> Dict[Any, Dict[str, SweepResult]]:
    """One curve per scheme for every panel, as a single executor batch.

    *panels* maps a panel key to an already-scaled config.  Each
    panel's loads are :func:`load_grid` fractions of its worker pool's
    capacity, and the whole panel × scheme × load grid runs as one
    batch, so a parallel executor keeps every worker busy across
    panels and curves.  Results are keyed by panel, then by the scheme
    names the caller passed.
    """
    grid = {
        key: (
            config,
            load_grid(
                capacity_rps(
                    sum(config.worker_counts()), config.workload.mean_service_ns
                ),
                scale,
            ),
        )
        for key, config in panels.items()
    }
    return _sweep_grid(grid, schemes, jobs)


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
