"""Experiment registry: IDs → harness entry points.

Each entry point is a module's ``run`` function, registered by putting
``@register(id, description)`` on it; it prints the formatted report
and returns it as a string.  Every ``run`` accepts ``scale: float``
(shrinks measurement windows and sweep densities so the same harness
serves quick smoke runs, benchmarks, and full reproductions), ``seed:
int`` and ``jobs: int`` (the sweep worker-process count); the CLI
passes those three to every harness.  The other axes — ``topology``
(a registered fabric; ``None`` keeps the harness's default, usually
the single-rack star), ``placement`` (a registered group-placement
policy; ``None`` keeps ``global``), ``workload`` and ``metrics`` — are
gated on the signature by :func:`gate_harness_axes`: a harness
declares only the axes it honours, and asking a harness for an axis it
does not declare is an error, never a silent ignore.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ExperimentError

__all__ = [
    "EXPERIMENTS",
    "UNREQUESTED",
    "gate_harness_axes",
    "get_experiment",
    "list_experiments",
    "register",
]

#: Sentinel for :func:`gate_harness_axes`: the caller did not ask for
#: this axis (``None`` can be a real value, e.g. ``workload=None`` keeps
#: the harness's default workload spec).
UNREQUESTED = object()


def gate_harness_axes(
    harness: Callable[..., Any],
    experiment_id: str,
    requested: Dict[str, Any],
    defaults: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Optional-axis kwargs for *harness*, gated on its signature.

    Newer axes (``workload``, ``metrics``, ...) are opt-in
    per harness.  For each axis in *requested*: if the harness's
    signature declares it, the requested value is passed through
    (:data:`UNREQUESTED` falls back to *defaults*, or omits the axis);
    if the signature does **not** declare it and the caller actually
    asked, this raises :class:`ExperimentError` naming what the harness
    does accept — an unaware harness must error, never silently ignore
    a flag.  The CLI and ``tools/rss_guard.py`` route their harness
    calls through here.
    """
    accepted = inspect.signature(harness).parameters
    kwargs: Dict[str, Any] = {}
    defaults = defaults or {}
    for axis, value in requested.items():
        if axis in accepted:
            if value is UNREQUESTED:
                if axis in defaults:
                    kwargs[axis] = defaults[axis]
            else:
                kwargs[axis] = value
        elif value is not UNREQUESTED:
            raise ExperimentError(
                f"experiment {experiment_id!r} has no --{axis} axis "
                f"(it accepts: {', '.join(accepted)})"
            )
    return kwargs

EXPERIMENTS: Dict[str, Callable[..., str]] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register(experiment_id: str, description: str):
    """Decorator registering an experiment harness."""

    def wrap(fn: Callable[..., str]) -> Callable[..., str]:
        if experiment_id in EXPERIMENTS:
            raise ExperimentError(f"duplicate experiment id {experiment_id!r}")
        EXPERIMENTS[experiment_id] = fn
        _DESCRIPTIONS[experiment_id] = description
        return fn

    return wrap


def get_experiment(experiment_id: str) -> Callable[..., str]:
    """The harness registered under *experiment_id*."""
    _ensure_loaded()
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def list_experiments() -> List[str]:
    """``id — description`` lines for every registered experiment."""
    _ensure_loaded()
    return [f"{key} — {_DESCRIPTIONS[key]}" for key in sorted(EXPERIMENTS)]


def _ensure_loaded() -> None:
    """Import every harness module so registrations run."""
    from repro.experiments import (  # noqa: F401
        fig07_synthetic,
        fig08_comparison,
        fig09_scalability,
        fig10_racksched,
        fig11_redis,
        fig12_memcached,
        fig13_state_confidence,
        fig14_low_variability,
        fig15_filtering,
        fig16_switch_failure,
        fig17_multirack,
        fig18_trunk_saturation,
        fig19_locality,
        table1_comparison,
        table_resources,
    )
