"""Experiment registry: IDs → harness entry points.

:data:`EXPERIMENTS` is a :class:`PluginRegistry` of
:class:`ExperimentSpec`, like every other plugin axis; its plugin
modules are the harness modules, imported on the first lookup.  Each
entry point is a module's ``run`` function, registered by putting
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
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.plugin_registry import PluginRegistry

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "UNREQUESTED",
    "gate_harness_axes",
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


@dataclass
class ExperimentSpec:
    """One figure/table harness."""

    #: Experiment id (``fig7``, ``table1``, ...).
    name: str
    #: One-line description shown by ``repro-netclone --list``.
    description: str
    #: The harness entry point: prints its report and returns it.
    run: Callable[..., str]
    #: Alternative lookup names.
    aliases: Tuple[str, ...] = ()
    #: Module that registered the spec (filled in by ``EXPERIMENTS.register``).
    module: Optional[str] = None


#: Every figure, table and ablation harness, loaded lazily from its module.
EXPERIMENTS = PluginRegistry(
    kind="experiment",
    spec_type=ExperimentSpec,
    factory_field="run",
    plugin_modules=[
        f"repro.experiments.{module}"
        for module in (
            "fig07_synthetic",
            "fig08_comparison",
            "fig09_scalability",
            "fig10_racksched",
            "fig11_redis",
            "fig12_memcached",
            "fig13_state_confidence",
            "fig14_low_variability",
            "fig15_filtering",
            "fig16_switch_failure",
            "fig17_multirack",
            "fig18_trunk_saturation",
            "fig19_locality",
            "table1_comparison",
            "table_resources",
            "ablations",
        )
    ],
)


def register(experiment_id: str, description: str):
    """Decorator registering a harness's ``run`` as *experiment_id*."""

    def wrap(run: Callable[..., str]) -> Callable[..., str]:
        EXPERIMENTS.register(ExperimentSpec(experiment_id, description, run))
        return run

    return wrap
