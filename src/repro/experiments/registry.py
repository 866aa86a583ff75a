"""Experiment registry: IDs → harness entry points.

:data:`EXPERIMENTS` is a :class:`PluginRegistry` of
:class:`ExperimentSpec`, like every other plugin axis; its plugin
modules are the harness modules, imported on the first lookup.  A
harness is two functions: ``collect``, which measures and returns
data, and a pure ``render(data) -> str``, which formats that data and
runs no simulation.  A module registers the pair by putting
``@register(id, description, collect)`` on its ``render``;
:meth:`ExperimentSpec.report` is ``render(collect(**axes))``.  Every
``collect`` accepts ``scale: float`` (shrinks measurement windows and
sweep densities so the same harness serves quick smoke runs,
benchmarks, and full reproductions), ``seed: int`` and ``jobs: int``
(the sweep worker-process count).  The other axes — ``topology`` (a
registered fabric; ``None`` keeps the harness's default, usually the
single-rack star), ``placement`` (a registered group-placement
policy; ``None`` keeps ``global``), ``workload`` and ``metrics`` — are
gated on ``collect``'s signature by :func:`gate_harness_axes`: a
harness declares only the axes it honours, and asking a harness for
an axis it does not declare is an error, never a silent ignore.
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
    "gate_harness_axes",
    "register",
]


def gate_harness_axes(
    collect: Callable[..., Any], experiment_id: str, axes: Dict[str, Any]
) -> Dict[str, Any]:
    """*axes*, once every one is declared by *collect*'s signature.

    An axis *collect* does not declare raises
    :class:`ExperimentError` naming what it does accept — an unaware
    harness must error, never silently ignore a flag.  Keyword-only
    parameters are library knobs no flag sets (fig11's
    ``cost_model``), not axes.
    """
    accepted = [
        name
        for name, param in inspect.signature(collect).parameters.items()
        if param.kind is not param.KEYWORD_ONLY
    ]
    for axis in axes:
        if axis not in accepted:
            raise ExperimentError(
                f"experiment {experiment_id!r} has no --{axis} axis "
                f"(it accepts: {', '.join(accepted)})"
            )
    return axes


@dataclass
class ExperimentSpec:
    """One figure/table harness."""

    #: Experiment id (``fig7``, ``table1``, ...).
    name: str
    #: One-line description shown by ``repro-netclone --list``.
    description: str
    #: Measures the figure and returns its data.
    collect: Callable[..., Any]
    #: Formats what ``collect`` returned; runs nothing, prints nothing.
    render: Callable[[Any], str]
    #: Alternative lookup names.
    aliases: Tuple[str, ...] = ()
    #: Module that registered the spec (filled in by ``EXPERIMENTS.register``).
    module: Optional[str] = None

    def report(self, **axes: Any) -> str:
        """The report text, ``render(collect(**axes))``, axes gated."""
        return self.render(
            self.collect(**gate_harness_axes(self.collect, self.name, axes))
        )


#: Every figure, table and ablation harness, loaded lazily from its module.
EXPERIMENTS = PluginRegistry(
    kind="experiment",
    spec_type=ExperimentSpec,
    factory_field="render",
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


def register(experiment_id: str, description: str, collect: Callable[..., Any]):
    """Decorator registering a harness's ``render`` and *collect* as *experiment_id*."""

    def wrap(render: Callable[[Any], str]) -> Callable[[Any], str]:
        EXPERIMENTS.register(
            ExperimentSpec(experiment_id, description, collect, render)
        )
        return render

    return wrap
