"""Scenario batches: the chaos catalog on the sweep engine.

:func:`run_scenarios` applies an optional fabric / placement override
to every scenario and pushes the cells through
:meth:`repro.experiments.executor.SweepExecutor.run_tasks` — the same
batch path fig16's failure drills and the figure sweeps use.  Each
cell ships as plain data (the scenario's dict form plus run knobs),
runs a full :func:`~repro.scenarios.runner.run_scenario` in the
worker, and returns the report's dict form — picklable both ways, so
``jobs=N`` is bit-identical to ``jobs=1``.

Every cell is re-validated *in the parent* before anything is
submitted, so an invalid combination (a spine scenario on a star
fabric) raises :class:`~repro.errors.ExperimentError` up front
instead of failing halfway through a batch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.executor import SweepExecutor
from repro.scenarios.spec import Scenario

__all__ = ["run_scenarios"]


def _run_cell(cell: Tuple[Dict[str, Any], float, Optional[int]]) -> Dict[str, Any]:
    """Run one cell; module-level so pool workers can import it.

    *cell* is the scenario's plain-dict form, the scale and the seed
    override — everything a spawned worker needs to rebuild the run
    from scratch.  Returns ``ScenarioReport.to_dict()``.
    """
    from repro.scenarios.runner import run_scenario

    spec, scale, seed = cell
    run = run_scenario(Scenario.from_dict(spec), scale=scale, seed=seed)
    return run.report.to_dict()


def run_scenarios(
    scenarios: Sequence[Scenario],
    topology: Optional[str] = None,
    placement: Optional[str] = None,
    scale: float = 1.0,
    seed: Optional[int] = None,
    jobs: int = 1,
) -> List[Dict[str, Any]]:
    """Run every scenario; one report dict per scenario, in input order.

    *topology* / *placement* (``None`` keeps each scenario's own
    value) replace the fabric or group placement of every scenario;
    *seed* overrides each scenario's pinned root seed.
    """
    cells = [
        (scenario.with_overrides(topology, placement).to_dict(), scale, seed)
        for scenario in scenarios
    ]
    return SweepExecutor(jobs).run_tasks(_run_cell, cells)
