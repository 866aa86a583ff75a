"""Declarative chaos scenarios (spec → runner → invariants → sweep).

The harness has four layers, importable separately so pool workers
and offline report checkers pay only for what they use:

* :mod:`repro.scenarios.spec` — :class:`Scenario`: a typed, validated
  list of timed operator events, loadable from a dict or a TOML file;
* :mod:`repro.scenarios.runner` — :func:`run_scenario`: schedules the
  events on a live cluster, snapshots telemetry, drains, and reduces
  the run to a :class:`ScenarioReport` with one result per library
  invariant;
* :mod:`repro.scenarios.invariants` — the reusable invariant library
  (pure functions over report data);
* :mod:`repro.scenarios.catalog` — the built-in scenario catalog;
* :mod:`repro.scenarios.sweep` — :func:`run_scenarios`: a batch of
  scenarios, optionally moved onto another fabric or placement, run
  through :class:`~repro.experiments.executor.SweepExecutor`.
"""

from repro.scenarios.catalog import catalog, catalog_names, get_scenario
from repro.scenarios.invariants import (
    INVARIANTS,
    InvariantResult,
    ReportView,
    evaluate_invariants,
)
from repro.scenarios.runner import ScenarioReport, ScenarioRun, run_scenario
from repro.scenarios.spec import (
    EVENT_TYPES,
    Scenario,
    ScenarioEvent,
    event_action_names,
)
from repro.scenarios.sweep import run_scenarios

__all__ = [
    "EVENT_TYPES",
    "INVARIANTS",
    "InvariantResult",
    "ReportView",
    "Scenario",
    "ScenarioEvent",
    "ScenarioReport",
    "ScenarioRun",
    "catalog",
    "catalog_names",
    "evaluate_invariants",
    "event_action_names",
    "get_scenario",
    "run_scenario",
    "run_scenarios",
]
