"""Parallel sweep engine: the one path that runs a batch of points.

Every figure reproduction reduces to a batch of independent
``run_point`` calls — one fresh simulator per (scheme, topology,
offered-load) triple.  Callers build ``SweepExecutor(jobs)`` and hand
it the batch: :meth:`SweepExecutor.run_points` for configs (every
figure sweep, through :func:`~repro.experiments.common.run_sweep` and
:func:`~repro.experiments.harness.sweep_panels` or directly), and
:meth:`SweepExecutor.run_tasks` for whole-timeline cells (fig16's
failure drills, :func:`~repro.scenarios.sweep.run_scenarios`).  Both
fan the batch out over one ``concurrent.futures`` process pool
(``jobs`` workers) while keeping the results in input order, so
parallel batches are bit-identical to serial ones: each point builds
its own :class:`~repro.sim.rng.RngRegistry` from the config seed, and
nothing is shared between points.

Two scheduling refinements keep wide grids fast:

* **Shared workload shipping** — configs in one batch usually share a
  single :class:`~repro.experiments.specs.WorkloadSpec` (the KV spec's
  Zipf CDF alone is ~8 MB).  The batch is rewritten to carry tiny
  :class:`_SpecRef` markers and the spec table travels **once per
  worker** through the pool initializer instead of once per point.
* **Cost-ordered fan-out** — points are submitted longest-first
  (expected event count ∝ offered load × simulated duration, see
  :func:`point_cost`) so a straggling heavy point starts early instead
  of serialising the tail; results are still collected in submission
  order.

The executor degrades gracefully: ``jobs=1`` (the default) never
spawns processes, an unpicklable batch (e.g. ad-hoc specs holding
closures) falls back to the serial path with a logged warning, and a
pool that cannot be created (restricted environments) does the same.
"""

from __future__ import annotations

import copy
import logging
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.coerce import count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.common import ClusterConfig
    from repro.metrics.sweep import LoadPoint

__all__ = [
    "JOBS",
    "SweepExecutor",
    "point_cost",
    "submission_order",
]

_LOG = logging.getLogger(__name__)

#: Worker processes of a batch (``--jobs``); 0 means every CPU core.
JOBS = count(ge=0)


def point_cost(config: "ClusterConfig") -> float:
    """Expected simulation cost of one point (an event-count proxy).

    Simulated events scale with requests processed ≈ offered load ×
    simulated duration; higher loads also queue more, so this slightly
    understates heavy points — good enough to order a batch.
    """
    return config.rate_rps * config.total_ns


def submission_order(configs: Sequence["ClusterConfig"]) -> List[int]:
    """Indices of *configs* from most to least expensive (stable)."""
    return sorted(
        range(len(configs)), key=lambda i: point_cost(configs[i]), reverse=True
    )


@dataclass(frozen=True)
class _SpecRef:
    """Per-point placeholder for a workload spec shipped via the pool
    initializer (resolved back by :func:`_measure_point` in the worker)."""

    key: int


#: Worker-side table of workload specs, filled by :func:`_worker_init`.
_WORKER_SPECS: Dict[int, Any] = {}


def _strip_specs(
    configs: Sequence["ClusterConfig"],
) -> Tuple[List["ClusterConfig"], Dict[int, Any]]:
    """Replace each config's workload with a tiny :class:`_SpecRef`.

    Returns the rewritten configs plus the key → spec table; distinct
    spec objects get distinct keys, so mixed-workload batches still
    resolve correctly.
    """
    table: Dict[int, Any] = {}
    stripped = []
    for config in configs:
        key = id(config.workload)
        table.setdefault(key, config.workload)
        ref = copy.copy(config)  # not replace(): a _SpecRef is no workload
        ref.workload = _SpecRef(key)
        stripped.append(ref)
    return stripped, table


def _measure_point(config: "ClusterConfig") -> "LoadPoint":
    # Top-level wrapper: picklable by reference for pool workers, and
    # the late import keeps executor.py importable before common.py.
    from repro.experiments.common import run_point

    workload = config.workload
    if isinstance(workload, _SpecRef):
        config = replace(config, workload=_WORKER_SPECS[workload.key])
    return run_point(config)


def _worker_init(
    plugin_modules: Tuple[str, ...], specs: Optional[Dict[int, Any]] = None
) -> None:
    """Pool initializer: plugin registries + shared workload specs.

    With the ``fork`` start method the worker inherits the parent's
    registries; with ``spawn``/``forkserver`` it starts clean, so
    re-import whichever modules registered schemes or topologies in
    the parent.  Modules that cannot be imported (e.g. schemes
    registered from ``__main__``) are skipped — the lookup error then
    surfaces per point.  *specs* is the shared workload table; sending
    it here costs one pickle per worker rather than one per point.
    """
    import importlib

    for module in plugin_modules:
        try:
            importlib.import_module(module)
        except Exception:  # pragma: no cover - depends on start method
            _LOG.debug("sweep worker could not import plugin %s", module)
    if specs:
        _WORKER_SPECS.update(specs)


class SweepExecutor:
    """Runs batches of independent cluster measurements.

    :param jobs: worker processes; 1 means in-process serial execution
        and 0 means "all CPUs" (a negative count raises).  Workers
        import every module that registered a plugin before any point
        runs.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = JOBS(jobs, "jobs") or os.cpu_count() or 1

    def run_points(self, configs: Sequence["ClusterConfig"]) -> List["LoadPoint"]:
        """Measure every config; results keep the input order.

        Workload specs ship once per worker and points are submitted
        longest-first.
        """
        return self._run_batch(_measure_point, list(configs), ship_specs=True)

    def run_tasks(self, fn: Any, items: Sequence[Any]) -> List[Any]:
        """Run ``fn(item)`` for every item; results keep the input order.

        For batches that are not plain ``run_point(config)`` calls —
        fig16's failure drills and the scenario catalog, where each
        cell is a whole timeline with mid-run control-plane
        operations.  *fn* must be a module-level callable and each
        item picklable.
        """
        return self._run_batch(fn, list(items))

    # ------------------------------------------------------------------
    def _run_batch(
        self, fn: Any, items: List[Any], ship_specs: bool = False
    ) -> List[Any]:
        """The one pool routine behind :meth:`run_points` and :meth:`run_tasks`.

        ``jobs=1`` and single-item batches run in-process.  With
        *ship_specs* the items are configs: each workload is replaced
        by a :class:`_SpecRef` and the spec table rides the pool
        initializer, and points are submitted longest-first.  An
        unpicklable batch runs serially with a logged warning.

        Worker-raised exceptions carry a ``_RemoteTraceback`` cause —
        those are simulation errors (e.g. a scheme reading a missing
        file) and propagate unchanged, since re-running the batch
        serially would only reproduce them slower.  A died worker
        (OOM, spawn-side import failure) or a bare OSError (fork
        denied, rlimits) is pool infrastructure: fall back to serial.
        """
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if ship_specs:
            payloads, specs = _strip_specs(items)
            order: Sequence[int] = submission_order(items)
        else:
            payloads, specs, order = items, None, range(len(items))
        try:
            # Checked exactly as the pool will ship them: the per-item
            # payloads and the once-per-worker spec table.
            pickle.dumps((fn, payloads, specs))
        except Exception as exc:
            _LOG.warning("batch is not picklable (%s); running serially", exc)
            return [fn(item) for item in items]
        try:
            with self._make_pool(len(items), specs) as pool:
                # The future map restores input order on collection.
                futures = {
                    index: pool.submit(fn, payloads[index]) for index in order
                }
                return [futures[index].result() for index in range(len(items))]
        except BrokenProcessPool as exc:
            _LOG.warning("process pool failed (%s); running serially", exc)
        except OSError as exc:
            if type(exc.__cause__).__name__ == "_RemoteTraceback":
                raise
            _LOG.warning("process pool unavailable (%s); running serially", exc)
        return [fn(item) for item in items]

    def _make_pool(
        self, num_items: int, specs: Optional[Dict[int, Any]]
    ) -> ProcessPoolExecutor:
        """A worker pool with the plugin-registry initializer armed."""
        return ProcessPoolExecutor(
            max_workers=min(self.jobs, num_items),
            initializer=_worker_init,
            initargs=(self._registered_plugin_modules(), specs),
        )

    @staticmethod
    def _registered_plugin_modules() -> Tuple[str, ...]:
        from repro.experiments.placements import PLACEMENTS
        from repro.experiments.schemes import SCHEMES
        from repro.experiments.topologies import SPINE_POLICIES, TOPOLOGIES
        from repro.experiments.workloads_registry import WORKLOADS

        # Not EXPERIMENTS: sweep workers never run a figure harness.
        registries = (SCHEMES, TOPOLOGIES, PLACEMENTS, WORKLOADS, SPINE_POLICIES)
        return tuple(
            sorted({m for r in registries for m in r.registered_modules()})
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SweepExecutor jobs={self.jobs}>"
