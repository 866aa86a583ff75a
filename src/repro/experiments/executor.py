"""Parallel sweep engine.

Every figure reproduction reduces to a batch of independent
``run_point`` calls — one fresh simulator per (scheme, topology,
offered-load) triple.  :class:`SweepExecutor` fans such a batch out
over a ``concurrent.futures`` process pool (``jobs`` workers) while
keeping the results in submission order, so parallel sweeps are
bit-identical to serial ones: each point builds its own
:class:`~repro.sim.rng.RngRegistry` from the config seed, and nothing
is shared between points.

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
spawns processes, unpicklable configs (e.g. ad-hoc specs holding
closures) fall back to the serial path with a logged warning, and a
pool that cannot be created (restricted environments) does the same.
"""

from __future__ import annotations

import logging
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.common import ClusterConfig
    from repro.metrics.sweep import LoadPoint

__all__ = [
    "SweepExecutor",
    "point_cost",
    "resolve_executor",
    "submission_order",
]

_LOG = logging.getLogger(__name__)


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
        stripped.append(replace(config, workload=_SpecRef(key)))
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
        and values < 1 mean "all CPUs".  Workers import every module
        that registered a plugin before any point runs.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            jobs = os.cpu_count() or 1
        self.jobs = jobs

    # ------------------------------------------------------------------
    def run_points(self, configs: Sequence["ClusterConfig"]) -> List["LoadPoint"]:
        """Measure every config; results keep the input order."""
        configs = list(configs)
        if self.jobs <= 1 or len(configs) <= 1:
            return [_measure_point(config) for config in configs]
        stripped, spec_table = _strip_specs(configs)
        if not self._picklable(stripped, spec_table):
            return [_measure_point(config) for config in configs]
        return self._with_serial_fallback(
            lambda: self._run_pool(stripped, spec_table),
            lambda: [_measure_point(config) for config in configs],
        )

    # ------------------------------------------------------------------
    def run_tasks(self, fn: Any, items: Sequence[Any]) -> List[Any]:
        """Run ``fn(item)`` for every item; results keep the input order.

        The generic sibling of :meth:`run_points` for batches that are
        not plain ``run_point(config)`` calls — e.g. fig16's failure
        drills, where each cell is a whole timeline with mid-run
        control-plane operations.  *fn* must be a module-level callable
        and each item picklable; like :meth:`run_points`, the batch
        degrades to serial execution on unpicklable payloads or an
        unavailable pool, and workers re-import plugin-registry modules
        first, so cells may resolve schemes/topologies/placements.
        """
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        try:
            pickle.dumps(fn)
            pickle.dumps(items)
        except Exception as exc:
            _LOG.warning("task batch is not picklable (%s); running serially", exc)
            return [fn(item) for item in items]

        def pool_run() -> List[Any]:
            with self._make_pool(len(items)) as pool:
                futures = [pool.submit(fn, item) for item in items]
                return [future.result() for future in futures]

        return self._with_serial_fallback(
            pool_run, lambda: [fn(item) for item in items]
        )

    # ------------------------------------------------------------------
    def _make_pool(
        self, num_items: int, spec_table: Optional[Dict[int, Any]] = None
    ) -> ProcessPoolExecutor:
        """A worker pool with the plugin-registry initializer armed."""
        return ProcessPoolExecutor(
            max_workers=min(self.jobs, num_items),
            initializer=_worker_init,
            initargs=(self._registered_plugin_modules(), spec_table),
        )

    @staticmethod
    def _with_serial_fallback(pool_run: Any, serial_run: Any) -> List[Any]:
        """Run *pool_run*, degrading to *serial_run* on pool failures.

        The one copy of the degrade policy both batch shapes share:
        worker-raised exceptions carry a ``_RemoteTraceback`` cause —
        those are simulation errors (e.g. a scheme reading a missing
        file) and propagate unchanged, since re-running the batch
        serially would only reproduce them slower.  A died worker
        (OOM, spawn-side import failure) or a bare OSError (fork
        denied, rlimits) is pool infrastructure: fall back to serial.
        """
        try:
            return pool_run()
        except BrokenProcessPool as exc:
            _LOG.warning("process pool failed (%s); running serially", exc)
            return serial_run()
        except OSError as exc:
            if type(exc.__cause__).__name__ == "_RemoteTraceback":
                raise
            _LOG.warning("process pool unavailable (%s); running serially", exc)
            return serial_run()

    # ------------------------------------------------------------------
    def _run_pool(
        self, stripped: List["ClusterConfig"], spec_table: Dict[int, Any]
    ) -> List["LoadPoint"]:
        with self._make_pool(len(stripped), spec_table) as pool:
            # Longest-first submission shrinks tail stragglers; the
            # future map restores submission order on collection.
            futures = {
                index: pool.submit(_measure_point, stripped[index])
                for index in submission_order(stripped)
            }
            return [futures[index].result() for index in range(len(stripped))]

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

    def _picklable(
        self, stripped: List["ClusterConfig"], spec_table: Dict[int, Any]
    ) -> bool:
        # Checked post-strip, exactly as the pool will ship them: the
        # (cheap) per-point configs and the once-per-worker spec table.
        try:
            pickle.dumps(stripped)
            pickle.dumps(spec_table)
            return True
        except Exception as exc:
            _LOG.warning(
                "sweep configs are not picklable (%s); sweeping serially", exc
            )
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SweepExecutor jobs={self.jobs}>"


def resolve_executor(
    executor: Optional[SweepExecutor], jobs: Optional[int]
) -> SweepExecutor:
    """*executor* if given, else a fresh one for *jobs* (default serial)."""
    if executor is not None:
        return executor
    return SweepExecutor(jobs=1 if jobs is None else jobs)
