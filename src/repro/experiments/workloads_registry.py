"""Workload plugin registry.

Schemes decide *what* runs, topologies *where*, placements *where
redundancy lands*; workloads decide **what the cluster is asked to
do**: the request mix each client generates, the service model each
server runs, and the shape of the open-loop arrival process.  A
:class:`WorkloadDef` names a factory that turns free-form parameters
into a :class:`~repro.experiments.specs.WorkloadSpec`; :data:`WORKLOADS`
maps workload names and aliases to defs on the same
:class:`~repro.experiments.plugin_registry.PluginRegistry` as the
scheme/topology/placement axes, so
``ClusterConfig(workload="mmpp:burst=8")`` and the CLI's
``--workload`` flag resolve through one table
(:func:`make_workload_spec`).

Registering a workload::

    from repro.experiments.workloads_registry import WORKLOADS, WorkloadDef

    @WORKLOADS.register
    def _my_workload() -> WorkloadDef:
        return WorkloadDef(
            name="my-workload",
            description="one line for `repro-netclone workloads`",
            make_spec=lambda params: MySpec(**params),
        )

Factories receive the inline CLI params (``--workload
mmpp:burst=8,period_ms=0.5``) and must reject unknown or out-of-range
values with a diagnosable :class:`~repro.errors.ExperimentError`
when the spec is resolved, not at cluster build
(``WORKLOADS.check_params`` rejects unknown keys, and
:func:`make_workload_spec` re-raises a distribution's
:class:`~repro.errors.WorkloadError` as one) — a typo must never
silently run the default workload.

The five built-ins are the workloads something runs: ``exp`` and
``bimodal`` (§5.1.2, the synthetic figures), ``kv-redis`` and
``kv-memcached`` (§5.5, Figures 11 and 12 and the e2e benchmark) and
``mmpp`` (``tools/rss_guard.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ExperimentError, WorkloadError
from repro.experiments.plugin_registry import PluginRegistry
from repro.experiments.specs import KvSpec, MmppSpec, WorkloadSpec, make_synthetic_spec

__all__ = ["WORKLOADS", "WorkloadDef", "make_workload_spec"]


@dataclass
class WorkloadDef:
    """Declarative description of one workload family."""

    #: Canonical workload name (what ``ClusterConfig.workload`` strings
    #: normalise to).
    name: str
    #: One-line description shown by ``repro-netclone workloads``.
    description: str
    #: ``params -> WorkloadSpec`` — build one spec from the merged
    #: parameter dict, validating every knob.
    make_spec: Callable[[Dict[str, Any]], WorkloadSpec]
    #: Alternative lookup names.
    aliases: Tuple[str, ...] = ()
    #: Module that registered the def (filled in by ``WORKLOADS.register``).
    module: Optional[str] = None


#: Every registered workload, by canonical name and alias.
WORKLOADS = PluginRegistry(
    kind="workload", spec_type=WorkloadDef, factory_field="make_spec"
)


def make_workload_spec(
    value: str, params: Optional[Dict[str, Any]] = None
) -> WorkloadSpec:
    """Resolve *value* and build its spec, validated.

    *value* is either a bare registered name (with *params* supplied
    separately) or the full inline form ``"name:key=val,..."``.
    """
    if params is None:
        value, params = WORKLOADS.parse(value)
    definition = WORKLOADS.get(value)
    try:
        return definition.make_spec(dict(params))
    except WorkloadError as exc:
        # A value the registry's parsers let through but a distribution
        # rejects (exp:mean_us=0) is still a bad workload string.
        raise ExperimentError(f"{definition.name} workload: {exc}") from None


# ----------------------------------------------------------------------
# Built-in workloads
# ----------------------------------------------------------------------
def _float_param(params: Dict[str, Any], key: str, default: float, workload: str) -> float:
    value = params.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ExperimentError(
            f"{workload} workload parameter {key}={value!r} must be a finite number"
        )
    return number


def _int_param(params: Dict[str, Any], key: str, default: int, workload: str) -> int:
    value = params.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ExperimentError(
            f"{workload} workload parameter {key}={value!r} must be an integer"
        )
    return value


def _exp_spec(params: Dict[str, Any]) -> WorkloadSpec:
    WORKLOADS.check_params(params, ("mean_us",), "exp workload")
    return make_synthetic_spec("exp", mean_us=_float_param(params, "mean_us", 25.0, "exp"))


def _bimodal_spec(params: Dict[str, Any]) -> WorkloadSpec:
    WORKLOADS.check_params(params, (), "bimodal workload")
    return make_synthetic_spec("bimodal")


def _kv_spec(cost_model: str, params: Dict[str, Any]) -> WorkloadSpec:
    workload = f"kv-{cost_model}"
    WORKLOADS.check_params(params, ("scan_fraction", "num_keys"), f"{workload} workload")
    return KvSpec(
        cost_model=cost_model,
        scan_fraction=_float_param(params, "scan_fraction", 0.01, workload),
        num_keys=_int_param(params, "num_keys", 1_000_000, workload),
    )


def _mmpp_spec(params: Dict[str, Any]) -> WorkloadSpec:
    WORKLOADS.check_params(
        params,
        ("kind", "mean_us", "burst", "high_fraction", "period_ms"),
        "mmpp workload",
    )
    return MmppSpec(
        kind=str(params.get("kind", "exp")),
        mean_us=_float_param(params, "mean_us", 25.0, "mmpp"),
        burst=_float_param(params, "burst", 8.0, "mmpp"),
        high_fraction=_float_param(params, "high_fraction", 0.1, "mmpp"),
        period_ms=_float_param(params, "period_ms", 1.0, "mmpp"),
    )


WORKLOADS.register(
    WorkloadDef(
        name="exp",
        description="Poisson open loop over Exp(mean_us) service times — "
        "the seed's default synthetic workload (§5.1.2); param: mean_us",
        make_spec=_exp_spec,
        aliases=("exponential",),
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="bimodal",
        description="Poisson open loop over the paper's 90%-25µs / "
        "10%-250µs bimodal service mix",
        make_spec=_bimodal_spec,
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="kv-redis",
        description="Redis-cost key-value store, Zipf-0.99 keys, "
        "GET/SCAN-100 mix (§5.5); params: scan_fraction, num_keys",
        make_spec=partial(_kv_spec, "redis"),
        aliases=("redis", "kv"),
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="kv-memcached",
        description="Memcached-cost key-value store, Zipf-0.99 keys, "
        "GET/SCAN-100 mix (§5.5); params: scan_fraction, num_keys",
        make_spec=partial(_kv_spec, "memcached"),
        aliases=("memcached",),
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="mmpp",
        description="Markov-modulated Poisson bursts over synthetic service "
        "times — calm/burst states, exact long-run rate; params: kind, "
        "mean_us, burst, high_fraction, period_ms",
        make_spec=_mmpp_spec,
        aliases=("bursty",),
        module=__name__,
    )
)
