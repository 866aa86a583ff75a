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
(``WORKLOADS.check_params`` rejects unknown keys) — a typo must never
silently run the default workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.plugin_registry import PluginRegistry
from repro.experiments.specs import (
    DiurnalSpec,
    KvSpec,
    MmppSpec,
    SyntheticSpec,
    WorkloadSpec,
    make_synthetic_spec,
)
from repro.workloads.distributions import FixedDistribution, LognormalDistribution

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
    return WORKLOADS.get(value).make_spec(dict(params))


# ----------------------------------------------------------------------
# Built-in workloads
# ----------------------------------------------------------------------
def _float_param(params: Dict[str, Any], key: str, default: float, workload: str) -> float:
    value = params.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ExperimentError(
            f"{workload} workload parameter {key}={value!r} must be a number"
        ) from None


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


def _fixed_spec(params: Dict[str, Any]) -> WorkloadSpec:
    WORKLOADS.check_params(params, ("mean_us",), "fixed workload")
    mean_us = _float_param(params, "mean_us", 25.0, "fixed")
    return SyntheticSpec(partial(FixedDistribution, mean_us))


def _lognormal_spec(params: Dict[str, Any]) -> WorkloadSpec:
    WORKLOADS.check_params(params, ("mean_us", "sigma"), "lognormal workload")
    mean_us = _float_param(params, "mean_us", 25.0, "lognormal")
    sigma = _float_param(params, "sigma", 1.0, "lognormal")
    return SyntheticSpec(partial(LognormalDistribution, mean_us, sigma))


def _kv_spec(cost_model: str, params: Dict[str, Any]) -> WorkloadSpec:
    WORKLOADS.check_params(
        params,
        ("scan_fraction", "num_keys", "zipf_skew", "scan_count", "drift_period"),
        f"{cost_model} workload",
    )
    return KvSpec(
        cost_model=cost_model,
        scan_fraction=_float_param(params, "scan_fraction", 0.01, cost_model),
        num_keys=_int_param(params, "num_keys", 1_000_000, cost_model),
        zipf_skew=_float_param(params, "zipf_skew", 0.99, cost_model),
        scan_count=_int_param(params, "scan_count", 100, cost_model),
        drift_period=_int_param(params, "drift_period", 0, cost_model),
    )


def _kv_drift_spec(params: Dict[str, Any]) -> WorkloadSpec:
    params = dict(params)
    params.setdefault("drift_period", 10_000)
    return _kv_spec("redis", params)


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


def _diurnal_spec(params: Dict[str, Any]) -> WorkloadSpec:
    WORKLOADS.check_params(
        params, ("kind", "mean_us", "amplitude", "period_ms"), "diurnal workload"
    )
    return DiurnalSpec(
        kind=str(params.get("kind", "exp")),
        mean_us=_float_param(params, "mean_us", 25.0, "diurnal"),
        amplitude=_float_param(params, "amplitude", 0.5, "diurnal"),
        period_ms=_float_param(params, "period_ms", 2.0, "diurnal"),
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
        name="fixed",
        description="Poisson open loop over deterministic service times; "
        "param: mean_us",
        make_spec=_fixed_spec,
        aliases=("deterministic",),
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="lognormal",
        description="Poisson open loop over heavy-tailed Lognormal service "
        "times; params: mean_us, sigma",
        make_spec=_lognormal_spec,
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="kv-redis",
        description="Redis-cost key-value store, Zipf keys, GET/SCAN mix "
        "(§5.5); params: scan_fraction, num_keys, zipf_skew, scan_count, "
        "drift_period",
        make_spec=partial(_kv_spec, "redis"),
        aliases=("redis", "kv"),
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="kv-memcached",
        description="Memcached-cost key-value store, Zipf keys, GET/SCAN "
        "mix (§5.5); params: scan_fraction, num_keys, zipf_skew, "
        "scan_count, drift_period",
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

WORKLOADS.register(
    WorkloadDef(
        name="diurnal",
        description="phase-staggered sinusoidal multi-tenant arrivals over "
        "synthetic service times; params: kind, mean_us, amplitude, "
        "period_ms",
        make_spec=_diurnal_spec,
        aliases=("multi-tenant",),
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="kv-drift",
        description="kv-redis with a time-drifting Zipf hot set (rotates "
        "one key per drift_period requests); params as kv-redis, "
        "drift_period defaults to 10000",
        make_spec=_kv_drift_spec,
        aliases=("drift",),
        module=__name__,
    )
)
