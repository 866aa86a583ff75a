"""Workload plugin registry.

Schemes decide *what* runs, topologies *where*, placements *where
redundancy lands*; workloads decide **what the cluster is asked to
do**: the request mix each client generates, the service model each
server runs, and the shape of the open-loop arrival process.  A
:class:`WorkloadDef` names a factory that turns its declared parameters
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
            make_spec=MySpec,
            params={"burst": (finite_float(gt=1), 8.0)},
        )

:func:`make_workload_spec` resolves the inline CLI params
(``--workload mmpp:burst=8,period_ms=0.5``) through the declared
``params`` table (:mod:`repro.coerce`) and calls ``make_spec(**params)``:
a typo or an out-of-range value raises when the spec is resolved.

The five built-ins are the workloads something runs: ``exp`` and
``bimodal`` (§5.1.2, the synthetic figures), ``kv-redis`` and
``kv-memcached`` (§5.5, Figures 11 and 12 and the e2e benchmark) and
``mmpp`` (``tools/rss_guard.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.coerce import Fields, count, finite_float, fraction, name
from repro.errors import ExperimentError, WorkloadError
from repro.experiments.plugin_registry import PluginRegistry
from repro.experiments.specs import KvSpec, MmppSpec, WorkloadSpec, make_synthetic_spec
from repro.workloads.kv import KvWorkload

__all__ = ["WORKLOADS", "WorkloadDef", "make_workload_spec"]


@dataclass
class WorkloadDef:
    """Declarative description of one workload family."""

    #: Canonical workload name (what ``ClusterConfig.workload`` strings
    #: normalise to).
    name: str
    #: One-line description shown by ``repro-netclone workloads``.
    description: str
    #: ``**params -> WorkloadSpec`` — build one spec from the resolved
    #: parameters.
    make_spec: Callable[..., WorkloadSpec]
    #: Alternative lookup names.
    aliases: Tuple[str, ...] = ()
    #: Declared knobs: ``{key: (coercer, default)}``.
    params: Fields = field(default_factory=dict)
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
    canonical, params = WORKLOADS.resolve(value, params)
    try:
        return WORKLOADS.get(canonical).make_spec(**params)
    except WorkloadError as exc:
        # A value the declared table lets through but a distribution
        # rejects is still a bad workload string.
        raise ExperimentError(f"{canonical} workload: {exc}") from None


#: The declared knobs of both key-value workloads.
_KV_PARAMS: Fields = {
    "scan_fraction": (fraction(le=KvWorkload.MAX_SCAN_FRACTION), 0.01),
    "num_keys": (count(ge=1), 1_000_000),
}

WORKLOADS.register(
    WorkloadDef(
        name="exp",
        description="Poisson open loop over Exp(mean_us) service times — "
        "the seed's default synthetic workload (§5.1.2); param: mean_us",
        make_spec=partial(make_synthetic_spec, "exp"),
        aliases=("exponential",),
        params={"mean_us": (finite_float(gt=0), 25.0)},
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="bimodal",
        description="Poisson open loop over the paper's 90%-25µs / "
        "10%-250µs bimodal service mix",
        make_spec=partial(make_synthetic_spec, "bimodal"),
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="kv-redis",
        description="Redis-cost key-value store, Zipf-0.99 keys, "
        "GET/SCAN-100 mix (§5.5); params: scan_fraction, num_keys",
        make_spec=partial(KvSpec, "redis"),
        aliases=("redis", "kv"),
        params=_KV_PARAMS,
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="kv-memcached",
        description="Memcached-cost key-value store, Zipf-0.99 keys, "
        "GET/SCAN-100 mix (§5.5); params: scan_fraction, num_keys",
        make_spec=partial(KvSpec, "memcached"),
        aliases=("memcached",),
        params=_KV_PARAMS,
        module=__name__,
    )
)

WORKLOADS.register(
    WorkloadDef(
        name="mmpp",
        description="Markov-modulated Poisson bursts over synthetic service "
        "times — calm/burst states, exact long-run rate; params: kind, "
        "mean_us, burst, high_fraction, period_ms",
        make_spec=MmppSpec,
        aliases=("bursty",),
        params={
            "kind": (name(("exp", "bimodal")), "exp"),
            "mean_us": (finite_float(gt=0), 25.0),
            "burst": (finite_float(gt=1), 8.0),
            "high_fraction": (fraction(gt=0, lt=1), 0.1),
            "period_ms": (finite_float(gt=0), 1.0),
        },
        module=__name__,
    )
)
