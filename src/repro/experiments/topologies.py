"""Topology plugin registry.

Schemes decide *what* runs on the fabric; topologies decide what the
fabric *is*.  A :class:`TopologySpec` names a fabric builder that,
given a build context (simulator + :class:`ClusterConfig`), produces
the switches, links, routes and host-attachment hooks of one fabric
(see :class:`repro.net.topology.Fabric`).  The registry maps topology
names (and aliases) to specs, mirroring the scheme registry in
:mod:`repro.experiments.schemes`, so
:class:`~repro.experiments.common.Cluster` composes any registered
scheme with any registered topology — the §3.7 SWID gate makes the
scheme's switch program safe to install per ToR.

Registering a topology::

    from repro.experiments.topologies import TopologySpec, register_topology

    @register_topology
    def _my_fabric() -> TopologySpec:
        return TopologySpec(
            name="my-fabric",
            description="one line for `repro-netclone topologies`",
            make_fabric=lambda ctx: MyFabric(ctx.sim, ctx.make_switch),
        )

Builders read free-form knobs from ``ctx.config.topology_params``
(e.g. ``spine_leaf`` honours ``racks`` and ``spines``).  Plugin
modules listed in :data:`PLUGIN_MODULES` are imported lazily on first
lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.plugin_registry import (
    PluginRegistry,
    format_plugin_params,
    parse_plugin_params,
)
from repro.net.topology import (
    Fabric,
    SingleRackFabric,
    SpineLeafFabric,
    TwoRackFabric,
    spine_policy_names,
)

__all__ = [
    "PLUGIN_MODULES",
    "TopologyContext",
    "TopologySpec",
    "canonical_topology",
    "describe_topologies",
    "format_topology",
    "get_topology",
    "iter_topologies",
    "parse_topology",
    "register_topology",
    "registered_modules",
    "topology_names",
    "unregister_topology",
]

#: Modules imported lazily on registry access so self-registering
#: plugin topologies become visible without the core importing them
#: eagerly.  Append at any time; new entries load on the next lookup.
PLUGIN_MODULES: List[str] = []


#: Switch timing: ingress-to-egress pipeline latency and the extra
#: latency of one recirculation pass, in ns.
SWITCH_PIPELINE_NS = 400
SWITCH_RECIRC_NS = 700


@dataclass
class TopologyContext:
    """Build-time state handed to every :class:`TopologySpec` builder.

    ``make_switch(name)`` builds a switch with the config's pipeline
    timing, so fabric builders never import the switch model.
    """

    sim: Any
    config: Any

    @property
    def params(self) -> Dict[str, Any]:
        """The config's free-form ``topology_params``."""
        return dict(getattr(self.config, "topology_params", None) or {})

    def make_switch(self, name: str):
        from repro.switchsim.switch import ProgrammableSwitch

        return ProgrammableSwitch(
            self.sim,
            name=name,
            pipeline_latency_ns=SWITCH_PIPELINE_NS,
            recirc_latency_ns=SWITCH_RECIRC_NS,
        )


@dataclass
class TopologySpec:
    """Declarative description of one fabric layout."""

    #: Canonical topology name (what ``ClusterConfig.topology`` normalises to).
    name: str
    #: One-line description shown by ``repro-netclone topologies``.
    description: str
    #: ``ctx -> Fabric`` — build the switches/links/routes of one fabric.
    make_fabric: Callable[[TopologyContext], Fabric]
    #: Alternative lookup names.
    aliases: Tuple[str, ...] = ()
    #: Module that registered the spec (filled in by ``register_topology``).
    module: Optional[str] = None


_IMPL = PluginRegistry(
    kind="topology",
    spec_type=TopologySpec,
    plugin_modules=PLUGIN_MODULES,
    factory_field="make_fabric",
)
#: Shared with :class:`PluginRegistry` (tests reset entries here).
_loaded_plugins = _IMPL._loaded_plugins


def register_topology(spec_or_factory):
    """Register a topology; usable as a decorator or called directly.

    Accepts either a :class:`TopologySpec` or a zero-argument factory
    returning one (the decorator form).  Duplicate names or aliases
    raise :class:`~repro.errors.ExperimentError`.
    """
    return _IMPL.register(spec_or_factory)


def unregister_topology(name: str) -> None:
    """Remove a topology (and its aliases); mainly for tests."""
    _IMPL.unregister(name)


def get_topology(name: str) -> TopologySpec:
    """The spec registered under *name* (aliases resolve)."""
    return _IMPL.get(name)


def parse_topology(value: str) -> Tuple[str, Dict[str, Any]]:
    """Split ``"name:key=val,key=val"`` into (canonical name, params).

    The bare form (``"spine_leaf"``, or any alias) yields an empty
    param dict.  Numeric values are coerced, so
    ``"spine_leaf:spines=4,spine_policy=least-loaded"`` parses to
    ``("spine_leaf", {"spines": 4, "spine_policy": "least-loaded"})``.
    Unknown topology names and malformed params raise
    :class:`~repro.errors.ExperimentError`.
    """
    name, params = parse_plugin_params(value, "topology")
    return get_topology(name).name, params


def format_topology(name: str, params: Dict[str, Any]) -> str:
    """The inverse of :func:`parse_topology` (stable param order)."""
    return format_plugin_params(name, params)


def canonical_topology(value: str) -> str:
    """*value* with the name de-aliased and params in canonical order.

    Validates as a side effect: unknown names and malformed params
    raise.  Used by the CLI and panel-keyed harnesses so one spelling
    of ``"spine_leaf:spines=4,..."`` exists everywhere.
    """
    return format_topology(*parse_topology(value))


def topology_names() -> Tuple[str, ...]:
    """Canonical names of every registered topology, in registration order."""
    return _IMPL.names()


def iter_topologies() -> List[TopologySpec]:
    """Every registered spec, in registration order."""
    return _IMPL.specs()


def describe_topologies() -> List[str]:
    """``name — description`` lines (aliases in parentheses)."""
    return _IMPL.describe()


def registered_modules() -> Tuple[str, ...]:
    """Modules that registered topologies (for sweep worker re-imports)."""
    return _IMPL.registered_modules()


# ----------------------------------------------------------------------
# Built-in fabrics
# ----------------------------------------------------------------------
def _check_params(params: Dict[str, Any], known: Tuple[str, ...], topology: str) -> None:
    """Reject unknown builder knobs.

    A typoed key (``spine=4``, ``trunk_bandwidth_gbps=...``) would
    otherwise be dropped by ``params.get`` and the experiment would
    silently run at the defaults while reporting the parameters the
    user typed.
    """
    from repro.errors import ExperimentError

    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ExperimentError(
            f"unknown {topology} parameter(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )


def _strict_int(value: Any) -> int:
    """``int()`` that refuses to truncate (``2.5`` raises, ``2.0`` is 2)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _param(params: Dict[str, Any], key: str, default: Any, cast) -> Any:
    """One builder knob, cast with a diagnosable error.

    An uncastable value ("spines=two") or a silently-lossy one
    ("racks=2.5") raises ExperimentError naming the parameter, instead
    of a raw ValueError from inside a cluster build (possibly deep in
    a sweep worker process) or an experiment quietly running different
    parameters than it reports.
    """
    from repro.errors import ExperimentError

    value = params.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError):
        kind = "int" if cast is _strict_int else cast.__name__
        raise ExperimentError(
            f"topology parameter {key}={value!r} must be {kind}"
        ) from None


def _star_fabric(ctx: TopologyContext) -> Fabric:
    _check_params(ctx.params, (), "star")
    return SingleRackFabric(ctx.sim, ctx.make_switch)


def _two_rack_fabric(ctx: TopologyContext) -> Fabric:
    params = ctx.params
    _check_params(
        params,
        ("client_rack", "server_rack", "coordinator_rack",
         "trunk_propagation_ns", "trunk_bandwidth_bps"),
        "two_rack",
    )
    return TwoRackFabric(
        ctx.sim,
        ctx.make_switch,
        client_rack=_param(params, "client_rack", 0, _strict_int),
        server_rack=_param(params, "server_rack", 1, _strict_int),
        # None means "with the clients" and must pass through uncast.
        coordinator_rack=(
            None
            if params.get("coordinator_rack") is None
            else _param(params, "coordinator_rack", 0, _strict_int)
        ),
        trunk_propagation_ns=_param(params, "trunk_propagation_ns", 1000, _strict_int),
        trunk_bandwidth_bps=_param(params, "trunk_bandwidth_bps", 400e9, float),
    )


def _spine_leaf_fabric(ctx: TopologyContext) -> Fabric:
    params = ctx.params
    _check_params(
        params,
        ("racks", "spines", "trunk_propagation_ns", "trunk_bandwidth_bps",
         "spine_policy", "flowlet_gap_ns"),
        "spine_leaf",
    )
    policy = str(params.get("spine_policy", "ecmp"))
    if policy not in spine_policy_names():
        from repro.errors import ExperimentError

        raise ExperimentError(
            f"topology parameter spine_policy={policy!r} must be one of: "
            f"{', '.join(sorted(spine_policy_names()))}"
        )
    return SpineLeafFabric(
        ctx.sim,
        ctx.make_switch,
        racks=_param(params, "racks", 2, _strict_int),
        spines=_param(params, "spines", 2, _strict_int),
        trunk_propagation_ns=_param(params, "trunk_propagation_ns", 1000, _strict_int),
        trunk_bandwidth_bps=_param(params, "trunk_bandwidth_bps", 400e9, float),
        spine_policy=policy,
        flowlet_gap_ns=_param(params, "flowlet_gap_ns", 100_000, _strict_int),
    )


register_topology(
    TopologySpec(
        name="star",
        description="single rack: one ToR, every host a cable away (§5.1.1)",
        make_fabric=_star_fabric,
        aliases=("single-rack", "1rack"),
        module=__name__,
    )
)

register_topology(
    TopologySpec(
        name="two_rack",
        description="client rack + server rack joined by a trunk (§3.7)",
        make_fabric=_two_rack_fabric,
        aliases=("two-rack", "2rack"),
        module=__name__,
    )
)

register_topology(
    TopologySpec(
        name="spine_leaf",
        description=(
            "racks×spines Clos fabric; params: racks, spines, spine_policy "
            "(ecmp|least-loaded|flowlet), trunk_bandwidth_bps (§3.7)"
        ),
        make_fabric=_spine_leaf_fabric,
        aliases=("spine-leaf", "clos"),
        module=__name__,
    )
)
