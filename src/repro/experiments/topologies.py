"""Topology plugin registry.

Schemes decide *what* runs on the fabric; topologies decide what the
fabric *is*.  A :class:`TopologySpec` names a fabric builder that,
given a build context (simulator + :class:`ClusterConfig`), produces
the switches, links, routes and host-attachment hooks of one fabric
(see :class:`repro.net.topology.Fabric`).  :data:`TOPOLOGIES` maps
topology names and aliases to specs on the same
:class:`~repro.experiments.plugin_registry.PluginRegistry` as the
scheme axis, so :class:`~repro.experiments.common.Cluster` composes
any registered scheme with any registered topology — the §3.7 SWID
gate makes the scheme's switch program safe to install per ToR.

Registering a topology::

    from repro.experiments.topologies import TOPOLOGIES, TopologySpec

    @TOPOLOGIES.register
    def _my_fabric() -> TopologySpec:
        return TopologySpec(
            name="my-fabric",
            description="one line for `repro-netclone topologies`",
            make_fabric=lambda ctx: MyFabric(ctx.sim, ctx.make_switch),
        )

A spec declares its knobs as a ``params`` table (:mod:`repro.coerce`);
``ClusterConfig`` resolves ``topology_params`` through it, so a builder
reads every declared knob, typed and in range, from ``ctx.params``.

``spine_leaf``'s ``spine_policy`` knob names an entry of
:data:`SPINE_POLICIES`, whose :class:`SpinePolicySpec` wraps a
:class:`~repro.net.topology.SpinePolicy` class; a registered policy is
reachable as ``--topology spine_leaf:spine_policy=NAME``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.coerce import Fields, count, finite_float, name
from repro.experiments.plugin_registry import PluginRegistry
from repro.net.topology import (
    EcmpSpinePolicy,
    Fabric,
    FlowletSpinePolicy,
    LeastLoadedSpinePolicy,
    SingleRackFabric,
    SpineLeafFabric,
    SpinePolicy,
    TRUNK_BANDWIDTH_BPS,
    TwoRackFabric,
)

__all__ = [
    "SPINE_POLICIES",
    "SpinePolicySpec",
    "TOPOLOGIES",
    "TopologyContext",
    "TopologySpec",
]


@dataclass
class TopologyContext:
    """Build-time state handed to every :class:`TopologySpec` builder.

    ``make_switch(name)`` builds a switch, so fabric builders never
    import the switch model.
    """

    sim: Any
    config: Any

    @property
    def params(self) -> Dict[str, Any]:
        """The config's resolved ``topology_params``."""
        return self.config.topology_params

    def make_switch(self, name: str):
        from repro.switchsim.switch import ProgrammableSwitch

        return ProgrammableSwitch(self.sim, name=name)


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
    #: Declared knobs: ``{key: (coercer, default)}``.
    params: Fields = field(default_factory=dict)
    #: Module that registered the spec (filled in by ``TOPOLOGIES.register``).
    module: Optional[str] = None


#: Every registered topology, by canonical name and alias.
TOPOLOGIES = PluginRegistry(
    kind="topology", spec_type=TopologySpec, factory_field="make_fabric"
)


@dataclass
class SpinePolicySpec:
    """Declarative description of one ``spine_leaf`` spine policy."""

    #: Canonical name (the ``spine_policy`` topology parameter's value).
    name: str
    #: One-line description of the selection rule.
    description: str
    #: ``fabric -> SpinePolicy`` — usually the policy class.
    make_policy: Callable[..., SpinePolicy]
    #: Alternative lookup names.
    aliases: Tuple[str, ...] = ()
    #: Module that registered the spec (filled in by ``SPINE_POLICIES.register``).
    module: Optional[str] = None


#: Every registered spine policy, by canonical name and alias.
SPINE_POLICIES = PluginRegistry(
    kind="spine policy", spec_type=SpinePolicySpec, factory_field="make_policy"
)


# ----------------------------------------------------------------------
# Built-in fabrics
# ----------------------------------------------------------------------
def _star_fabric(ctx: TopologyContext) -> Fabric:
    return SingleRackFabric(ctx.sim, ctx.make_switch)


def _two_rack_fabric(ctx: TopologyContext) -> Fabric:
    return TwoRackFabric(ctx.sim, ctx.make_switch)


def _spine_leaf_fabric(ctx: TopologyContext) -> Fabric:
    params = ctx.params
    return SpineLeafFabric(
        ctx.sim,
        ctx.make_switch,
        racks=params["racks"],
        spines=params["spines"],
        trunk_bandwidth_bps=params["trunk_bandwidth_bps"],
        make_policy=SPINE_POLICIES.get(params["spine_policy"]).make_policy,
    )


SPINE_POLICIES.register(
    SpinePolicySpec(
        name="ecmp",
        description="each destination ip pinned to one spine (static routes)",
        make_policy=EcmpSpinePolicy,
        module=__name__,
    )
)

SPINE_POLICIES.register(
    SpinePolicySpec(
        name="least-loaded",
        description="the uplink with the shallowest backlog; ECMP wins ties",
        make_policy=LeastLoadedSpinePolicy,
        module=__name__,
    )
)

SPINE_POLICIES.register(
    SpinePolicySpec(
        name="flowlet",
        description="least-loaded, re-picked only after a 100 µs idle gap",
        make_policy=FlowletSpinePolicy,
        module=__name__,
    )
)

TOPOLOGIES.register(
    TopologySpec(
        name="star",
        description="single rack: one ToR, every host a cable away (§5.1.1)",
        make_fabric=_star_fabric,
        aliases=("single-rack", "1rack"),
        module=__name__,
    )
)

TOPOLOGIES.register(
    TopologySpec(
        name="two_rack",
        description="client rack + server rack joined by a trunk (§3.7)",
        make_fabric=_two_rack_fabric,
        aliases=("two-rack", "2rack"),
        module=__name__,
    )
)

TOPOLOGIES.register(
    TopologySpec(
        name="spine_leaf",
        description=(
            "racks×spines Clos fabric; params: racks, spines, spine_policy "
            "(ecmp|least-loaded|flowlet), trunk_bandwidth_bps (§3.7)"
        ),
        make_fabric=_spine_leaf_fabric,
        aliases=("spine-leaf", "clos"),
        params={
            "racks": (count(ge=1), 2),
            "spines": (count(ge=1), 2),
            "spine_policy": (name(), "ecmp"),
            "trunk_bandwidth_bps": (finite_float(gt=0), TRUNK_BANDWIDTH_BPS),
        },
        module=__name__,
    )
)
