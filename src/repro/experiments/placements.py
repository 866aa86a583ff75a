"""Placement plugin registry.

Schemes decide *what* runs, topologies decide what it runs *on*;
placements decide **where request redundancy lands**: which candidate
server pairs exist in each ToR's group table (§3.3), and therefore
whether a clone stays inside its rack or crosses a trunk.  A
:class:`PlacementSpec` names a factory that turns free-form parameters
into a :class:`~repro.core.placement.PlacementPolicy`; :data:`PLACEMENTS`
maps placement names and aliases to specs on the same
:class:`~repro.experiments.plugin_registry.PluginRegistry` as the
scheme and topology axes, so
:class:`~repro.experiments.common.Cluster` composes any scheme with
any topology *and* any placement.

Registering a placement::

    from repro.core.placement import PlacementPolicy
    from repro.experiments.placements import PLACEMENTS, PlacementSpec

    @PLACEMENTS.register
    def _my_placement() -> PlacementSpec:
        return PlacementSpec(
            name="my-placement",
            description="one line for `repro-netclone placements`",
            make_policy=lambda params: MyPolicy(**params),
        )

Factories receive the merged ``ClusterConfig.placement_params`` /
inline CLI params (``--placement rack-weighted:p=0.7``) and must
reject unknown or out-of-range values with a diagnosable
:class:`~repro.errors.ExperimentError` (``PLACEMENTS.check_params``
rejects unknown keys) — a typo must never silently run ``global``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.placement import (
    GlobalPlacement,
    PlacementPolicy,
    RackLocalPlacement,
    RackWeightedPlacement,
)
from repro.errors import ExperimentError
from repro.experiments.plugin_registry import PluginRegistry

__all__ = ["PLACEMENTS", "PlacementSpec"]


@dataclass
class PlacementSpec:
    """Declarative description of one placement policy."""

    #: Canonical placement name (what ``ClusterConfig.placement`` normalises to).
    name: str
    #: One-line description shown by ``repro-netclone placements``.
    description: str
    #: ``params -> PlacementPolicy`` — build one policy from the merged
    #: parameter dict, validating every knob.
    make_policy: Callable[[Dict[str, Any]], PlacementPolicy]
    #: Alternative lookup names.
    aliases: Tuple[str, ...] = ()
    #: Module that registered the spec (filled in by ``PLACEMENTS.register``).
    module: Optional[str] = None


#: Every registered placement, by canonical name and alias.
PLACEMENTS = PluginRegistry(
    kind="placement", spec_type=PlacementSpec, factory_field="make_policy"
)


# ----------------------------------------------------------------------
# Built-in policies
# ----------------------------------------------------------------------
def _global_policy(params: Dict[str, Any]) -> PlacementPolicy:
    PLACEMENTS.check_params(params, (), "global placement")
    return GlobalPlacement()


def _rack_local_policy(params: Dict[str, Any]) -> PlacementPolicy:
    PLACEMENTS.check_params(params, (), "rack-local placement")
    return RackLocalPlacement()


def _rack_weighted_policy(params: Dict[str, Any]) -> PlacementPolicy:
    PLACEMENTS.check_params(params, ("p",), "rack-weighted placement")
    p = params.get("p", 0.5)
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise ExperimentError(
            f"placement parameter p={p!r} must be a probability in [0, 1]"
        ) from None
    return RackWeightedPlacement(p=p)


PLACEMENTS.register(
    PlacementSpec(
        name="global",
        description="every ordered server pair on every ToR — the paper's "
        "single-rack construction, bit-identical to the seed (§3.3)",
        make_policy=_global_policy,
        aliases=("uniform",),
        module=__name__,
    )
)

PLACEMENTS.register(
    PlacementSpec(
        name="rack-local",
        description="clone within the client's rack; falls back to global "
        "pairs when a rack has fewer than two live servers",
        make_policy=_rack_local_policy,
        aliases=("local",),
        module=__name__,
    )
)

PLACEMENTS.register(
    PlacementSpec(
        name="rack-weighted",
        description="rack-local with probability p (default 0.5), global "
        "otherwise — the locality-sweep knob; param: p",
        make_policy=_rack_weighted_policy,
        aliases=("weighted",),
        module=__name__,
    )
)
