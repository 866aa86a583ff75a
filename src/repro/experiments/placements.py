"""Placement plugin registry.

Schemes decide *what* runs, topologies decide what it runs *on*;
placements decide **where request redundancy lands**: which candidate
server pairs exist in each ToR's group table (§3.3), and therefore
whether a clone stays inside its rack or crosses a trunk.  A
:class:`PlacementSpec` names a factory that turns its declared parameters
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
            make_policy=MyPolicy,
            params={"p": (fraction(), 0.5)},
        )

``ClusterConfig`` resolves the merged ``placement_params`` / inline CLI
params (``--placement rack-weighted:p=0.7``) through the declared
``params`` table (:mod:`repro.coerce`) and calls ``make_policy(**params)``:
a typo or an out-of-range value raises, never silently runs ``global``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.core.placement import (
    GlobalPlacement,
    PlacementPolicy,
    RackLocalPlacement,
    RackWeightedPlacement,
)
from repro.coerce import Fields, fraction
from repro.experiments.plugin_registry import PluginRegistry

__all__ = ["PLACEMENTS", "PlacementSpec"]


@dataclass
class PlacementSpec:
    """Declarative description of one placement policy."""

    #: Canonical placement name (what ``ClusterConfig.placement`` normalises to).
    name: str
    #: One-line description shown by ``repro-netclone placements``.
    description: str
    #: ``**params -> PlacementPolicy`` — build one policy from the
    #: resolved parameters.
    make_policy: Callable[..., PlacementPolicy]
    #: Alternative lookup names.
    aliases: Tuple[str, ...] = ()
    #: Declared knobs: ``{key: (coercer, default)}``.
    params: Fields = field(default_factory=dict)
    #: Module that registered the spec (filled in by ``PLACEMENTS.register``).
    module: Optional[str] = None


#: Every registered placement, by canonical name and alias.
PLACEMENTS = PluginRegistry(
    kind="placement", spec_type=PlacementSpec, factory_field="make_policy"
)


PLACEMENTS.register(
    PlacementSpec(
        name="global",
        description="every ordered server pair on every ToR — the paper's "
        "single-rack construction, bit-identical to the seed (§3.3)",
        make_policy=GlobalPlacement,
        aliases=("uniform",),
        module=__name__,
    )
)

PLACEMENTS.register(
    PlacementSpec(
        name="rack-local",
        description="clone within the client's rack; falls back to global "
        "pairs when a rack has fewer than two live servers",
        make_policy=RackLocalPlacement,
        aliases=("local",),
        module=__name__,
    )
)

PLACEMENTS.register(
    PlacementSpec(
        name="rack-weighted",
        description="rack-local with probability p (default 0.5), global "
        "otherwise — the locality-sweep knob; param: p",
        make_policy=RackWeightedPlacement,
        aliases=("weighted",),
        params={"p": (fraction(), 0.5)},
        module=__name__,
    )
)
