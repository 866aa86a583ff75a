"""Placement policies: rack-aware candidate-pair construction (§3.3).

The paper's group table names ordered pairs of candidate servers; which
pairs exist is inherently a *placement* decision.  The seed code had a
single global construction (every ordered pair over every server, see
:mod:`repro.core.groups`), which on a multi-rack fabric sends almost
every clone across a trunk.  This module turns that decision into a
policy object consulted **once per ToR** at cluster build time:

* :class:`GlobalPlacement` — every ordered pair over every live
  server, bit-identical to the seed construction;
* :class:`RackLocalPlacement` — only pairs inside the ToR's own rack,
  so clones never cross a trunk; racks with fewer than two live
  servers fall back to the global pair set;
* :class:`RackWeightedPlacement` — a probabilistic mix: clients draw a
  rack-local pair with probability ``p`` and a global pair otherwise,
  the knob locality sweeps turn.

A policy reduces a :class:`PlacementContext` (which rack each server
lives in) to one :class:`GroupTable` per ToR: the ordered pairs the
switch installs plus the sampling rule the rack's clients use to draw
group IDs.  Policies are selected by name through the registry in
:mod:`repro.experiments.placements` (``ClusterConfig.placement``,
``--placement``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.groups import ordered_pairs
from repro.errors import ExperimentError

__all__ = [
    "GlobalPlacement",
    "GroupTable",
    "PlacementContext",
    "PlacementPolicy",
    "RackLocalPlacement",
    "RackWeightedPlacement",
]


@dataclass(frozen=True)
class GroupTable:
    """One ToR's group table plus the client-side sampling rule.

    ``pairs[g]`` is the ordered candidate pair group ID *g* maps to —
    exactly what the switch installs.  ``split`` divides the table
    into a *preferred* section ``pairs[:split]`` and a *fallback*
    section ``pairs[split:]``; clients draw from the preferred section
    with probability ``p_local`` and uniformly from the fallback
    otherwise.  ``split == len(pairs)`` marks a pure uniform table
    (one ``randrange`` per draw — the seed client's exact RNG
    behaviour, which the ``global`` bit-identity golden tests pin).

    ``epoch`` is the control-plane generation the table belongs to:
    assembly-time tables are epoch 0 and every §3.6 failure/recovery
    rebuild stamps the next epoch on the tables it pushes
    (:meth:`with_epoch`).  Programs and clients report the epoch they
    hold, so a rebuild that happens to keep the group count is still
    visible as a change (scenario checkpoints record both).
    """

    pairs: Tuple[Tuple[int, int], ...]
    split: int
    p_local: float = 1.0
    epoch: int = 0

    def __post_init__(self) -> None:
        if len(self.pairs) < 2:
            raise ExperimentError(
                "a group table needs at least two groups (one server pair, "
                "both orders)"
            )
        if not 0 <= self.split <= len(self.pairs):
            raise ExperimentError(
                f"group-table split {self.split} outside [0, {len(self.pairs)}]"
            )
        if not 0.0 <= self.p_local <= 1.0:
            raise ExperimentError(
                f"group-table p_local {self.p_local} outside [0, 1]"
            )
        if self.epoch < 0:
            raise ExperimentError(f"group-table epoch {self.epoch} is negative")

    def with_epoch(self, epoch: int) -> "GroupTable":
        """This table stamped as control-plane generation *epoch*."""
        return replace(self, epoch=epoch)

    @property
    def num_groups(self) -> int:
        """Dense group-ID space size (what the switch installs)."""
        return len(self.pairs)

    @property
    def is_uniform(self) -> bool:
        """Whether every draw is uniform over the whole table."""
        return self.split >= len(self.pairs) or self.split <= 0

    def sample(self, rng: Any) -> int:
        """Draw one group ID with this table's locality mix.

        Uniform tables spend exactly one ``rng.randrange`` call, so a
        ``global`` table replays the seed client's RNG stream
        bit-for-bit; sectioned tables spend one ``rng.random`` to pick
        the section plus one ``randrange`` inside it.
        """
        total = len(self.pairs)
        if self.is_uniform:
            return rng.randrange(total)
        if rng.random() < self.p_local:
            return rng.randrange(self.split)
        return self.split + rng.randrange(total - self.split)


@dataclass(frozen=True)
class PlacementContext:
    """What a placement policy may know when building one ToR's table.

    ``server_racks[s]`` is the rack of server ID *s* (the fabric's
    role placement map, see :meth:`repro.net.topology.Fabric.racks_of`);
    ``live`` optionally masks out failed servers — a rack needs two
    *live* servers before rack-local pairs make sense.
    """

    server_racks: Tuple[int, ...]
    num_racks: int = 1
    live: Optional[Tuple[bool, ...]] = None

    def __post_init__(self) -> None:
        if self.live is not None and len(self.live) != len(self.server_racks):
            raise ExperimentError(
                f"{len(self.live)} liveness flags for "
                f"{len(self.server_racks)} servers"
            )

    def live_ids(self) -> List[int]:
        """Every live server ID, in ID order."""
        return [
            server
            for server in range(len(self.server_racks))
            if self.live is None or self.live[server]
        ]

    # -- live-mask derivation (what §3.6 failure handling flips) -------
    def live_mask(self) -> Tuple[bool, ...]:
        """The liveness mask, expanded (``live=None`` means all live)."""
        if self.live is None:
            return (True,) * len(self.server_racks)
        return self.live

    def with_live(self, live: Sequence[bool]) -> "PlacementContext":
        """This context with the liveness mask replaced by *live*."""
        return replace(self, live=tuple(bool(flag) for flag in live))

    def mark_dead(self, server_id: int) -> "PlacementContext":
        """This context with *server_id*'s live bit cleared."""
        return self._flipped(server_id, False)

    def mark_live(self, server_id: int) -> "PlacementContext":
        """This context with *server_id*'s live bit set (recovery)."""
        return self._flipped(server_id, True)

    def _flipped(self, server_id: int, alive: bool) -> "PlacementContext":
        if not 0 <= server_id < len(self.server_racks):
            raise ExperimentError(
                f"server {server_id} outside the placement map "
                f"(0..{len(self.server_racks) - 1})"
            )
        mask = list(self.live_mask())
        mask[server_id] = alive
        return self.with_live(mask)

    def rack_members(self, rack: int) -> List[int]:
        """Live server IDs placed in *rack*, in ID order."""
        return [s for s in self.live_ids() if self.server_racks[s] == rack]


class PlacementPolicy:
    """Builds one :class:`GroupTable` per ToR from a placement map."""

    #: Registry key (``global``, ``rack-local``, ``rack-weighted``).
    name: str = ""

    def group_table(self, ctx: PlacementContext, rack: int) -> GroupTable:
        """The table ToR *rack* should install."""
        raise NotImplementedError

    def _global_table(self, ctx: PlacementContext) -> GroupTable:
        """The seed construction: every ordered pair of live servers."""
        pairs = tuple(ordered_pairs(ctx.live_ids()))
        return GroupTable(pairs=pairs, split=len(pairs))


class GlobalPlacement(PlacementPolicy):
    """The seed behaviour: every ToR installs the full global table."""

    name = "global"

    def group_table(self, ctx: PlacementContext, rack: int) -> GroupTable:
        return self._global_table(ctx)


class RackLocalPlacement(PlacementPolicy):
    """Clone within the ToR's rack; trunk-free redundancy.

    A rack with fewer than two live servers cannot host a pair, so its
    ToR falls back to the full global table (requests still complete,
    they just pay the trunk crossing the policy otherwise avoids).
    """

    name = "rack-local"

    def group_table(self, ctx: PlacementContext, rack: int) -> GroupTable:
        members = ctx.rack_members(rack)
        if len(members) < 2:
            return self._global_table(ctx)
        pairs = tuple(ordered_pairs(members))
        return GroupTable(pairs=pairs, split=len(pairs))


class RackWeightedPlacement(PlacementPolicy):
    """Rack-local with probability ``p``, global otherwise.

    The table carries both sections — rack-local pairs first, the full
    global set after — and clients mix between them, so one knob sweeps
    smoothly from ``global`` (p=0) to ``rack-local`` (p=1).  Racks
    with fewer than two live servers degrade to the global table, like
    :class:`RackLocalPlacement`.
    """

    name = "rack-weighted"

    def __init__(self, p: float = 0.5):
        if not 0.0 <= p <= 1.0:
            raise ExperimentError(
                f"placement parameter p={p!r} must be a probability in [0, 1]"
            )
        self.p = float(p)

    def group_table(self, ctx: PlacementContext, rack: int) -> GroupTable:
        members = ctx.rack_members(rack)
        if len(members) < 2 or self.p <= 0.0:
            return self._global_table(ctx)
        local = tuple(ordered_pairs(members))
        if self.p >= 1.0:
            return GroupTable(pairs=local, split=len(local))
        table = local + tuple(ordered_pairs(ctx.live_ids()))
        return GroupTable(pairs=table, split=len(local), p_local=self.p)
