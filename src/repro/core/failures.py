"""Server-failure handling (§3.6), placement-consistent.

When a worker server dies, performance degrades until the operator
(or a health monitor) removes it: "The switch control plane can
quickly remove the failed server from the list of potential
destination servers by updating relevant tables (e.g., the group table
and the address table) in the switch data plane and the number of
groups on the client side."

:class:`ServerFailureHandler` implements that flow on top of the
:class:`~repro.switchsim.controlplane.ControlPlane` — and, on a
multi-rack fabric, keeps it consistent with the cluster's placement
policy (:mod:`repro.core.placement`).  One removal (or restoration)
is one control-plane operation that:

1. flips the server's bit in the :class:`PlacementContext` live mask
   and re-derives **one group table per ToR** via
   ``policy.group_table(ctx, rack)`` — so a ``rack-local`` deployment
   stays rack-local, per ToR, across failures, and a rack left with
   fewer than two live servers falls back to the global pair set
   (returning to rack-local pairs on :meth:`restore_server`);
2. installs each rack's table on *its own* ToR program and removes
   (or re-installs) the server's address-table entry fabric-wide;
3. pushes the new epoch-stamped
   :class:`~repro.core.placement.GroupTable` objects to that rack's
   clients through ``install_group_table`` — the call the ToR programs
   take — so a client's group count always travels with its pairs.

Under ``global`` placement on a single rack this is the seed's
rebuild: one uniform table over the survivors, whose draws spend one
``randrange`` each, exactly the seed client's RNG stream.

Until the control-plane update lands, requests whose group includes
the dead server are lost — the transient degradation the paper
describes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.core.placement import (
    GroupTable,
    PlacementContext,
    PlacementPolicy,
)
from repro.errors import ExperimentError
from repro.switchsim.controlplane import ControlPlane

__all__ = ["ServerFailureHandler"]


class ServerFailureHandler:
    """Removes (and restores) servers in a running NetClone deployment.

    Built by :meth:`repro.experiments.common.Cluster.failure_handler`.

    :param control_plane: the switch control plane rebuilds run on.
    :param clients: every client to push rebuilt tables to.
    :param programs: per-ToR switch programs in rack order.
    :param placement: the cluster's
        :class:`~repro.core.placement.PlacementPolicy`.
    :param context: the :class:`PlacementContext` mapping server IDs
        to racks.
    :param client_racks: rack of each entry in *clients*.
    """

    def __init__(
        self,
        control_plane: ControlPlane,
        clients: Sequence[Any] = (),
        *,
        programs: Sequence[Any],
        placement: PlacementPolicy,
        context: PlacementContext,
        client_racks: Sequence[int],
    ):
        self.programs: List[Any] = list(programs)
        self.control_plane = control_plane
        self.clients = list(clients)
        self.placement = placement
        # server_id -> ip for the servers currently in rotation.
        self.active: Dict[int, int] = dict(self.programs[0].addr_table.entries())
        # server_id -> ip for servers this handler removed (restorable).
        self._removed: Dict[int, int] = {}
        if len(context.server_racks) <= max(self.active, default=0):
            raise ExperimentError(
                f"placement map covers {len(context.server_racks)} servers "
                f"but the address table holds ID {max(self.active, default=0)}"
            )
        self._base_context = context
        # A server can be live only if the provided mask agrees AND it
        # is actually in the address table.
        provided = context.live_mask()
        self._live: List[bool] = [
            bool(provided[sid]) and sid in self.active
            for sid in range(len(context.server_racks))
        ]
        self._client_racks = [int(rack) for rack in client_racks]
        if len(self._client_racks) != len(self.clients):
            raise ExperimentError(
                f"{len(self._client_racks)} client racks for "
                f"{len(self.clients)} clients"
            )
        for rack in self._client_racks:
            if not 0 <= rack < len(self.programs):
                raise ExperimentError(
                    f"client rack {rack} has no ToR program "
                    f"(fabric has {len(self.programs)})"
                )
        for client in self.clients:
            if not callable(getattr(client, "install_group_table", None)):
                raise ExperimentError(
                    f"client {getattr(client, 'name', client)!r} has no "
                    "install_group_table(); a rebuild could not stop it "
                    "from sampling dead server pairs"
                )
        #: Control-plane table generation; rebuilds stamp epoch+1 on
        #: every table they push (assembly-time tables are epoch 0).
        self.epoch = 0
        #: Per-ToR tables installed by the last rebuild (rack order);
        #: empty until the first failure/recovery operation applies.
        self.tables: List[GroupTable] = []

    # ------------------------------------------------------------------
    def remove_server(self, server_id: int) -> int:
        """Schedule removal of *server_id*; returns the apply time (ns).

        The rebuild is submitted as one control-plane operation: table
        updates on a real switch are batched by the agent, and what
        matters for the model is the (slow) control-plane latency
        before any of it takes effect.

        The guard is fabric-wide: cloning needs two live servers
        *somewhere*, so removals stop when only two remain.  A single
        **rack** dropping below two live servers is legal — its ToR
        falls back to the placement policy's global pair set until
        :meth:`restore_server` brings a member back.
        """
        if server_id not in self.active:
            raise ExperimentError(f"server {server_id} is not in rotation")
        # Count *live* servers, not address-table entries: a context
        # built with some live bits already cleared must fail here,
        # diagnosably, not inside the deferred rebuild callback.
        remaining = [
            sid for sid, alive in enumerate(self._live)
            if alive and sid != server_id
        ]
        if len(remaining) < 2:
            raise ExperimentError(
                "cannot drop below two live servers fabric-wide (cloning "
                f"needs a pair); only {remaining} would remain"
            )
        self._removed[server_id] = self.active.pop(server_id)
        self._live[server_id] = False
        return self.control_plane.submit(self._apply_removal, server_id)

    def restore_server(self, server_id: int) -> int:
        """Schedule recovery of *server_id*; returns the apply time (ns).

        The symmetric operation: the server's address-table entry is
        re-installed fabric-wide, its live bit set, and every ToR's
        group table re-derived — a rack that had fallen back to global
        pairs returns to its placement-native table.
        """
        if server_id in self.active:
            raise ExperimentError(f"server {server_id} is already in rotation")
        if server_id not in self._removed:
            raise ExperimentError(
                f"server {server_id} was never removed by this handler"
            )
        ip = self._removed.pop(server_id)
        self.active[server_id] = ip
        self._live[server_id] = True
        return self.control_plane.submit(self._apply_restore, server_id, ip)

    # ------------------------------------------------------------------
    def push_tables(self) -> int:
        """Schedule a rolling table push; returns the apply time (ns).

        The maintenance half of the §3.6 control-plane story: re-derive
        and install every ToR's placement-built group table (and push
        the fresh epoch to that rack's clients) *without* any liveness
        change — what an operator does after re-weighting a policy or
        as a periodic anti-entropy sweep.  Chaos scenarios use it to
        race table pushes against failures and load surges: clients
        must swap epochs atomically with live pre-drawn packets in
        flight.
        """
        return self.control_plane.submit(self._rebuild_group_tables)

    def drain_rack(self, rack: int) -> List[int]:
        """Hitlessly remove every live server in *rack*; returns their IDs.

        A drain is control-plane only — the servers stay powered on and
        answer what is already queued, but every ToR's group table is
        rebuilt without them, so no *new* request is steered their way
        (rack maintenance, the §3.6 removal path applied rack-wide).
        The fabric-wide two-live-server guard is checked up front so a
        drain either schedules completely or not at all.
        """
        victims = [
            sid
            for sid, home in enumerate(self._base_context.server_racks)
            if home == rack and self._live[sid]
        ]
        if not victims:
            raise ExperimentError(f"rack {rack} has no live servers to drain")
        survivors = [
            sid for sid, alive in enumerate(self._live)
            if alive and sid not in victims
        ]
        if len(survivors) < 2:
            raise ExperimentError(
                f"draining rack {rack} would leave {survivors} live "
                "fabric-wide; cloning needs at least two servers"
            )
        for sid in victims:
            self.remove_server(sid)
        return victims

    def restore_rack(self, rack: int) -> List[int]:
        """Restore every server of *rack* removed by this handler."""
        victims = [
            sid
            for sid in self.removed_server_ids
            if self._base_context.server_racks[sid] == rack
        ]
        if not victims:
            raise ExperimentError(
                f"rack {rack} has no servers removed by this handler"
            )
        for sid in victims:
            self.restore_server(sid)
        return victims

    # ------------------------------------------------------------------
    def _apply_removal(self, server_id: int) -> None:
        self._rebuild_group_tables()
        for program in self.programs:
            program.addr_table.remove(server_id)

    def _apply_restore(self, server_id: int, ip: int) -> None:
        for program in self.programs:
            program.addr_table.install(server_id, ip)
        self._rebuild_group_tables()

    def _rebuild_group_tables(self) -> None:
        """Re-derive and install one placement-built table per ToR."""
        self.epoch += 1
        ctx = self._base_context.with_live(self._live)
        self.tables = []
        for rack, program in enumerate(self.programs):
            table = self.placement.group_table(ctx, rack).with_epoch(self.epoch)
            program.install_group_table(table)
            self.tables.append(table)
        for client, rack in zip(self.clients, self._client_racks):
            table = self.tables[rack]
            client.install_group_table(table)

    @property
    def active_server_ids(self) -> List[int]:
        """Server IDs still in rotation."""
        return sorted(self.active)

    @property
    def removed_server_ids(self) -> List[int]:
        """Server IDs removed by this handler and not yet restored."""
        return sorted(self._removed)
