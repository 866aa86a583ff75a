"""The NetClone client.

NetClone clients do not know server addresses (§3.3): each request is
addressed to a virtual service IP with a randomly chosen *group ID*
(picking the candidate pair) and a randomly chosen *filter-table
index*; the switch does the rest.  Both the request and its responses
carry the reserved NetClone UDP port so the ToR applies the custom
logic in both directions.

Group IDs are drawn from the client's **local ToR's** group table
(:class:`~repro.core.placement.GroupTable`): on a multi-rack fabric
each ToR may install a different, placement-aware pair set, and the
table also carries the sampling rule (uniform, or a rack-local /
global probability mix).  A §3.6 rebuild swaps the table through
:meth:`NetCloneClient.install_group_table`, the same call the switch
program takes, so client and switch never disagree on the pair set.

:meth:`NetCloneClient.build_packets` below is the reference.  With the
C core live (``USING_CCORE``) the class names the C twin,
``_ccore.ClientCore._netclone_packets``, instead: it samples a
``GroupTable`` and draws the filter-table index from a
``random.Random`` in C (calling ``GroupTable.sample`` and the RNG's
methods for any other table or RNG class) and builds the header in
place, with the same draws in the same order.
"""

from __future__ import annotations

from typing import Any, List

from repro.apps.client import OpenLoopClient
from repro.core.constants import (
    CLO_NEVER_CLONE,
    CLO_NOT_CLONED,
    MSG_REQ,
    NETCLONE_UDP_PORT,
    VIRTUAL_SERVICE_IP,
)
from repro.core.header import NetCloneHeader
from repro.core.placement import GroupTable
from repro.errors import ExperimentError
from repro.net.packet import Packet
from repro.sim.core import USING_CCORE

if USING_CCORE:
    from repro.sim import _ccore

    # The classes the C build makes headers of and replays samples of.
    _ccore.configure_client(NetCloneHeader, GroupTable)

__all__ = ["NetCloneClient"]


class NetCloneClient(OpenLoopClient):
    """Open-loop client speaking the NetClone protocol."""

    def __init__(
        self,
        *args: Any,
        group_table: GroupTable,
        num_filter_tables: int = 2,
        **kwargs: Any,
    ):
        super().__init__(*args, **kwargs)
        if num_filter_tables < 1:
            raise ExperimentError("need at least one filter table")
        self.install_group_table(group_table)
        self.num_filter_tables = num_filter_tables

    # -- control-plane table swap --------------------------------------
    def install_group_table(self, table: GroupTable) -> None:
        """Atomically swap in a (control-plane pushed) group table.

        This is the update :class:`~repro.core.failures.ServerFailureHandler`
        pushes after a §3.6 rebuild; the table carries its own group
        count and epoch, so nothing else has to change with it.
        """
        if not isinstance(table, GroupTable):
            raise ExperimentError(
                f"expected a GroupTable, got {type(table).__name__}"
            )
        self._group_table = table
        # Pre-drawn arrivals hold group IDs sampled from the old table.
        self._flush_arrivals()

    @property
    def group_table(self) -> GroupTable:
        """The local ToR's table this client currently samples from."""
        return self._group_table

    @property
    def num_groups(self) -> int:
        """Group-ID space size of the current table."""
        return self._group_table.num_groups

    def build_packets(self, request: Any) -> List[Packet]:
        # Positional, in wire order: a keyword call to a class builds a
        # kwargs dict for every header.
        header = NetCloneHeader(
            MSG_REQ,  # msg_type
            0,  # req_id: assigned by the switch
            self._group_table.sample(self.rng),  # grp, from the local ToR's table
            0,  # sid
            0,  # state
            CLO_NEVER_CLONE if getattr(request, "write", False) else CLO_NOT_CLONED,
            self.rng.randrange(self.num_filter_tables),  # idx
            0,  # swid
        )
        size = self._fixed_req_size
        if size is None:
            size = self.workload.request_size(request)
        size += NetCloneHeader.WIRE_SIZE
        return [
            self.packet_pool.acquire(
                self.ip, VIRTUAL_SERVICE_IP, NETCLONE_UDP_PORT, NETCLONE_UDP_PORT,
                size, request, header,
            )
        ]

    if USING_CCORE:
        # In this class's own dict on either engine, so a class-level
        # wrapper of ``NetCloneClient.build_packets`` sees every build.
        build_packets = _ccore.ClientCore._netclone_packets  # noqa: F811
