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
"""

from __future__ import annotations

from typing import Any, List

from repro.apps.client import OpenLoopClient
from repro.core.constants import (
    CLO_NOT_CLONED,
    MSG_REQ,
    NETCLONE_UDP_PORT,
    VIRTUAL_SERVICE_IP,
)
from repro.core.header import NetCloneHeader
from repro.core.placement import GroupTable
from repro.core.program import CLO_NEVER_CLONE
from repro.errors import ExperimentError
from repro.net.packet import Packet

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

    def _pick_group(self) -> int:
        """One group ID from the local ToR's table."""
        return self._group_table.sample(self.rng)

    def build_packets(self, request: Any) -> List[Packet]:
        header = NetCloneHeader(
            msg_type=MSG_REQ,
            req_id=0,  # assigned by the switch
            grp=self._pick_group(),
            sid=0,
            state=0,
            clo=CLO_NEVER_CLONE if getattr(request, "write", False) else CLO_NOT_CLONED,
            idx=self.rng.randrange(self.num_filter_tables),
            swid=0,
        )
        size = self.workload.request_size(request) + NetCloneHeader.WIRE_SIZE
        pool = self.packet_pool
        if pool is not None:
            packet = pool.acquire(
                self.ip, VIRTUAL_SERVICE_IP, NETCLONE_UDP_PORT, NETCLONE_UDP_PORT,
                size, request, header,
            )
        else:
            packet = Packet(
                src=self.ip,
                dst=VIRTUAL_SERVICE_IP,
                sport=NETCLONE_UDP_PORT,
                dport=NETCLONE_UDP_PORT,
                size=size,
                payload=request,
                nc=header,
            )
        return [packet]
