"""Multi-packet messages and client-assigned request IDs (§3.7).

The base NetClone design assumes single-packet requests and responses
(90 % of microservice RPCs fit in one packet).  Section 3.7 sketches
how to go further, and this module implements that sketch:

* **Client-assigned request IDs** — multi-packet requests (and TCP
  retransmissions) need every packet of a request to share one ID, so
  the ID cannot be switch-assigned per packet.  Clients build it like
  a Lamport clock: ``(client_id << 24) | local_seq``.
* **Cloned-request table** — once the first fragment of a request is
  cloned, *every* later fragment must be cloned regardless of system
  load.  A register array keyed by a hash of the request ID remembers
  in-flight cloned requests; fragments that hit it are cloned
  unconditionally, and the first response fragment clears it.
* **Ordered filter tables** — responses may also be multi-packet; the
  server assigns filter-table index *k* to response fragment *k*, so
  each fragment is filtered independently in its own table.

Request affinity needs no new machinery: fragments reuse the group ID
chosen by the client, so the non-cloned path lands on the same first
candidate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apps.client import OpenLoopClient
from repro.core.constants import (
    CLO_CLONED_COPY,
    CLO_CLONED_ORIGINAL,
    CLO_NOT_CLONED,
    MSG_REQ,
    MSG_RESP,
    NETCLONE_UDP_PORT,
    STATE_IDLE,
    SWID_UNSET,
    VIRTUAL_SERVICE_IP,
)
from repro.core.header import NetCloneHeader
from repro.core.program import CLO_NEVER_CLONE, NetCloneProgram
from repro.core.server import RpcServer
from repro.errors import ExperimentError, PipelineConfigError
from repro.net.packet import Packet
from repro.switchsim.hashing import HashUnit
from repro.switchsim.pipeline import PassContext
from repro.switchsim.registers import RegisterArray
from repro.switchsim.switch import ProgrammableSwitch

__all__ = ["Fragment", "MultiPacketClient", "MultiPacketProgram", "MultiPacketServer"]

_CLIENT_SEQ_BITS = 24
_CLIENT_SEQ_MASK = (1 << _CLIENT_SEQ_BITS) - 1


def client_request_id(client_id: int, local_seq: int) -> int:
    """Lamport-style request ID: (client, per-client sequence)."""
    if client_id < 0 or client_id >= (1 << (32 - _CLIENT_SEQ_BITS)):
        raise ExperimentError("client_id out of range for client-assigned IDs")
    return ((client_id + 1) << _CLIENT_SEQ_BITS) | (local_seq & _CLIENT_SEQ_MASK)


class Fragment:
    """One fragment of a multi-packet request or response."""

    __slots__ = ("inner", "index", "count", "client_id", "client_seq", "write")

    def __init__(self, inner: Any, index: int, count: int):
        self.inner = inner
        self.index = index
        self.count = count
        # Mirror the routing-relevant payload fields so hosts can treat
        # fragments uniformly with whole payloads.
        self.client_id = inner.client_id
        self.client_seq = inner.client_seq
        self.write = getattr(inner, "write", False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Fragment {self.index + 1}/{self.count} of c{self.client_id}#{self.client_seq}>"


class MultiPacketProgram(NetCloneProgram):
    """NetClone with the §3.7 multi-packet extensions.

    Its request and response passes differ from Algorithm 1's, so it
    does not run the compiled NetClone pass: :meth:`_checked_apply`
    replaces it and checks the hardware rules on every packet through
    a :class:`~repro.switchsim.pipeline.PassContext`.
    """

    STAGE_FLOW_HASH = 0
    STAGE_CLONED_REQ = 3  # alongside AddrT; accessed after the states

    def __init__(
        self,
        server_ips: Sequence[int],
        cloned_table_slots: int = 1 << 12,
        **kwargs: Any,
    ):
        kwargs.setdefault("num_filter_tables", 4)  # ordered tables for frags
        super().__init__(server_ips, **kwargs)
        self.flow_hash = self.pipeline.place_hash(
            HashUnit("FlowHash", stage=self.STAGE_FLOW_HASH, buckets=cloned_table_slots)
        )
        self.cloned_request_table = self.pipeline.place_register(
            RegisterArray(
                "ClonedReqT",
                size=cloned_table_slots,
                stage=self.STAGE_CLONED_REQ,
                width_bits=32,
            )
        )
        # NetCloneProgram.__init__ bound its compiled pass as
        # ``self.apply``; this program's own pass takes its place.
        self.apply = self._checked_apply

    # ------------------------------------------------------------------
    def _checked_apply(
        self, packet: Packet, switch: ProgrammableSwitch
    ) -> Optional[bool]:
        if not self.matches(packet):
            return None
        nc = packet.nc
        ctx = self.pipeline.new_pass()
        if nc.msg_type == MSG_REQ:
            if not packet.recirculated:
                return self._apply_request(packet, ctx, switch)
            # Recirculated clone: pick up the clone's address.
            nc.clo = CLO_CLONED_COPY
            address = ctx.table(self.addr_table, nc.sid)
            if address is None:
                switch.counters.incr("nc_unknown_server")
                return True
            packet.dst = address
            return None
        if nc.msg_type == MSG_RESP:
            return self._apply_response(packet, ctx, switch)
        # Unknown message type: fall back to plain forwarding.
        return None

    def _apply_request(
        self, packet: Packet, ctx: PassContext, switch: ProgrammableSwitch
    ) -> Optional[bool]:
        nc = packet.nc
        if nc.swid == SWID_UNSET:
            nc.swid = self.switch_id
        if nc.req_id == 0:
            # Clients must pre-assign IDs in multi-packet mode.
            switch.counters.incr("nc_missing_client_id")
            return True

        flow_slot = ctx.hash(self.flow_hash, nc.req_id)

        pair = ctx.table(self.grp_table, nc.grp)
        if pair is None:
            switch.counters.incr("nc_unknown_group")
            return True
        srv1, srv2 = pair

        state1, _ = ctx.reg(self.state_table, srv1)
        state2, _ = ctx.reg(self.shadow_table, srv2)

        payload = packet.payload
        first_fragment = not isinstance(payload, Fragment) or payload.index == 0

        req_id = nc.req_id
        if first_fragment:
            fresh_clone = (
                self.cloning_enabled
                and nc.clo != CLO_NEVER_CLONE
                and state1 == STATE_IDLE
                and state2 == STATE_IDLE
            )
            # One RMW: record the in-flight clone marker (or clear any
            # stale entry left by a lost response).
            ctx.reg(
                self.cloned_request_table,
                flow_slot,
                update=(
                    (lambda _v: req_id)
                    if fresh_clone
                    else (lambda v: 0 if v == req_id else v)
                ),
            )
            should_clone = fresh_clone
        else:
            old, _new = ctx.reg(self.cloned_request_table, flow_slot)
            should_clone = old == req_id
            if should_clone:
                switch.counters.incr("nc_follow_on_fragment_cloned")

        if should_clone:
            nc.clo = CLO_CLONED_ORIGINAL
            nc.sid = srv2
            switch.recirculate(packet.copy())
            switch.counters.incr("nc_cloned")
        elif nc.clo == CLO_NEVER_CLONE:
            nc.clo = CLO_NOT_CLONED

        address = ctx.table(self.addr_table, srv1)
        if address is None:
            switch.counters.incr("nc_unknown_server")
            return True
        packet.dst = address
        return None

    def _apply_response(
        self, packet: Packet, ctx: PassContext, switch: ProgrammableSwitch
    ) -> Optional[bool]:
        # Reimplements the base response path (rather than delegating)
        # because the cloned-request clear lives in stage 3 and must be
        # visited *between* the shadow table (stage 2) and the filter
        # hash (stage 4): the pipeline is feed-forward.
        nc = packet.nc
        payload = packet.payload
        reported_state = nc.state
        req_id = nc.req_id

        flow_slot = ctx.hash(self.flow_hash, req_id)
        ctx.reg(self.state_table, nc.sid, update=lambda _old: reported_state)
        ctx.reg(self.shadow_table, nc.sid, update=lambda _old: reported_state)

        if nc.clo != CLO_NOT_CLONED and (
            not isinstance(payload, Fragment) or payload.index == 0
        ):
            # First response fragment retires the in-flight clone marker.
            ctx.reg(
                self.cloned_request_table,
                flow_slot,
                update=lambda value: 0 if value == req_id else value,
            )

        if nc.clo == CLO_NOT_CLONED or not self.filtering_enabled:
            return None

        slot = ctx.hash(self.hash_unit, req_id)
        filter_table = self.filters[nc.idx % len(self.filters)]
        old, _new = ctx.reg(
            filter_table,
            slot,
            update=lambda value: 0 if value == req_id else req_id,
        )
        if old == req_id:
            switch.counters.incr("nc_filtered")
            return True
        if old != 0:
            switch.counters.incr("nc_fingerprint_overwrite")
        switch.counters.incr("nc_fingerprint_insert")
        return None


class MultiPacketClient(OpenLoopClient):
    """Client that splits each request into fragments.

    Response reassembly mirrors the request side: a request completes
    when all of its response fragments have arrived (the latency is
    that of the last fragment).
    """

    def __init__(
        self,
        *args: Any,
        num_groups: int,
        frags_per_request: int = 2,
        num_filter_tables: int = 4,
        **kwargs: Any,
    ):
        super().__init__(*args, **kwargs)
        if frags_per_request < 1:
            raise ExperimentError("need at least one fragment per request")
        if num_groups < 2:
            raise ExperimentError("NetClone needs at least two groups")
        self.num_groups = num_groups
        self.frags_per_request = frags_per_request
        self.num_filter_tables = num_filter_tables
        self._rx_fragments: Dict[Tuple[int, int], set] = {}

    def build_packets(self, request: Any) -> List[Packet]:
        req_id = client_request_id(self.client_id, request.client_seq)
        grp = self.rng.randrange(self.num_groups)
        packets = []
        per_fragment_size = max(
            64, self.workload.request_size(request) // self.frags_per_request
        )
        for index in range(self.frags_per_request):
            header = NetCloneHeader(
                msg_type=MSG_REQ,
                req_id=req_id,
                grp=grp,
                clo=CLO_NEVER_CLONE if getattr(request, "write", False) else CLO_NOT_CLONED,
                idx=0,
            )
            packets.append(
                Packet(
                    src=self.ip,
                    dst=VIRTUAL_SERVICE_IP,
                    sport=NETCLONE_UDP_PORT,
                    dport=NETCLONE_UDP_PORT,
                    size=per_fragment_size + NetCloneHeader.WIRE_SIZE,
                    payload=Fragment(request, index, self.frags_per_request),
                    nc=header,
                )
            )
        return packets

    def handle(self, packet: Packet) -> None:
        payload = packet.payload
        if payload is None or payload.client_id != self.client_id:
            return
        if not isinstance(payload, Fragment):
            super().handle(packet)
            return
        key = (payload.client_id, payload.client_seq)
        got = self._rx_fragments.setdefault(key, set())
        if payload.index in got:
            self.redundant_responses += 1
            return
        got.add(payload.index)
        if len(got) == payload.count:
            del self._rx_fragments[key]
            # Complete: account it through the single-packet path.
            inner_packet = Packet(
                src=packet.src,
                dst=packet.dst,
                sport=packet.sport,
                dport=packet.dport,
                size=packet.size,
                payload=payload.inner,
                created_at=packet.created_at,
            )
            super().handle(inner_packet)


class MultiPacketServer(RpcServer):
    """Server that reassembles fragments and fragments its responses."""

    def __init__(self, *args: Any, response_frags: int = 2, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if response_frags < 1:
            raise ExperimentError("need at least one response fragment")
        self.response_frags = response_frags
        self._rx_fragments: Dict[Tuple[int, int, int], set] = {}
        self._dropped_clones: Dict[Tuple[int, int, int], bool] = {}

    def handle(self, packet: Packet) -> None:
        payload = packet.payload
        nc = packet.nc
        if not isinstance(payload, Fragment) or (nc is not None and nc.msg_type != MSG_REQ):
            super().handle(packet)
            return
        key = (payload.client_id, payload.client_seq, nc.clo if nc else 0)
        if (
            self.netclone_mode
            and self.drop_stale_clones
            and nc is not None
            and nc.clo == CLO_CLONED_COPY
        ):
            if key in self._dropped_clones:
                self.counters.incr("clones_dropped")
                return
            if payload.index == 0 and self.queue:
                # Stale clone: drop this and all its later fragments so
                # no half-reassembled clone lingers.
                self._dropped_clones[key] = True
                if len(self._dropped_clones) > 4096:
                    self._dropped_clones.pop(next(iter(self._dropped_clones)))
                self.counters.incr("clones_dropped")
                return
        got = self._rx_fragments.setdefault(key, set())
        got.add(payload.index)
        if len(got) < payload.count:
            return
        del self._rx_fragments[key]
        # Whole request present: hand the inner payload to the normal
        # path, remembering the fragment context for the response.
        inner_packet = Packet(
            src=packet.src,
            dst=packet.dst,
            sport=packet.sport,
            dport=packet.dport,
            size=packet.size,
            payload=payload.inner,
            nc=nc,
            created_at=packet.created_at,
        )
        self.counters.incr("requests_reassembled")
        super().handle(inner_packet)

    def _respond(self, request: Packet) -> None:
        if request.nc is None or self.response_frags == 1:
            super()._respond(request)
            return
        queue_len = len(self.queue)
        self.state_samples_total += 1
        if queue_len == 0:
            self.state_samples_zero += 1
        size = max(64, self.service.response_size(request.payload) // self.response_frags)
        for index in range(self.response_frags):
            nc = request.nc.copy()
            nc.msg_type = MSG_RESP
            nc.sid = self.server_id
            nc.state = min(queue_len, 255)
            nc.idx = index  # ordered filter table per fragment (§3.7)
            self.counters.incr("responses_sent" if index == 0 else "response_fragments")
            self.send(
                Packet(
                    src=self.ip,
                    dst=request.src,
                    sport=NETCLONE_UDP_PORT,
                    dport=NETCLONE_UDP_PORT,
                    size=size,
                    payload=Fragment(request.payload, index, self.response_frags),
                    nc=nc,
                    created_at=request.created_at,
                )
            )
