"""The NetClone switch data-plane program (Algorithm 1).

Compiled into the PISA pipeline model with the same placement the
paper describes (7 stages with two filter tables):

========= =====================================================
stage     contents
========= =====================================================
0         global sequence register ``SEQ`` + group table ``GrpT``
1         server state table ``StateT`` (register array)
2         shadow state table ``ShadowT`` (copy of ``StateT``)
3         address table ``AddrT`` (server ID → IP)
4         hash unit over REQ_ID
5..5+k-1  filter tables ``FilterT[0..k-1]`` (register arrays)
========= =====================================================

Because a register array can be accessed once per pass and only from
its own stage, reading the state of *both* candidate servers requires
the shadow copy — exactly the §3.4 trick — and giving the cloned copy
its destination IP requires a second pass through ``AddrT`` via
recirculation (§3.4 "Cloning in the switch").

The same class also implements the §3.7 RackSched integration: the
state table generalises to a *load* table holding queue lengths
(servers piggyback their queue length; IDLE simply means zero), and a
``scheduler`` knob selects between NetClone's random first-candidate
forwarding and RackSched's power-of-two JSQ.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.constants import (
    CLO_CLONED_COPY,
    CLO_CLONED_ORIGINAL,
    CLO_NOT_CLONED,
    MSG_REQ,
    MSG_RESP,
    NETCLONE_UDP_PORT,
    STATE_IDLE,
    SWID_UNSET,
)
from repro.core.groups import ordered_pairs
from repro.core.placement import GroupTable
from repro.errors import PipelineConfigError, StageAccessError
from repro.net.packet import Packet
from repro.switchsim.hashing import HashUnit
from repro.switchsim.pipeline import PassContext, Pipeline, PipelineAction
from repro.switchsim.registers import RegisterArray, RegisterFile
from repro.switchsim.switch import ProgrammableSwitch, SwitchProgram
from repro.switchsim.tables import MatchActionTable

from zlib import crc32

__all__ = ["NetCloneProgram"]

#: CLO value a client may set to opt a request out of cloning (writes).
CLO_NEVER_CLONE = 3

_SEQ_MAX = (1 << 32) - 1

#: Scheduler selecting the destination among the candidate pair.
SCHED_RANDOM = "random"
SCHED_JSQ = "jsq"


def _next_seq(value: int) -> int:
    """Increment the global sequence, skipping 0 (0 = empty slot)."""
    return 1 if value >= _SEQ_MAX else value + 1


class NetCloneProgram(SwitchProgram):
    """NetClone (optionally + RackSched) for one ToR switch."""

    STAGE_GRP = 0
    STAGE_STATE = 1
    STAGE_SHADOW = 2
    STAGE_ADDR = 3
    STAGE_HASH = 4
    STAGE_FILTER_BASE = 5

    def __init__(
        self,
        server_ips: Sequence[int],
        num_filter_tables: int = 2,
        filter_slots: int = 1 << 17,
        switch_id: int = 1,
        cloning_enabled: bool = True,
        filtering_enabled: bool = True,
        scheduler: str = SCHED_RANDOM,
        max_servers: int = 256,
        group_table: Optional[GroupTable] = None,
    ):
        if len(server_ips) < 2:
            raise PipelineConfigError("NetClone needs at least two servers")
        if num_filter_tables < 1:
            raise PipelineConfigError("need at least one filter table")
        if scheduler not in (SCHED_RANDOM, SCHED_JSQ):
            raise PipelineConfigError(f"unknown scheduler {scheduler!r}")
        num_stages = max(
            Pipeline.DEFAULT_NUM_STAGES, self.STAGE_FILTER_BASE + num_filter_tables
        )
        self.pipeline = Pipeline(num_stages=num_stages)
        self.switch_id = switch_id
        self.cloning_enabled = cloning_enabled
        self.filtering_enabled = filtering_enabled
        self.scheduler = scheduler
        # Per-packet paths test a bool, not a string compare.
        self._jsq = scheduler == SCHED_JSQ
        self.num_servers = len(server_ips)

        place = self.pipeline
        # All of this program's register state lives in one shared flat
        # backing store; each array addresses its slice via a base
        # offset (see RegisterFile).
        self._register_file = RegisterFile()
        self.seq = place.place_register(
            RegisterArray(
                "SEQ", size=1, stage=self.STAGE_GRP, width_bits=32,
                file=self._register_file,
            )
        )
        self.grp_table = place.place_table(
            MatchActionTable("GrpT", stage=self.STAGE_GRP, max_entries=max_servers * max_servers)
        )
        self.state_table = place.place_register(
            RegisterArray(
                "StateT", size=max_servers, stage=self.STAGE_STATE, width_bits=8,
                file=self._register_file,
            )
        )
        self.shadow_table = place.place_register(
            RegisterArray(
                "ShadowT", size=max_servers, stage=self.STAGE_SHADOW, width_bits=8,
                file=self._register_file,
            )
        )
        self.addr_table = place.place_table(
            MatchActionTable("AddrT", stage=self.STAGE_ADDR, max_entries=max_servers)
        )
        self.hash_unit = place.place_hash(
            HashUnit("ReqIdHash", stage=self.STAGE_HASH, buckets=filter_slots)
        )
        self.filters: List[RegisterArray] = [
            place.place_register(
                RegisterArray(
                    f"FilterT{i}",
                    size=filter_slots,
                    stage=self.STAGE_FILTER_BASE + i,
                    width_bits=32,
                    file=self._register_file,
                )
            )
            for i in range(num_filter_tables)
        ]
        self._register_file.freeze()

        if group_table is None:
            # A hand-assembled single ToR: every ordered pair of servers.
            pairs = tuple(ordered_pairs(range(self.num_servers)))
            group_table = GroupTable(pairs=pairs, split=len(pairs))
        self.install_group_table(group_table)
        for server_id, ip in enumerate(server_ips):
            self.addr_table.install(server_id, ip)

        #: Index-based fast lane over the register file, or ``None``
        #: when this program shape cannot be statically verified (e.g.
        #: a subclass overriding a pass method).
        self.fast_apply = self._build_fast_apply()

    # ------------------------------------------------------------------
    def _build_fast_apply(self):
        """Compile the fixed pass shapes into an index-based fast lane.

        The three NetClone pass shapes (request, recirculated clone,
        response) touch a fixed sequence of pipeline objects.
        :meth:`Pipeline.compile_plan` proves once, at install time,
        everything :class:`PassContext` would re-check per packet —
        feed-forward stage order, placement, one register access per
        pass — which licenses a per-packet path that skips the context
        object entirely and addresses register state through flat
        ``base + index`` offsets into the shared register file.

        Returns ``None`` (→ the dynamic checked path stays in charge)
        for subclasses that override any pass logic, or if a plan
        fails to verify.
        """
        cls = type(self)
        for name in (
            "apply",
            "_apply_request",
            "_apply_cloned_request",
            "_apply_response",
            "matches",
        ):
            if getattr(cls, name) is not getattr(NetCloneProgram, name):
                return None
        file = self._register_file
        if file.data is None:
            return None
        pipeline = self.pipeline
        try:
            self.plan_request = pipeline.compile_plan(
                (self.seq, self.grp_table, self.state_table,
                 self.shadow_table, self.addr_table)
            )
            self.plan_cloned_request = pipeline.compile_plan((self.addr_table,))
            # The response plan is the access-order skeleton: each pass
            # touches exactly one of the filter tables, all of which sit
            # in stages after the hash unit.
            self.plan_response = pipeline.compile_plan(
                (self.state_table, self.shadow_table, self.hash_unit,
                 *self.filters)
            )
        except PipelineConfigError:
            return None

        program = self
        cells = file.data
        seq_reg = self.seq
        seq_i = seq_reg.base
        grp_table = self.grp_table
        grp_get = grp_table._entries.get
        state_reg = self.state_table
        shadow_reg = self.shadow_table
        state_base = state_reg.base
        shadow_base = shadow_reg.base
        state_size = state_reg.size
        state_mask = state_reg._mask
        addr_table = self.addr_table
        addr_get = addr_table._entries.get
        hash_unit = self.hash_unit
        buckets = hash_unit.buckets
        filters = tuple(self.filters)
        filter_bases = tuple(f.base for f in filters)
        filter_mask = filters[0]._mask
        num_filters = len(filters)

        def fast_apply(packet, switch):
            nc = packet.nc
            msg_type = nc.msg_type
            if msg_type == MSG_REQ:
                if packet.recirculated:
                    # Recirculated clone (lines 11-13).
                    nc.clo = CLO_CLONED_COPY
                    addr_table.lookup_count += 1
                    address = addr_get(nc.sid)
                    if address is None:
                        addr_table.miss_count += 1
                        switch.counters.incr("nc_unknown_server")
                        action = PipelineAction()
                        action.drop = True
                        return action
                    packet.dst = address
                    return None
                # Fresh request (lines 1-10).
                if nc.swid == SWID_UNSET:
                    nc.swid = program.switch_id
                seq_reg.access_count += 1
                old = cells[seq_i]
                seq = 1 if old >= _SEQ_MAX else old + 1
                cells[seq_i] = seq
                nc.req_id = seq
                grp_table.lookup_count += 1
                pair = grp_get(nc.grp)
                if pair is None:
                    grp_table.miss_count += 1
                    switch.counters.incr("nc_unknown_group")
                    action = PipelineAction()
                    action.drop = True
                    return action
                srv1, srv2 = pair
                if not 0 <= srv1 < state_size:
                    raise StageAccessError(
                        f"index {srv1} out of range for register "
                        f"{state_reg.name!r} (size {state_size})"
                    )
                if not 0 <= srv2 < state_size:
                    raise StageAccessError(
                        f"index {srv2} out of range for register "
                        f"{shadow_reg.name!r} (size {state_size})"
                    )
                state_reg.access_count += 1
                state1 = cells[state_base + srv1]
                shadow_reg.access_count += 1
                state2 = cells[shadow_base + srv2]
                destination = srv1
                if (
                    program.cloning_enabled
                    and nc.clo != CLO_NEVER_CLONE
                    and state1 == STATE_IDLE
                    and state2 == STATE_IDLE
                ):
                    nc.clo = CLO_CLONED_ORIGINAL
                    nc.sid = srv2
                    action = PipelineAction()
                    action.recirculate.append(packet.copy())
                    switch._counts["nc_cloned"] += 1
                else:
                    action = None
                    if nc.clo == CLO_NEVER_CLONE:
                        nc.clo = CLO_NOT_CLONED
                    if program._jsq and state2 < state1:
                        destination = srv2
                        switch._counts["nc_jsq_second_choice"] += 1
                addr_table.lookup_count += 1
                address = addr_get(destination)
                if address is None:
                    addr_table.miss_count += 1
                    switch.counters.incr("nc_unknown_server")
                    if action is None:
                        action = PipelineAction()
                    action.drop = True
                    return action
                packet.dst = address
                return action
            if msg_type == MSG_RESP:
                # Response (lines 14-26).
                sid = nc.sid
                if not 0 <= sid < state_size:
                    raise StageAccessError(
                        f"index {sid} out of range for register "
                        f"{state_reg.name!r} (size {state_size})"
                    )
                value = nc.state & state_mask
                state_reg.access_count += 1
                cells[state_base + sid] = value
                shadow_reg.access_count += 1
                cells[shadow_base + sid] = value
                if nc.clo == CLO_NOT_CLONED or not program.filtering_enabled:
                    return None
                req_id = nc.req_id
                hash_unit.invocations += 1
                slot = crc32(
                    (req_id & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
                ) % buckets
                which = nc.idx % num_filters
                filter_reg = filters[which]
                filter_reg.access_count += 1
                flat = filter_bases[which] + slot
                old = cells[flat]
                if old == req_id:
                    cells[flat] = 0
                    switch._counts["nc_filtered"] += 1
                    action = PipelineAction()
                    action.drop = True
                    return action
                cells[flat] = req_id & filter_mask
                if old != 0:
                    switch._counts["nc_fingerprint_overwrite"] += 1
                switch._counts["nc_fingerprint_insert"] += 1
                return None
            # Unknown message type: fall back to plain forwarding.
            return None

        return fast_apply

    # ------------------------------------------------------------------
    def install_group_table(self, table: GroupTable) -> None:
        """Wipe ``GrpT`` and load *table* (assembly and §3.6 rebuilds).

        Group IDs are dense, so the table is rebuilt rather than
        punched with holes — exactly the §3.6 update path, per ToR.
        """
        for group_id in list(self.grp_table.entries()):
            self.grp_table.remove(group_id)
        for group_id, pair in enumerate(table.pairs):
            self.grp_table.install(group_id, tuple(pair))
        #: The installed :class:`~repro.core.placement.GroupTable`.
        self.group_table = table

    @property
    def num_groups(self) -> int:
        """Group-ID space size of the installed table."""
        return self.group_table.num_groups

    @property
    def table_epoch(self) -> int:
        """Control-plane generation of the installed table."""
        return self.group_table.epoch

    # ------------------------------------------------------------------
    def matches(self, packet: Packet) -> bool:
        """NetClone packets: reserved UDP port, parseable header, SWID gate."""
        if packet.dport != NETCLONE_UDP_PORT or packet.nc is None:
            return False
        swid = packet.nc.swid
        return swid == SWID_UNSET or swid == self.switch_id

    # ------------------------------------------------------------------
    def apply(
        self, packet: Packet, ctx: PassContext, switch: ProgrammableSwitch
    ) -> Optional[PipelineAction]:
        nc = packet.nc
        if nc.msg_type == MSG_REQ:
            if packet.recirculated:
                return self._apply_cloned_request(packet, ctx, switch)
            return self._apply_request(packet, ctx, switch)
        if nc.msg_type == MSG_RESP:
            return self._apply_response(packet, ctx, switch)
        # Unknown message type: fall back to plain forwarding.
        return None

    # -- requests (Algorithm 1, lines 1-10) ------------------------------
    def _apply_request(
        self, packet: Packet, ctx: PassContext, switch: ProgrammableSwitch
    ) -> Optional[PipelineAction]:
        nc = packet.nc
        if nc.swid == SWID_UNSET:
            nc.swid = self.switch_id

        _, seq = ctx.reg(self.seq, 0, update=_next_seq)
        nc.req_id = seq

        pair = ctx.table(self.grp_table, nc.grp)
        if pair is None:
            switch.counters.incr("nc_unknown_group")
            action = PipelineAction()
            action.drop = True
            return action
        srv1, srv2 = pair

        state1, _ = ctx.reg(self.state_table, srv1)
        state2, _ = ctx.reg(self.shadow_table, srv2)

        may_clone = (
            self.cloning_enabled
            and nc.clo != CLO_NEVER_CLONE
            and state1 == STATE_IDLE
            and state2 == STATE_IDLE
        )
        destination = srv1
        action = None
        if may_clone:
            # Mark as cloned original, remember the clone's server in
            # SID, and recirculate a copy that will pick up its IP on
            # the second pass (lines 7-9).
            nc.clo = CLO_CLONED_ORIGINAL
            nc.sid = srv2
            action = PipelineAction()
            action.recirculate.append(packet.copy())
            switch._counts["nc_cloned"] += 1
        else:
            if nc.clo == CLO_NEVER_CLONE:
                nc.clo = CLO_NOT_CLONED
            if self._jsq and state2 < state1:
                # RackSched fallback: join the shorter queue (§3.7).
                destination = srv2
                switch._counts["nc_jsq_second_choice"] += 1

        address = ctx.table(self.addr_table, destination)
        if address is None:
            switch.counters.incr("nc_unknown_server")
            if action is None:
                action = PipelineAction()
            action.drop = True
            return action
        packet.dst = address
        return action

    # -- recirculated clones (lines 11-13) --------------------------------
    def _apply_cloned_request(
        self, packet: Packet, ctx: PassContext, switch: ProgrammableSwitch
    ) -> Optional[PipelineAction]:
        nc = packet.nc
        nc.clo = CLO_CLONED_COPY
        address = ctx.table(self.addr_table, nc.sid)
        if address is None:
            switch.counters.incr("nc_unknown_server")
            action = PipelineAction()
            action.drop = True
            return action
        packet.dst = address
        return None

    # -- responses (lines 14-26) ------------------------------------------
    def _apply_response(
        self, packet: Packet, ctx: PassContext, switch: ProgrammableSwitch
    ) -> Optional[PipelineAction]:
        nc = packet.nc
        reported_state = nc.state

        ctx.reg_set(self.state_table, nc.sid, reported_state)
        ctx.reg_set(self.shadow_table, nc.sid, reported_state)

        if nc.clo == CLO_NOT_CLONED or not self.filtering_enabled:
            return None

        req_id = nc.req_id
        slot = ctx.hash(self.hash_unit, req_id)
        filter_table = self.filters[nc.idx % len(self.filters)]
        # Single stateful compare-and-swap: clear on match, insert
        # otherwise (no per-packet update closure).
        old = ctx.reg_swap(filter_table, slot, req_id)
        if old == req_id:
            # The faster response already passed: this is the slower
            # one.  The slot was cleared for reuse by the update above.
            switch._counts["nc_filtered"] += 1
            action = PipelineAction()
            action.drop = True
            return action
        if old != 0:
            switch._counts["nc_fingerprint_overwrite"] += 1
        switch._counts["nc_fingerprint_insert"] += 1
        return None

    # ------------------------------------------------------------------
    def on_register_wipe(self) -> None:
        """After a power cycle all state is zero; nothing to rebuild.

        Zeroed state tables read as IDLE and the sequence restarts at
        1, which §3.6 argues is safe — requests with earlier sequence
        numbers have long completed.
        """

    @property
    def filter_slot_count(self) -> int:
        """Total fingerprint slots across all filter tables."""
        return sum(f.size for f in self.filters)
