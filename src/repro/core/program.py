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

Algorithm 1 runs as one callable, :attr:`NetCloneProgram.apply`,
compiled when the program is built.  Before compiling it,
:meth:`~repro.switchsim.pipeline.Pipeline.compile_plan` proves that
the three pass shapes (request, recirculated clone, response) obey
those rules, and construction fails if one does not.  The proven pass
then runs with no per-packet stage checks, addressing register state
by flat offsets into the program's
:class:`~repro.switchsim.registers.RegisterFile`; it checks only that
server IDs index inside the state tables.  With the C core live
(``USING_CCORE``) the pass is a ``_ccore.NetClonePass`` over the same
register memory and table dicts, which the switch runs with no Python
frame; otherwise, and as the reference, it is a Python closure.  The
program's flags (cloning, filtering, scheduler) are compiled into the
pass, so they are fixed at construction.

The same class also implements two §3.7 extensions.  RackSched
integration: RackSched (Zhu et al., OSDI 2020) balances load in the
switch by Join-the-Shortest-Queue over the power of two choices:
sample two servers, forward to the one with the shorter queue.  The
state table generalises to a *load* table holding queue lengths
(servers piggyback their queue length; IDLE simply means zero), and
the candidate pair drawn from the group table doubles as the
power-of-two sample.  ``scheduler=SCHED_JSQ`` selects it: both
candidate queues empty → clone, exactly as plain NetClone; otherwise
join the shorter of the two queues (the ``netclone-racksched``
scheme).  Adding ``cloning_enabled=False`` gives pure RackSched, with
no clones (the ``racksched`` scheme).

Client-assigned request IDs (§3.7): a fresh request that arrives with
a nonzero ``req_id`` keeps it, and ``SEQ`` is neither read nor
advanced, so a retransmission carries its original ID
(:mod:`repro.core.reliability`).  Clients that leave ``req_id`` at 0
get the next ``SEQ`` value, as in Algorithm 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.constants import (
    CLO_CLONED_COPY,
    CLO_CLONED_ORIGINAL,
    CLO_NEVER_CLONE,
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
from repro.sim.core import USING_CCORE
from repro.switchsim.hashing import HashUnit
from repro.switchsim.pipeline import Pipeline
from repro.switchsim.registers import RegisterArray, RegisterFile
from repro.switchsim.tables import MatchActionTable

from zlib import crc32

if USING_CCORE:
    from repro.sim._ccore import NetClonePass

__all__ = ["NetCloneProgram"]

_SEQ_MAX = (1 << 32) - 1

#: Scheduler selecting the destination among the candidate pair.
SCHED_RANDOM = "random"
SCHED_JSQ = "jsq"


class NetCloneProgram:
    """NetClone (optionally + RackSched) for one ToR switch.

    ``apply(packet, switch)`` is Algorithm 1: lines 1-10 for a fresh
    request, 11-13 for its recirculated clone, 14-26 for a response.
    It is an instance attribute bound by :meth:`_compile_apply`: a C
    ``NetClonePass`` on the C core, the reference closure otherwise.
    It returns ``True`` to drop the packet and ``None`` to forward it,
    and hands a clone to ``switch.recirculate`` during the pass.  The
    pass opens with a gate — the NetClone UDP port, a parsed header,
    and a SWID that is unset or this ToR's — so packets that are not
    this ToR's NetClone traffic pass through untouched.

    All of its state is soft: after a power cycle the switch zeroes
    every register, so state tables read IDLE and ``SEQ`` restarts at
    1, which §3.6 argues is safe — requests with earlier sequence
    numbers have long completed.
    """

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
        # Compiled into the pass below, so read-only from here on.
        self._cloning_enabled = cloning_enabled
        self._filtering_enabled = filtering_enabled
        self._scheduler = scheduler
        self.num_servers = len(server_ips)

        place = self.pipeline.place
        # All of this program's register state lives in one shared flat
        # backing store; each array addresses its slice via a base
        # offset (see RegisterFile).
        self._register_file = RegisterFile()
        self.seq = place(
            RegisterArray(
                "SEQ", size=1, stage=self.STAGE_GRP, width_bits=32,
                file=self._register_file,
            )
        )
        self.grp_table = place(
            MatchActionTable("GrpT", stage=self.STAGE_GRP, max_entries=max_servers * max_servers)
        )
        self.state_table = place(
            RegisterArray(
                "StateT", size=max_servers, stage=self.STAGE_STATE, width_bits=8,
                file=self._register_file,
            )
        )
        self.shadow_table = place(
            RegisterArray(
                "ShadowT", size=max_servers, stage=self.STAGE_SHADOW, width_bits=8,
                file=self._register_file,
            )
        )
        self.addr_table = place(
            MatchActionTable("AddrT", stage=self.STAGE_ADDR, max_entries=max_servers)
        )
        self.hash_unit = place(
            HashUnit("ReqIdHash", stage=self.STAGE_HASH, buckets=filter_slots)
        )
        self.filters: List[RegisterArray] = [
            place(
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

        #: Algorithm 1, one pipeline pass: ``apply(packet, switch)``.
        self.apply = self._compile_apply()

    # ------------------------------------------------------------------
    def _compile_apply(self):
        """Verify the three pass shapes and compile Algorithm 1 for them.

        The three NetClone pass shapes (request, recirculated clone,
        response) touch a fixed sequence of pipeline objects.
        :meth:`Pipeline.compile_plan` proves once, at construction, the
        PISA rules for each — feed-forward stage order, placement, one
        access per register per pass — and raises
        :class:`~repro.errors.PipelineConfigError` if one fails.  That
        proof is what lets the per-packet pass run without checks of
        its own: it addresses register state through flat ``base +
        index`` offsets into the shared register file.  The C pass and
        the closure below capture the same state, and
        ``tests/test_engine_fastpath.py`` drills every branch on both.
        """
        pipeline = self.pipeline
        pipeline.compile_plan(
            (self.seq, self.grp_table, self.state_table,
             self.shadow_table, self.addr_table)
        )
        pipeline.compile_plan((self.addr_table,))
        # The response shape is the access-order skeleton: each pass
        # touches exactly one of the filter tables, all of which sit in
        # stages after the hash unit.
        pipeline.compile_plan(
            (self.state_table, self.shadow_table, self.hash_unit, *self.filters)
        )

        switch_id = self.switch_id
        cells = self._register_file.data
        seq_i = self.seq.base
        state_reg = self.state_table
        shadow_reg = self.shadow_table
        state_base = state_reg.base
        shadow_base = shadow_reg.base
        state_size = state_reg.size
        state_mask = state_reg._mask
        buckets = self.hash_unit.buckets
        filter_bases = tuple(f.base for f in self.filters)
        filter_mask = self.filters[0]._mask
        cloning_enabled = self._cloning_enabled
        filtering_enabled = self._filtering_enabled
        jsq = self._scheduler == SCHED_JSQ
        if USING_CCORE:
            # The same pass in C, over the same register memory and the
            # same (live) table dicts.
            return NetClonePass(
                cells=cells,
                grp_entries=self.grp_table._entries,
                addr_entries=self.addr_table._entries,
                seq_index=seq_i,
                state_base=state_base,
                shadow_base=shadow_base,
                state_size=state_size,
                state_mask=state_mask,
                state_name=state_reg.name,
                shadow_name=shadow_reg.name,
                filter_bases=filter_bases,
                filter_mask=filter_mask,
                buckets=buckets,
                switch_id=switch_id,
                cloning=cloning_enabled,
                filtering=filtering_enabled,
                jsq=jsq,
            )

        grp_get = self.grp_table._entries.get
        addr_get = self.addr_table._entries.get
        num_filters = len(filter_bases)

        def apply(packet, switch):
            # The gate: NetClone port, parseable header, SWID unset or
            # our own.
            nc = packet.nc
            if packet.dport != NETCLONE_UDP_PORT or nc is None:
                return None
            swid = nc.swid
            if swid != SWID_UNSET and swid != switch_id:
                return None
            msg_type = nc.msg_type
            if msg_type == MSG_REQ:
                if packet.recirculated:
                    # Recirculated clone (lines 11-13).
                    nc.clo = CLO_CLONED_COPY
                    address = addr_get(nc.sid)
                    if address is None:
                        switch.counters.incr("nc_unknown_server")
                        return True
                    packet.dst = address
                    return None
                # Fresh request (lines 1-10).  A client-assigned ID
                # (§3.7) is kept and SEQ is left alone; ID 0 asks the
                # switch for the next sequence number.
                if swid == SWID_UNSET:
                    nc.swid = switch_id
                if nc.req_id == 0:
                    old = cells[seq_i]
                    seq = 1 if old >= _SEQ_MAX else old + 1
                    cells[seq_i] = seq
                    nc.req_id = seq
                pair = grp_get(nc.grp)
                if pair is None:
                    switch.counters.incr("nc_unknown_group")
                    return True
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
                state1 = cells[state_base + srv1]
                state2 = cells[shadow_base + srv2]
                destination = srv1
                if (
                    cloning_enabled
                    and nc.clo != CLO_NEVER_CLONE
                    and state1 == STATE_IDLE
                    and state2 == STATE_IDLE
                ):
                    # Mark as cloned original, remember the clone's
                    # server in SID and recirculate a copy that picks
                    # up its IP on the second pass (lines 7-9).
                    nc.clo = CLO_CLONED_ORIGINAL
                    nc.sid = srv2
                    switch.recirculate(packet.copy())
                    switch._counts["nc_cloned"] += 1
                else:
                    if nc.clo == CLO_NEVER_CLONE:
                        nc.clo = CLO_NOT_CLONED
                    if jsq and state2 < state1:
                        # RackSched fallback: join the shorter queue (§3.7).
                        destination = srv2
                        switch._counts["nc_jsq_second_choice"] += 1
                address = addr_get(destination)
                if address is None:
                    switch.counters.incr("nc_unknown_server")
                    return True
                packet.dst = address
                return None
            if msg_type == MSG_RESP:
                # Response (lines 14-26).
                sid = nc.sid
                if not 0 <= sid < state_size:
                    raise StageAccessError(
                        f"index {sid} out of range for register "
                        f"{state_reg.name!r} (size {state_size})"
                    )
                value = nc.state & state_mask
                cells[state_base + sid] = value
                cells[shadow_base + sid] = value
                if nc.clo == CLO_NOT_CLONED or not filtering_enabled:
                    return None
                req_id = nc.req_id
                slot = crc32(
                    (req_id & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
                ) % buckets
                which = nc.idx % num_filters
                flat = filter_bases[which] + slot
                old = cells[flat]
                if old == req_id:
                    # The faster response already passed: this is the
                    # slower one.  Clear the slot for reuse.
                    cells[flat] = 0
                    switch._counts["nc_filtered"] += 1
                    return True
                cells[flat] = req_id & filter_mask
                if old != 0:
                    switch._counts["nc_fingerprint_overwrite"] += 1
                switch._counts["nc_fingerprint_insert"] += 1
                return None
            # Unknown message type: fall back to plain forwarding.
            return None

        return apply

    # ------------------------------------------------------------------
    @property
    def cloning_enabled(self) -> bool:
        """Whether fresh requests to an idle pair are cloned (fixed at
        construction: the compiled pass captures it)."""
        return self._cloning_enabled

    @property
    def filtering_enabled(self) -> bool:
        """Whether the slower response is filtered (fixed at
        construction)."""
        return self._filtering_enabled

    @property
    def scheduler(self) -> str:
        """``random`` or ``jsq`` (fixed at construction)."""
        return self._scheduler

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

    @property
    def filter_slot_count(self) -> int:
        """Total fingerprint slots across all filter tables."""
        return sum(f.size for f in self.filters)
