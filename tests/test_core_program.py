"""Unit tests for the NetClone switch program (Algorithm 1)."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CLO_CLONED_COPY,
    CLO_CLONED_ORIGINAL,
    CLO_NOT_CLONED,
    MSG_REQ,
    MSG_RESP,
    NETCLONE_UDP_PORT,
    NetCloneHeader,
    NetCloneProgram,
    STATE_BUSY,
    STATE_IDLE,
    VIRTUAL_SERVICE_IP,
)
from repro.core.constants import CLO_NEVER_CLONE
from repro.core.program import SCHED_JSQ, SCHED_RANDOM
from repro.errors import PipelineConfigError, StageAccessError
from repro.experiments.common import Cluster

from helpers import RecordingSwitch, make_packet, run_pass, tiny_config

SERVER_IPS = [1001, 1002, 1003]


def make_program(**kwargs):
    kwargs.setdefault("server_ips", SERVER_IPS)
    return NetCloneProgram(**kwargs)


def make_switch():
    return RecordingSwitch()


def request(grp=0, clo=CLO_NOT_CLONED, idx=0, swid=0, req_id=0):
    return make_packet(
        src=5000,
        dst=VIRTUAL_SERVICE_IP,
        sport=NETCLONE_UDP_PORT,
        dport=NETCLONE_UDP_PORT,
        size=128,
        nc=NetCloneHeader(MSG_REQ, req_id=req_id, grp=grp, clo=clo, idx=idx, swid=swid),
    )


def response(req_id, sid, state=STATE_IDLE, clo=CLO_CLONED_ORIGINAL, idx=0):
    return make_packet(
        src=SERVER_IPS[sid],
        dst=5000,
        sport=NETCLONE_UDP_PORT,
        dport=NETCLONE_UDP_PORT,
        size=128,
        nc=NetCloneHeader(MSG_RESP, req_id=req_id, sid=sid, state=state, clo=clo, idx=idx),
    )


# ----------------------------------------------------------------------
# Request processing
# ----------------------------------------------------------------------
def test_request_ids_unique_and_increasing():
    program, switch = make_program(), make_switch()
    ids = []
    for _ in range(5):
        packet = request()
        run_pass(program, switch, packet)
        ids.append(packet.nc.req_id)
    assert ids == [1, 2, 3, 4, 5]


def test_sequence_skips_zero_on_wrap():
    program, switch = make_program(), make_switch()
    program.seq.poke(0, (1 << 32) - 1)
    packet = request()
    run_pass(program, switch, packet)
    assert packet.nc.req_id == 1


def test_client_assigned_request_id_kept_and_seq_untouched():
    """§3.7: a nonzero client ID survives the pass; ID 0 draws from SEQ."""
    program, switch = make_program(), make_switch()
    run_pass(program, switch, request())
    assert program.seq.peek(0) == 1
    assigned = request(req_id=7)
    run_pass(program, switch, assigned)
    assert assigned.nc.req_id == 7
    assert program.seq.peek(0) == 1  # neither read into the ID nor advanced
    fresh = request()
    run_pass(program, switch, fresh)
    assert fresh.nc.req_id == 2
    assert program.seq.peek(0) == 2


def test_idle_pair_is_cloned():
    program, switch = make_program(), make_switch()
    packet = request(grp=0)  # group 0 = (0, 1)
    dropped, copies = run_pass(program, switch, packet)
    assert packet.nc.clo == CLO_CLONED_ORIGINAL
    assert packet.nc.sid == 1  # clone destined for server 1
    assert packet.dst == SERVER_IPS[0]
    assert len(copies) == 1
    assert not dropped
    assert switch.counters.get("nc_cloned") == 1


def test_busy_first_candidate_blocks_cloning():
    program, switch = make_program(), make_switch()
    program.state_table.poke(0, STATE_BUSY)
    packet = request(grp=0)
    _, copies = run_pass(program, switch, packet)
    assert packet.nc.clo == CLO_NOT_CLONED
    assert copies == []
    assert packet.dst == SERVER_IPS[0]  # still forwarded to first candidate


def test_busy_second_candidate_blocks_cloning():
    program, switch = make_program(), make_switch()
    program.shadow_table.poke(1, STATE_BUSY)
    packet = request(grp=0)
    _, copies = run_pass(program, switch, packet)
    assert packet.nc.clo == CLO_NOT_CLONED
    assert copies == []


def test_cloning_disabled_never_clones():
    program, switch = make_program(cloning_enabled=False), make_switch()
    _, copies = run_pass(program, switch, request(grp=0))
    assert copies == []


def test_write_requests_never_cloned():
    program, switch = make_program(), make_switch()
    packet = request(grp=0, clo=CLO_NEVER_CLONE)
    _, copies = run_pass(program, switch, packet)
    assert copies == []
    assert packet.nc.clo == CLO_NOT_CLONED  # normalised on the wire


def test_unknown_group_dropped():
    program, switch = make_program(), make_switch()
    dropped, _ = run_pass(program, switch, request(grp=9999))
    assert dropped
    assert switch.counters.get("nc_unknown_group") == 1


def test_recirculated_clone_gets_address_and_clo2():
    program, switch = make_program(), make_switch()
    original = request(grp=0)
    _, (clone,) = run_pass(program, switch, original)
    clone_dropped, _ = run_pass(program, switch, clone, recirculated=True)
    assert clone.nc.clo == CLO_CLONED_COPY
    assert clone.dst == SERVER_IPS[1]
    assert not clone_dropped
    assert clone.nc.req_id == original.nc.req_id  # fingerprint shared


def test_group_choice_covers_all_ordered_pairs():
    program, switch = make_program(), make_switch()
    destinations = set()
    for grp in range(program.num_groups):
        packet = request(grp=grp)
        program.state_table.poke(0, STATE_BUSY)  # suppress cloning noise
        run_pass(program, switch, packet)
        destinations.add(packet.dst)
    assert destinations == set(SERVER_IPS)


# ----------------------------------------------------------------------
# Response processing and filtering
# ----------------------------------------------------------------------
def test_response_updates_state_and_shadow():
    program, switch = make_program(), make_switch()
    run_pass(program, switch, response(req_id=1, sid=2, state=STATE_BUSY))
    assert program.state_table.peek(2) == STATE_BUSY
    assert program.shadow_table.peek(2) == STATE_BUSY
    run_pass(program, switch, response(req_id=2, sid=2, state=STATE_IDLE))
    assert program.state_table.peek(2) == STATE_IDLE
    assert program.shadow_table.peek(2) == STATE_IDLE


def test_faster_then_slower_response_filtering():
    program, switch = make_program(), make_switch()
    faster = response(req_id=7, sid=0)
    slower = response(req_id=7, sid=1)
    fast_dropped, _ = run_pass(program, switch, faster)
    assert not fast_dropped
    slow_dropped, _ = run_pass(program, switch, slower)
    assert slow_dropped
    assert switch.counters.get("nc_filtered") == 1
    # The slot was cleared for reuse: a third response with the same id
    # (impossible in practice, but the register semantics matter) inserts.
    again_dropped, _ = run_pass(program, switch, response(req_id=7, sid=2))
    assert not again_dropped


def test_non_cloned_response_not_filtered():
    program, switch = make_program(), make_switch()
    first = response(req_id=3, sid=0, clo=CLO_NOT_CLONED)
    second = response(req_id=3, sid=1, clo=CLO_NOT_CLONED)
    assert not run_pass(program, switch, first)[0]
    assert not run_pass(program, switch, second)[0]
    assert switch.counters.get("nc_filtered") == 0


def test_filtering_disabled_passes_slower_response():
    program, switch = make_program(filtering_enabled=False), make_switch()
    assert not run_pass(program, switch, response(req_id=7, sid=0))[0]
    assert not run_pass(program, switch, response(req_id=7, sid=1))[0]


def test_hash_collision_overwrites_and_forwards_old_slower():
    """§3.5: overwrite on collision; a late slower response is forwarded."""
    program, switch = make_program(num_filter_tables=1, filter_slots=1), make_switch()
    run_pass(program, switch, response(req_id=10, sid=0))  # insert 10
    # A different request's faster response collides and overwrites.
    dropped, _ = run_pass(program, switch, response(req_id=20, sid=1))
    assert not dropped
    assert switch.counters.get("nc_fingerprint_overwrite") == 1
    # Request 10's slower response now finds 20: forwarded (rare miss).
    late_dropped, _ = run_pass(program, switch, response(req_id=10, sid=2))
    assert not late_dropped
    # But request 20's slower response is still correctly dropped...
    # no: slot now holds 10 again?  The overwrite semantics replace the
    # slot with the arriving id whenever it differs, so the late
    # response re-inserted 10.  Request 20's slower then overwrites again.
    slower_20_dropped, _ = run_pass(program, switch, response(req_id=20, sid=0))
    assert not slower_20_dropped


def test_distinct_filter_tables_avoid_collision():
    """§3.5: same hash slot, different table index -> no interference."""
    program, switch = make_program(num_filter_tables=2, filter_slots=1), make_switch()
    run_pass(program, switch, response(req_id=10, sid=0, idx=0))
    dropped, _ = run_pass(program, switch, response(req_id=20, sid=1, idx=1))
    assert not dropped  # different table: insert, not overwrite
    assert switch.counters.get("nc_fingerprint_overwrite") == 0
    assert run_pass(program, switch, response(req_id=10, sid=1, idx=0))[0]
    assert run_pass(program, switch, response(req_id=20, sid=0, idx=1))[0]


def test_compiled_filter_slot_is_the_crc32_reference():
    """The pass inlines ``crc32(...) % buckets``; pin it to zlib's."""
    slots = 1 << 10
    program, switch = make_program(filter_slots=slots), make_switch()
    for req_id, idx in ((1, 0), (12345, 1), ((1 << 32) - 1, 0), (1 << 24, 1)):
        assert not run_pass(program, switch, response(req_id=req_id, sid=0, idx=idx))[0]
        slot = zlib.crc32(req_id.to_bytes(8, "little")) % slots
        assert program.filters[idx].peek(slot) == req_id


def assert_filter_slot_is_zlib_crc32(req_id):
    """The pass reads and writes slot ``zlib.crc32(8 LE bytes) %
    buckets``: that slot alone holds a marker, and the response must
    overwrite it."""
    buckets = 1 << 10
    program = make_program(num_filter_tables=1, filter_slots=buckets)
    switch = make_switch()
    bits = req_id & 0xFFFFFFFFFFFFFFFF
    slot = zlib.crc32(bits.to_bytes(8, "little")) % buckets
    program.filters[0].poke(slot, 2 if req_id == 1 else 1)
    assert not run_pass(program, switch, response(req_id=req_id, sid=0))[0]
    assert switch.counters.get("nc_fingerprint_overwrite") == 1
    assert program.filters[0].peek(slot) == bits & 0xFFFFFFFF


@pytest.mark.parametrize("req_id", [1, (1 << 32) - 1, 1 << 63])
def test_filter_slot_is_zlib_crc32(req_id):
    assert_filter_slot_is_zlib_crc32(req_id)


@settings(max_examples=100, deadline=None)
@given(req_id=st.integers(min_value=1, max_value=(1 << 64) - 1))
def test_filter_slot_is_zlib_crc32_over_the_id_range(req_id):
    assert_filter_slot_is_zlib_crc32(req_id)


# ----------------------------------------------------------------------
# Index checks of the compiled pass
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pair", [(4, 0), (0, 4), (0, 9)], ids=["srv1", "srv2", "srv2-far"])
def test_compiled_pass_rejects_group_pair_past_max_servers(pair):
    program, switch = make_program(max_servers=4), make_switch()
    program.grp_table.install(0, pair)
    with pytest.raises(StageAccessError):
        run_pass(program, switch, request(grp=0))


@pytest.mark.parametrize("sid", [4, 5])
def test_compiled_pass_rejects_response_sid_past_max_servers(sid):
    program, switch = make_program(max_servers=4), make_switch()
    packet = response(req_id=1, sid=0, state=STATE_BUSY)
    packet.nc.sid = sid
    with pytest.raises(StageAccessError):
        run_pass(program, switch, packet)
    # The last in-range server still updates normally.
    packet.nc.sid = 3
    run_pass(program, switch, packet)
    assert program.state_table.peek(3) == STATE_BUSY


# ----------------------------------------------------------------------
# The gate that opens every pass
# ----------------------------------------------------------------------
GATE_CASES = {
    # name -> (packet factory, whether a ToR with switch_id=2 claims it)
    "plain": (lambda: make_packet(src=1, dst=2, sport=80, dport=80, size=64), False),
    "wrong-port": (lambda: request_on_port(1234), False),
    "no-header": (
        lambda: make_packet(
            src=5000,
            dst=VIRTUAL_SERVICE_IP,
            sport=NETCLONE_UDP_PORT,
            dport=NETCLONE_UDP_PORT,
            size=128,
        ),
        False,
    ),
    "unstamped": (lambda: request(swid=0), True),
    "own-swid": (lambda: request(swid=2), True),
    "foreign-swid": (lambda: request(swid=1), False),
}


def request_on_port(dport):
    packet = request()
    packet.dport = dport
    return packet


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_compiled_pass_opens_with_the_netclone_gate(case):
    make, claimed = GATE_CASES[case]
    program, switch = make_program(switch_id=2), make_switch()
    packet = make()
    header = packet.nc.pack() if packet.nc is not None else None
    dst = packet.dst
    dropped, copies = run_pass(program, switch, packet)
    # A claimed request draws a sequence number and, with both
    # candidates idle, is cloned towards its first candidate.
    assert (program.seq.peek(0) == 1) == claimed
    assert (len(copies) == 1) == claimed
    assert not dropped
    if not claimed:
        # Left untouched: SEQ, the header and the destination.
        assert program.seq.peek(0) == 0
        assert (packet.nc.pack() if packet.nc is not None else None) == header
        assert packet.dst == dst
        assert switch.counters.get("nc_cloned") == 0


def test_request_stamps_swid():
    program, switch = make_program(switch_id=5), make_switch()
    packet = request(swid=0)
    run_pass(program, switch, packet)
    assert packet.nc.swid == 5


# ----------------------------------------------------------------------
# RackSched integration (§3.7)
# ----------------------------------------------------------------------
def test_jsq_falls_back_to_shorter_queue():
    program, switch = make_program(scheduler=SCHED_JSQ), make_switch()
    program.state_table.poke(0, 5)  # queue length 5 at server 0
    program.shadow_table.poke(1, 2)  # queue length 2 at server 1
    packet = request(grp=0)
    _, copies = run_pass(program, switch, packet)
    assert copies == []  # not both idle: no clone
    assert packet.dst == SERVER_IPS[1]  # shorter queue wins
    assert switch.counters.get("nc_jsq_second_choice") == 1


def test_jsq_ties_go_to_first_candidate():
    program, switch = make_program(scheduler=SCHED_JSQ), make_switch()
    program.state_table.poke(0, 3)
    program.shadow_table.poke(1, 3)
    packet = request(grp=0)
    run_pass(program, switch, packet)
    assert packet.dst == SERVER_IPS[0]


def test_jsq_with_cloning_still_clones_when_both_idle():
    program, switch = make_program(scheduler=SCHED_JSQ), make_switch()
    _, copies = run_pass(program, switch, request(grp=0))
    assert len(copies) == 1


def test_jsq_without_cloning_never_clones():
    program = make_program(scheduler=SCHED_JSQ, cloning_enabled=False)
    switch = make_switch()
    _, copies = run_pass(program, switch, request(grp=0))
    assert copies == []
    program.state_table.poke(0, 9)
    packet = request(grp=0)
    run_pass(program, switch, packet)
    assert packet.dst == SERVER_IPS[1]


@pytest.mark.parametrize(
    "scheme, flags",
    [
        ("netclone", (True, True, SCHED_RANDOM)),
        ("netclone-nofilter", (True, False, SCHED_RANDOM)),
        ("racksched", (False, True, SCHED_JSQ)),
        ("netclone-racksched", (True, True, SCHED_JSQ)),
    ],
)
def test_scheme_compiles_its_program_flags(scheme, flags):
    """Each switch-program scheme is one NetCloneProgram flag set."""
    cluster = Cluster(tiny_config(scheme=scheme))
    assert cluster.programs
    for program in cluster.programs:
        assert (
            program.cloning_enabled,
            program.filtering_enabled,
            program.scheduler,
        ) == flags


# ----------------------------------------------------------------------
# Configuration and §4.1 shape
# ----------------------------------------------------------------------
def test_program_validation():
    with pytest.raises(PipelineConfigError):
        NetCloneProgram(server_ips=[1])
    with pytest.raises(PipelineConfigError):
        NetCloneProgram(server_ips=SERVER_IPS, num_filter_tables=0)
    with pytest.raises(PipelineConfigError):
        NetCloneProgram(server_ips=SERVER_IPS, scheduler="fifo")


@pytest.mark.parametrize(
    "flag, value",
    [("cloning_enabled", False), ("filtering_enabled", False), ("scheduler", SCHED_JSQ)],
)
def test_program_flags_are_fixed_at_construction(flag, value):
    # The compiled pass captures them; a later write would be ignored.
    program = make_program()
    before = getattr(program, flag)
    with pytest.raises(AttributeError):
        setattr(program, flag, value)
    assert getattr(program, flag) == before


def test_program_uses_seven_stages_with_two_filters():
    program = make_program(num_filter_tables=2)
    assert program.pipeline.stages_used == 7


def test_register_wipe_resets_soft_state_safely():
    program, switch = make_program(), make_switch()
    switch.install_program(program)
    run_pass(program, switch, request())
    run_pass(program, switch, response(req_id=1, sid=0, state=STATE_BUSY))
    assert program.seq.peek(0) == 1
    assert program.state_table.peek(0) == STATE_BUSY
    # A power cycle wipes every register the program placed.
    switch.fail()
    switch.recover()
    assert not any(program.seq.file.data)
    # Fresh state: sequence restarts, states read idle, cloning resumes.
    packet = request(grp=0)
    _, copies = run_pass(program, switch, packet)
    assert packet.nc.req_id == 1
    assert len(copies) == 1
