"""Tests for the PISA switch model: registers, tables, pipeline, switch."""

import pytest

from helpers import make_packet

from repro.errors import (
    PipelineConfigError,
    PortError,
    StageAccessError,
    SwitchError,
    TableError,
)
from repro.net import Host, Link
from repro.sim import Simulator
from repro.sim.units import ms
from repro.switchsim import (
    ControlPlane,
    HashUnit,
    MatchActionTable,
    Pipeline,
    ProgrammableSwitch,
    RegisterArray,
    RegisterFile,
    resource_report,
)
from repro.switchsim.switch import PIPELINE_LATENCY_NS, RECIRC_LATENCY_NS


# ----------------------------------------------------------------------
# RegisterArray
# ----------------------------------------------------------------------
def register(name="r", size=1, stage=0, width_bits=32):
    """One array alone in its own frozen register file."""
    registers = RegisterFile()
    array = RegisterArray(name, size, stage, width_bits, file=registers)
    registers.freeze()
    return array


def test_register_read_and_rmw():
    """A file-backed array's cells are its slice of the flat store.

    A compiled pass reads and rewrites ``data[base + index]``; the
    control plane's peek/poke must see the same cell.
    """
    registers = RegisterFile()
    first = RegisterArray("first", size=3, stage=0, file=registers)
    second = RegisterArray("second", size=4, stage=1, file=registers)
    registers.freeze()
    assert (first.base, second.base, registers.size) == (0, 3, 7)
    data = registers.data
    data[second.base + 2] = data[second.base + 2] + 5  # read-modify-write
    assert second.peek(2) == 5
    first.poke(1, 9)
    assert data[first.base + 1] == 9
    assert [second.peek(i) for i in (0, 1, 3)] == [0, 0, 0]


def test_register_ok_across_passes():
    """One access per register per pass, but each pass shape may use it."""
    pipeline = Pipeline()
    reg = pipeline.place(register("state", size=8, stage=0))
    table = pipeline.place(MatchActionTable("addr", stage=3))
    pipeline.compile_plan((reg, table))
    pipeline.compile_plan((reg,))  # a second pass shape: allowed


def test_register_width_masks_values():
    reg = register(width_bits=8)
    reg.poke(0, 0x1FF)
    assert reg.peek(0) == 0xFF


def test_register_clear_and_sram():
    registers = RegisterFile()
    before = RegisterArray("before", size=2, stage=0, file=registers)
    reg = RegisterArray("r", size=1024, stage=1, width_bits=32, file=registers)
    after = RegisterArray("after", size=2, stage=2, file=registers)
    registers.freeze()
    for array in (before, reg, after):
        for index in range(array.size):
            array.poke(index, 7)
    reg.clear()
    assert {reg.peek(i) for i in range(reg.size)} == {0}
    # The wipe stays inside the array's slice of the shared store.
    assert [before.peek(1), after.peek(0)] == [7, 7]
    assert reg.sram_bytes == 1024 * 4


def test_register_validation():
    with pytest.raises(StageAccessError):
        RegisterArray("r", size=0, stage=0, file=RegisterFile())
    with pytest.raises(StageAccessError):
        RegisterArray("r", size=1, stage=-1, file=RegisterFile())
    with pytest.raises(StageAccessError):
        RegisterArray("r", size=1, stage=0, width_bits=12, file=RegisterFile())
    registers = RegisterFile()
    registers.freeze()
    with pytest.raises(StageAccessError):  # a frozen file takes no more
        RegisterArray("r", size=1, stage=0, file=registers)


# ----------------------------------------------------------------------
# MatchActionTable
# ----------------------------------------------------------------------
def test_table_install_lookup_remove():
    table = MatchActionTable("grp", stage=0)
    table.install(1, (2, 3))
    assert table.entries() == {1: (2, 3)}
    assert 9 not in table
    table.remove(1)
    assert 1 not in table
    assert table.update_count == 2


def test_table_capacity_enforced():
    table = MatchActionTable("t", stage=0, max_entries=1)
    table.install(1, "a")
    table.install(1, "b")  # overwrite is fine
    with pytest.raises(TableError):
        table.install(2, "c")


def test_table_remove_missing_raises():
    table = MatchActionTable("t", stage=0)
    with pytest.raises(TableError):
        table.remove(5)


# ----------------------------------------------------------------------
# Pipeline and compile-time plan checks
# ----------------------------------------------------------------------
def test_pipeline_shadow_table_pattern_works():
    """The paper's trick: state in stage i, shadow copy in stage i+1.

    Reading two servers' states in one pass needs two arrays: the same
    array twice is rejected, the state/shadow pair is accepted.
    """
    pipeline = Pipeline()
    state = pipeline.place(register("state", size=4, stage=1))
    shadow = pipeline.place(register("shadow", size=4, stage=2))
    with pytest.raises(PipelineConfigError):
        pipeline.compile_plan((state, state))
    pipeline.compile_plan((state, shadow))


def _bad_plans():
    pipeline = Pipeline()
    early = pipeline.place(register("early", stage=1))
    late = pipeline.place(register("late", stage=4))
    table = pipeline.place(MatchActionTable("addr", stage=3))
    return pipeline, {
        "backward-stage": (late, early),
        "register-twice": (early, table, early),
        "unplaced-register": (early, register("loose", stage=2)),
        "unplaced-table": (early, MatchActionTable("loose", stage=2)),
        "unplaced-hash": (early, HashUnit("loose", stage=2, buckets=8)),
        "not-a-pipeline-object": (early, object()),
    }


@pytest.mark.parametrize("case", sorted(_bad_plans()[1]))
def test_compile_plan_rejects_hardware_rule_violation(case):
    pipeline, plans = _bad_plans()
    with pytest.raises(PipelineConfigError):
        pipeline.compile_plan(plans[case])


def test_pipeline_stage_placement_validated():
    pipeline = Pipeline(num_stages=2)
    with pytest.raises(PipelineConfigError):
        pipeline.place(register(stage=5))
    with pytest.raises(PipelineConfigError):
        Pipeline(num_stages=0)


def test_pipeline_stages_used():
    pipeline = Pipeline()
    assert pipeline.stages_used == 0
    pipeline.place(register(stage=6))
    pipeline.place(MatchActionTable("t", stage=2))
    assert pipeline.stages_used == 7


def test_hash_unit_validation():
    unit = HashUnit("h", stage=3, buckets=128)
    assert (unit.stage, unit.buckets) == (3, 128)
    with pytest.raises(PipelineConfigError):
        HashUnit("h", stage=3, buckets=0)


# ----------------------------------------------------------------------
# ProgrammableSwitch forwarding
# ----------------------------------------------------------------------
class SinkHost(Host):
    def __init__(self, sim, name, ip):
        super().__init__(sim, name, ip, tx_cost_ns=0, rx_cost_ns=0)
        self.received = []

    def handle(self, packet):
        self.received.append((self.sim.now, packet))


def wire(sim, switch, host, port):
    link = Link(sim, host, switch, propagation_ns=100, bandwidth_bps=100e9)
    host.attach_link(link)
    switch.connect(port, link)
    switch.install_route(host.ip, port)
    return link


def test_switch_l3_forwarding():
    sim = Simulator()
    switch = ProgrammableSwitch(sim)
    a = SinkHost(sim, "a", 1)
    b = SinkHost(sim, "b", 2)
    wire(sim, switch, a, 0)
    wire(sim, switch, b, 1)
    a.send(make_packet(src=1, dst=2, sport=0, dport=0, size=125))
    sim.run()
    assert len(b.received) == 1
    # 10 ns serialisation + 100 ns prop + 400 ns pipeline + 10 + 100.
    assert b.received[0][0] == 620
    assert switch.counters.get("tx") == 1


def test_switch_no_route_counts():
    sim = Simulator()
    switch = ProgrammableSwitch(sim)
    a = SinkHost(sim, "a", 1)
    wire(sim, switch, a, 0)
    a.send(make_packet(src=1, dst=99, sport=0, dport=0, size=64))
    sim.run()
    assert switch.counters.get("no_route") == 1


def test_switch_port_validation():
    sim = Simulator()
    switch = ProgrammableSwitch(sim, num_ports=2)
    a = SinkHost(sim, "a", 1)
    link = Link(sim, a, switch)
    with pytest.raises(PortError):
        switch.connect(5, link)
    switch.connect(1, link)
    with pytest.raises(PortError):
        switch.connect(1, link)
    with pytest.raises(PortError):
        switch.install_route(1, 0)


class DropOddProgram:
    """Test program: on port 7777, drops odd sport and recirculates
    once when asked."""

    def __init__(self):
        self.pipeline = Pipeline()
        self.seen = []

    def apply(self, packet, switch):
        if packet.dport != 7777:
            return None
        self.seen.append((packet.uid, packet.recirculated))
        if packet.sport % 2 == 1:
            return True
        if packet.sport == 100 and not packet.recirculated:
            switch.recirculate(packet.copy())
        return None


def test_switch_program_drop_and_passthrough():
    sim = Simulator()
    switch = ProgrammableSwitch(sim)
    program = DropOddProgram()
    switch.install_program(program)
    a = SinkHost(sim, "a", 1)
    b = SinkHost(sim, "b", 2)
    wire(sim, switch, a, 0)
    wire(sim, switch, b, 1)
    a.send(make_packet(src=1, dst=2, sport=3, dport=7777, size=64))  # dropped
    a.send(make_packet(src=1, dst=2, sport=2, dport=7777, size=64))  # forwarded
    a.send(make_packet(src=1, dst=2, sport=2, dport=9999, size=64))  # not matched
    sim.run()
    assert len(b.received) == 2
    assert switch.counters.get("dropped_by_program") == 1
    assert len(program.seen) == 2  # the unclaimed packet left no trace


def test_switch_recirculation_reenters_pipeline():
    sim = Simulator()
    switch = ProgrammableSwitch(sim)
    program = DropOddProgram()
    switch.install_program(program)
    a = SinkHost(sim, "a", 1)
    b = SinkHost(sim, "b", 2)
    wire(sim, switch, a, 0)
    wire(sim, switch, b, 1)
    a.send(make_packet(src=1, dst=2, sport=100, dport=7777, size=64))
    sim.run()
    # Original + recirculated copy both reach b; the copy's loop costs
    # one recirculation plus one more pipeline pass (400 + 700 ns).
    assert len(b.received) == 2
    assert b.received[1][0] - b.received[0][0] == RECIRC_LATENCY_NS + PIPELINE_LATENCY_NS
    assert [recirc for _, recirc in program.seen] == [False, True]
    assert switch.counters.get("recirculated") == 1


def test_switch_double_program_install_rejected():
    sim = Simulator()
    switch = ProgrammableSwitch(sim)
    switch.install_program(DropOddProgram())
    with pytest.raises(SwitchError):
        switch.install_program(DropOddProgram())


def test_switch_failure_drops_then_recovers_with_wiped_state():
    sim = Simulator()
    switch = ProgrammableSwitch(sim)
    program = DropOddProgram()
    registers = RegisterFile()
    reg = program.pipeline.place(RegisterArray("soft", size=4, stage=0, file=registers))
    registers.freeze()
    switch.install_program(program)
    a = SinkHost(sim, "a", 1)
    b = SinkHost(sim, "b", 2)
    wire(sim, switch, a, 0)
    wire(sim, switch, b, 1)
    reg.poke(0, 42)

    switch.fail()
    a.send(make_packet(src=1, dst=2, sport=2, dport=7777, size=64))
    sim.run()
    assert b.received == []
    assert switch.counters.get("rx_dropped_down") == 1

    switch.recover(reinit_delay_ns=1_000)
    assert switch.down  # still re-initialising
    assert reg.peek(0) == 0  # soft state wiped
    sim.run()
    assert not switch.down
    a.send(make_packet(src=1, dst=2, sport=2, dport=7777, size=64))
    sim.run()
    assert len(b.received) == 1


def test_zero_delay_recovery_is_counted():
    sim = Simulator()
    switch = ProgrammableSwitch(sim)
    switch.fail()
    switch.recover()
    assert not switch.down
    assert switch.counters.get("failures") == 1
    assert switch.counters.get("recoveries") == 1
    switch.fail()
    switch.recover(reinit_delay_ns=1_000)
    assert switch.counters.get("recoveries") == 1  # still re-initialising
    sim.run()
    assert switch.counters.get("recoveries") == 2


def test_control_plane_applies_after_latency_and_serialises():
    sim = Simulator()
    cp = ControlPlane(sim)
    applied = []
    assert cp.submit(applied.append, "first") == ms(1)
    # 10,000 ops/s: the second op starts 100 us after the first.
    assert cp.submit(applied.append, "second") == ms(1.1)
    sim.run()
    assert applied == ["first", "second"]
    assert cp.ops_applied == 2
    assert sim.now == ms(1.1)


def test_resource_report_accounts_pipeline():
    pipeline = Pipeline()
    pipeline.place(register("f0", size=1 << 17, stage=5))
    pipeline.place(register("f1", size=1 << 17, stage=6))
    table = pipeline.place(MatchActionTable("grp", stage=0))
    table.install(0, (1, 2))
    pipeline.place(HashUnit("h", stage=4, buckets=1 << 17))
    report = resource_report(pipeline, filter_slots=1 << 18)
    assert report.stages_used == 7
    assert report.register_cells == 1 << 18
    assert report.register_sram_bytes == (1 << 18) * 4
    assert (report.table_entries, report.hash_units) == (1, 1)
    # 1.0 MiB of 22 MiB ~= 4.55 %; the paper rounds to 1.05 MB / 4.77 %.
    assert 0.04 < report.sram_fraction < 0.05
    assert report.supported_throughput_rps == pytest.approx(5.24e9, rel=0.01)
    assert any("stages" in row for row in report.rows())
