"""Feed-forward match-action pipeline.

A PISA pipeline is a fixed sequence of stages; a packet traverses them
strictly in order, once per pass, at line rate.  A pass may touch an
object only from that object's own stage, may never return to an
earlier stage, and may access each register array at most once.

A program proves these rules when it is built:
:meth:`Pipeline.compile_plan` checks each fixed pass shape (the
ordered objects one kind of packet touches) and raises
:class:`~repro.errors.PipelineConfigError` on a violation.  The
verified pass then runs with no per-packet checks.

The outcome of a pass is a verdict, returned by the program's
``apply``: ``True`` drops the packet, ``None`` forwards it by L3
route.  Cloning is a side effect of the pass: the program hands each
copy to :meth:`~repro.switchsim.switch.ProgrammableSwitch.recirculate`
(§3.4 discusses multicast and recirculation; NetClone's copy picks up
its destination on a second, recirculated pass).
"""

from __future__ import annotations

from typing import List

from repro.errors import PipelineConfigError
from repro.switchsim.hashing import HashUnit
from repro.switchsim.registers import RegisterArray
from repro.switchsim.tables import MatchActionTable

__all__ = ["Pipeline", "Stage"]


class Stage:
    """One match-action stage: a home for tables, registers and hashes."""

    def __init__(self, index: int):
        self.index = index
        self.tables: List[MatchActionTable] = []
        self.registers: List[RegisterArray] = []
        self.hash_units: List[HashUnit] = []


class Pipeline:
    """A fixed array of stages plus the objects allocated to them."""

    #: Stage count of a Tofino-class ingress pipeline.
    DEFAULT_NUM_STAGES = 12

    def __init__(self, num_stages: int = DEFAULT_NUM_STAGES):
        if num_stages <= 0:
            raise PipelineConfigError("pipeline needs at least one stage")
        self.num_stages = num_stages
        self.stages = [Stage(i) for i in range(num_stages)]

    # -- compile-time allocation ----------------------------------------
    def _stage_for(self, obj_stage: int, what: str, name: str) -> Stage:
        if not 0 <= obj_stage < self.num_stages:
            raise PipelineConfigError(
                f"{what} {name!r} wants stage {obj_stage}, "
                f"pipeline has stages 0..{self.num_stages - 1}"
            )
        return self.stages[obj_stage]

    def place_register(self, register: RegisterArray) -> RegisterArray:
        """Allocate *register* to its stage (compile-time placement)."""
        self._stage_for(register.stage, "register", register.name).registers.append(register)
        return register

    def place_table(self, table: MatchActionTable) -> MatchActionTable:
        """Allocate *table* to its stage."""
        self._stage_for(table.stage, "table", table.name).tables.append(table)
        return table

    def place_hash(self, unit: HashUnit) -> HashUnit:
        """Allocate *unit* to its stage."""
        self._stage_for(unit.stage, "hash unit", unit.name).hash_units.append(unit)
        return unit

    # -- compile-time verification --------------------------------------
    def compile_plan(self, steps) -> None:
        """Verify one fixed per-pass access order.

        *steps* is the ordered sequence of pipeline objects (registers,
        tables, hash units) one pass shape touches.  Raises
        :class:`PipelineConfigError` unless every step is placed in
        this pipeline, stages are non-decreasing (feed-forward) and no
        register is accessed more than once — proven once here for
        every packet of that shape.
        """
        stage = -1
        seen_registers = set()
        for obj in steps:
            if isinstance(obj, RegisterArray):
                what, placed = "register", "registers"
            elif isinstance(obj, MatchActionTable):
                what, placed = "table", "tables"
            elif isinstance(obj, HashUnit):
                what, placed = "hash unit", "hash_units"
            else:
                raise PipelineConfigError(f"unknown plan step {obj!r}")
            home = self._stage_for(obj.stage, what, obj.name)
            if obj.stage < stage:
                raise PipelineConfigError(
                    f"plan is not feed-forward: {obj.name!r} in stage "
                    f"{obj.stage} follows an access in stage {stage}"
                )
            stage = obj.stage
            if obj not in getattr(home, placed):
                raise PipelineConfigError(
                    f"{what} {obj.name!r} is not placed in this pipeline"
                )
            if isinstance(obj, RegisterArray):
                if id(obj) in seen_registers:
                    raise PipelineConfigError(
                        f"register {obj.name!r} accessed twice in one plan"
                    )
                seen_registers.add(id(obj))

    # -- introspection ---------------------------------------------------
    @property
    def stages_used(self) -> int:
        """Highest occupied stage + 1 (the paper reports 7 for NetClone)."""
        used = 0
        for stage in self.stages:
            if stage.tables or stage.registers or stage.hash_units:
                used = stage.index + 1
        return used

    def all_registers(self) -> List[RegisterArray]:
        """Every placed register array."""
        return [reg for stage in self.stages for reg in stage.registers]

    def all_tables(self) -> List[MatchActionTable]:
        """Every placed match-action table."""
        return [table for stage in self.stages for table in stage.tables]

    def all_hash_units(self) -> List[HashUnit]:
        """Every placed hash unit."""
        return [unit for stage in self.stages for unit in stage.hash_units]
