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

from typing import List, Union

from repro.errors import PipelineConfigError
from repro.switchsim.hashing import HashUnit
from repro.switchsim.registers import RegisterArray
from repro.switchsim.tables import MatchActionTable

__all__ = ["Pipeline"]

#: What a program places in a pipeline stage.
PipelineObject = Union[RegisterArray, MatchActionTable, HashUnit]


class Pipeline:
    """A fixed number of stages plus the objects placed in them."""

    #: Stage count of a Tofino-class ingress pipeline.
    DEFAULT_NUM_STAGES = 12

    def __init__(self, num_stages: int = DEFAULT_NUM_STAGES):
        if num_stages <= 0:
            raise PipelineConfigError("pipeline needs at least one stage")
        self.num_stages = num_stages
        #: Every placed register, table and hash unit, in placement order.
        self.placed: List[PipelineObject] = []

    # -- compile-time allocation ----------------------------------------
    def place(self, obj: PipelineObject) -> PipelineObject:
        """Allocate *obj* (register, table or hash unit) to its stage."""
        if not 0 <= obj.stage < self.num_stages:
            raise PipelineConfigError(
                f"{obj.name!r} wants stage {obj.stage}, "
                f"pipeline has stages 0..{self.num_stages - 1}"
            )
        self.placed.append(obj)
        return obj

    # -- compile-time verification --------------------------------------
    def compile_plan(self, steps) -> None:
        """Verify one fixed per-pass access order.

        *steps* is the ordered sequence of pipeline objects (registers,
        tables, hash units) one pass shape touches.  Raises
        :class:`PipelineConfigError` unless every step is placed in
        this pipeline (so inside its stage range), stages are
        non-decreasing (feed-forward) and no register is accessed more
        than once — proven once here for every packet of that shape.
        """
        stage = -1
        seen_registers = set()
        for obj in steps:
            if obj not in self.placed:
                raise PipelineConfigError(f"{obj!r} is not placed in this pipeline")
            if obj.stage < stage:
                raise PipelineConfigError(
                    f"plan is not feed-forward: {obj.name!r} in stage "
                    f"{obj.stage} follows an access in stage {stage}"
                )
            stage = obj.stage
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
        return max((obj.stage + 1 for obj in self.placed), default=0)

    def all_registers(self) -> List[RegisterArray]:
        """Every placed register array."""
        return [obj for obj in self.placed if isinstance(obj, RegisterArray)]
