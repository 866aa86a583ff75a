"""ASIC resource accounting.

Section 4.1 of the paper reports the NetClone prototype's footprint on
a 6.5 Tbps Tofino: 7 match-action stages, 18.04 % SRAM, 12.28 % match
input crossbar, 26.79 % hash units, 21.43 % ALUs, and — for the filter
tables specifically — 2 tables x 2^17 slots x 32 bits ~= 1.05 MB, which
the paper calls 4.77 % of switch memory (implying a ~22 MB SRAM
budget, consistent with the "10-20 MB" figure in §2.3).

:func:`resource_report` recomputes these numbers from an actual
pipeline, so the `table_resources` experiment can print the same rows
as §4.1 and tests can assert the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.switchsim.hashing import HashUnit
from repro.switchsim.pipeline import Pipeline
from repro.switchsim.tables import MatchActionTable

__all__ = ["ResourceReport", "TOFINO_SRAM_BYTES", "resource_report"]

#: SRAM budget implied by §4.1's "1.05 MB is 4.77 % of switch memory".
TOFINO_SRAM_BYTES = 22 * 1024 * 1024

#: §4.1's back-of-the-envelope: at 50 us average request latency a
#: filter slot turns over 20 K times per second.
_KRPS_PER_SLOT = 20


@dataclass(frozen=True)
class ResourceReport:
    """Computed resource usage of one compiled program."""

    stages_used: int
    register_sram_bytes: int
    register_cells: int
    table_entries: int
    hash_units: int
    sram_fraction: float
    supported_throughput_rps: float

    def rows(self) -> List[str]:
        """Formatted rows mirroring the §4.1 narrative."""
        megabytes = self.register_sram_bytes / (1024 * 1024)
        return [
            f"match-action stages used: {self.stages_used}",
            f"register SRAM: {megabytes:.2f} MB "
            f"({self.sram_fraction * 100:.2f}% of switch memory)",
            f"register cells: {self.register_cells}",
            f"match-action table entries: {self.table_entries}",
            f"hash units: {self.hash_units}",
            f"supported throughput (20 KRPS/slot rule): "
            f"{self.supported_throughput_rps / 1e9:.2f} BRPS",
        ]


def resource_report(pipeline: Pipeline, filter_slots: int) -> ResourceReport:
    """Account *pipeline* against :data:`TOFINO_SRAM_BYTES`.

    ``filter_slots`` sizes the paper's back-of-the-envelope throughput
    rule: with 50 us average request latency each filter slot turns
    over 20 K times per second, so 2^18 total slots support ~5.24 BRPS.
    """
    placed = pipeline.placed
    registers = pipeline.all_registers()
    sram = sum(reg.sram_bytes for reg in registers)
    return ResourceReport(
        stages_used=pipeline.stages_used,
        register_sram_bytes=sram,
        register_cells=sum(reg.size for reg in registers),
        table_entries=sum(
            len(obj) for obj in placed if isinstance(obj, MatchActionTable)
        ),
        hash_units=sum(isinstance(obj, HashUnit) for obj in placed),
        sram_fraction=sram / TOFINO_SRAM_BYTES,
        supported_throughput_rps=float(filter_slots) * _KRPS_PER_SLOT * 1e3,
    )
