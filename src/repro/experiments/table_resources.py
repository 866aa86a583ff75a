"""§4.1 switch resource usage.

Recomputes the prototype's data-plane footprint from the actual
compiled pipeline: 7 match-action stages with two filter tables, two
filter tables × 2^17 slots × 32 bits ≈ 1.05 MB ≈ 4.77 % of switch
SRAM, and the 20 KRPS-per-slot back-of-the-envelope supporting
~5.24 BRPS.
"""

from __future__ import annotations

from repro.core.program import NetCloneProgram
from repro.experiments.registry import register
from repro.switchsim.resources import ResourceReport, resource_report

__all__ = ["collect", "render"]


def collect(scale: float = 1.0, seed: int = 1, jobs: int = 1) -> ResourceReport:
    """The resource report for the paper's configuration (*scale*,
    *seed* and *jobs* are accepted like every harness's; the footprint
    is per ToR and fabric-independent, so there is no topology or
    placement axis)."""
    # Addresses are placeholders; resource usage depends only on shape.
    program = NetCloneProgram(
        server_ips=list(range(1, 7)), num_filter_tables=2, filter_slots=1 << 17
    )
    return resource_report(program.pipeline, program.filter_slot_count)


@register("resources", "switch ASIC resource accounting (§4.1)", collect)
def render(report: ResourceReport) -> str:
    """The §4.1 resource rows beside the paper's figures."""
    lines = ["== §4.1 switch resource usage (recomputed from the pipeline) =="]
    lines.extend(report.rows())
    lines.append(
        "paper: 7 stages, ~1.05 MB (4.77% of switch memory), ~5.24 BRPS supported"
    )
    return "\n".join(lines)
