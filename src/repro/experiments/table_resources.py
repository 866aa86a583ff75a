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
from repro.switchsim.resources import ResourceModel

__all__ = ["report", "run"]


def report():
    """The resource report for the paper's configuration."""
    # Addresses are placeholders; resource usage depends only on shape.
    program = NetCloneProgram(
        server_ips=list(range(1, 7)), num_filter_tables=2, filter_slots=1 << 17
    )
    return ResourceModel().report(
        program.pipeline, filter_slots=program.filter_slot_count
    )


@register("resources", "switch ASIC resource accounting (§4.1)")
def run(scale: float = 1.0, seed: int = 1, jobs: int = 1) -> str:
    """Print the §4.1 resource rows (*scale*/*seed*/*jobs* accepted for
    CLI symmetry; the footprint is per ToR and fabric-independent, so
    there is no topology or placement axis)."""
    lines = ["== §4.1 switch resource usage (recomputed from the pipeline) =="]
    lines.extend(report().rows())
    lines.append(
        "paper: 7 stages, ~1.05 MB (4.77% of switch memory), ~5.24 BRPS supported"
    )
    text = "\n".join(lines)
    print(text)
    return text
