"""Figure 8: comparison with the existing cloning solutions.

C-Clone vs LÆDGE vs NetClone on Exp(25) and Bimodal(90-25,10-250)
with **five** worker servers — in the testbed one machine is given up
to host the LÆDGE coordinator (§5.3.1).

Expected shape: LÆDGE has the lowest saturation throughput (the
CPU-based coordinator bottlenecks and adds per-request latency),
C-Clone saturates at about half the worker capacity, NetClone is
highest.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ClusterConfig
from repro.experiments.harness import format_series, scaled_config, sweep_panels
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.metrics.sweep import SweepResult

__all__ = ["collect", "render"]

SCHEMES = ("cclone", "laedge", "netclone")

PANELS = {
    "a-Exp(25)": ("exp", 25.0, None),
    "b-Bimodal(90-25,10-250)": ("bimodal", None, ((0.9, 25.0), (0.1, 250.0))),
}

NUM_SERVERS = 5
WORKERS = 15


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[str, Dict[str, SweepResult]]:
    """Both panels' curves, keyed by panel then scheme."""
    configs = {
        panel: scaled_config(
            ClusterConfig(
                workload=make_synthetic_spec(
                    kind, mean_us=mean_us or 25.0, modes=modes
                ),
                topology=topology,
                placement=placement,
                num_servers=NUM_SERVERS,
                workers_per_server=WORKERS,
                seed=seed,
            ),
            scale,
        )
        for panel, (kind, mean_us, modes) in PANELS.items()
    }
    return sweep_panels(configs, SCHEMES, scale, jobs)


@register("fig8", "scalability comparison: C-Clone vs LAEDGE vs NetClone", collect)
def render(panels: Dict[str, Dict[str, SweepResult]]) -> str:
    """Figure 8's report: one section per panel."""
    sections = []
    for panel, series in panels.items():
        notes = [
            f"max throughput (MRPS): LAEDGE {series['laedge'].max_throughput_mrps():.2f} "
            f"< C-Clone {series['cclone'].max_throughput_mrps():.2f} "
            f"< NetClone {series['netclone'].max_throughput_mrps():.2f} "
            f"(paper ordering)",
        ]
        sections.append(format_series(f"Figure 8 ({panel})", series, notes))
    return "\n".join(sections)
