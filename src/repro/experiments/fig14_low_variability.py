"""Figure 14: low service-time variability, p = 0.001 (§5.6.2).

Same two panels as Figure 7 (a)/(b) but with a 10× smaller jitter
probability.  Expected shape: the same trends, with NetClone's
improvement over the Baseline slightly smaller — cloning's benefit
comes from masking variability, so less variability means less to
mask.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ClusterConfig
from repro.experiments.harness import format_series, scaled_config, sweep_panels
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.metrics.sweep import SweepResult

__all__ = ["collect", "render"]

SCHEMES = ("baseline", "cclone", "netclone")
JITTER_P = 0.001

PANELS = {
    "a-Exp(25)": ("exp", 25.0, None),
    "b-Bimodal(90-25,10-250)": ("bimodal", None, ((0.9, 25.0), (0.1, 250.0))),
}

NUM_SERVERS = 6
WORKERS = 15


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[str, Dict[str, SweepResult]]:
    """Both panels' curves with p = 0.001."""
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
                jitter_p=JITTER_P,
                seed=seed,
            ),
            scale,
        )
        for panel, (kind, mean_us, modes) in PANELS.items()
    }
    return sweep_panels(configs, SCHEMES, scale, jobs)


@register("fig14", "low service-time variability (p=0.001)", collect)
def render(panels: Dict[str, Dict[str, SweepResult]]) -> str:
    """Figure 14's report: one section per panel."""
    sections = []
    for panel, series in panels.items():
        base = series["baseline"]
        netclone = series["netclone"]
        low = base.points[0].offered_rps
        notes = [
            f"p99 at lowest load: Baseline {base.p99_at_load(low):.0f} us, "
            f"NetClone {netclone.p99_at_load(low):.0f} us "
            f"(paper: NetClone still lower, smaller margin than Fig. 7)",
        ]
        sections.append(format_series(f"Figure 14 ({panel}, p=0.001)", series, notes))
    return "\n".join(sections)
