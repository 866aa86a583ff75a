"""Figure 10: performance with RackSched (§5.4).

Baseline vs NetClone vs NetClone+RackSched on Exp(25) and
Bimodal(90-25,10-250), under homogeneous (6×15 worker threads) and
heterogeneous (3×15 + 3×8) clusters.

Expected shape: NetClone+RackSched is the best overall; its edge over
plain NetClone is largest on the heterogeneous clusters, where JSQ
absorbs the load imbalance that random first-candidate forwarding
cannot.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

from repro.experiments.common import ClusterConfig
from repro.experiments.harness import format_series, scaled_config, sweep_panels
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.metrics.sweep import SweepResult

__all__ = ["PANELS", "collect", "render"]

SCHEMES = ("baseline", "netclone", "netclone-racksched")

HOMOGENEOUS: Union[int, Sequence[int]] = 15
HETEROGENEOUS: Tuple[int, ...] = (15, 15, 15, 8, 8, 8)

PANELS = {
    "a-Exp-Homogeneous": ("exp", None, HOMOGENEOUS),
    "b-Exp-Heterogeneous": ("exp", None, HETEROGENEOUS),
    "c-Bimodal-Homogeneous": ("bimodal", ((0.9, 25.0), (0.1, 250.0)), HOMOGENEOUS),
    "d-Bimodal-Heterogeneous": ("bimodal", ((0.9, 25.0), (0.1, 250.0)), HETEROGENEOUS),
}

NUM_SERVERS = 6


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[str, Dict[str, SweepResult]]:
    """All four panels' curves, keyed by panel then scheme."""
    configs = {
        panel: scaled_config(
            ClusterConfig(
                workload=make_synthetic_spec(kind, mean_us=25.0, modes=modes),
                topology=topology,
                placement=placement,
                num_servers=NUM_SERVERS,
                workers_per_server=workers,
                seed=seed,
            ),
            scale,
        )
        for panel, (kind, modes, workers) in PANELS.items()
    }
    return sweep_panels(configs, SCHEMES, scale, jobs)


@register(
    "fig10",
    "NetClone with RackSched, homogeneous and heterogeneous clusters",
    collect,
)
def render(panels: Dict[str, Dict[str, SweepResult]]) -> str:
    """Figure 10's report: one section per panel."""
    sections = []
    for panel, series in panels.items():
        mid = series["baseline"].points[len(series["baseline"].points) // 2].offered_rps
        notes = [
            f"p99 at mid load: Baseline {series['baseline'].p99_at_load(mid):.0f} us, "
            f"NetClone {series['netclone'].p99_at_load(mid):.0f} us, "
            f"NetClone+RackSched {series['netclone-racksched'].p99_at_load(mid):.0f} us "
            f"(paper: NetClone+RackSched best)",
        ]
        sections.append(format_series(f"Figure 10 ({panel})", series, notes))
    return "\n".join(sections)
