"""Figure 15: impact of redundant response filtering (§5.6.3).

Baseline vs NetClone-without-filtering vs NetClone on Exp(25).
Expected shape: at low load the redundant responses barely matter (the
client has spare receive capacity); as load grows the un-filtered
slower responses eat the client's receive path, and NetClone without
filtering becomes *worse than the Baseline* — the result that
justifies the in-switch filter tables.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ClusterConfig
from repro.experiments.harness import format_series, scaled_config, sweep_panels
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.metrics.sweep import SweepResult

__all__ = ["collect", "render"]

SCHEMES = ("baseline", "netclone-nofilter", "netclone")

NUM_SERVERS = 6
WORKERS = 15


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
) -> Dict[str, SweepResult]:
    """The three curves keyed by scheme."""
    config = scaled_config(
        ClusterConfig(
            workload=make_synthetic_spec("exp", mean_us=25.0),
            topology=topology,
            placement=placement,
            num_servers=NUM_SERVERS,
            workers_per_server=WORKERS,
            seed=seed,
        ),
        scale,
    )
    return sweep_panels({"exp": config}, SCHEMES, scale, jobs)["exp"]


@register("fig15", "ablation: redundant response filtering on/off", collect)
def render(series: Dict[str, SweepResult]) -> str:
    """Figure 15's report: the three curves and their low/high-load checks."""
    points = series["baseline"].points
    high = points[max(0, len(points) - 3)].offered_rps
    low = series["baseline"].points[0].offered_rps
    notes = [
        f"p99 at low load: NetClone w/o filtering "
        f"{series['netclone-nofilter'].p99_at_load(low):.0f} us ~= NetClone "
        f"{series['netclone'].p99_at_load(low):.0f} us (paper: filtering barely "
        f"matters at low load)",
        f"p99 at high load: NetClone w/o filtering "
        f"{series['netclone-nofilter'].p99_at_load(high):.0f} us vs Baseline "
        f"{series['baseline'].p99_at_load(high):.0f} us vs NetClone "
        f"{series['netclone'].p99_at_load(high):.0f} us (paper: w/o filtering "
        f"worse than Baseline at high load)",
    ]
    return format_series("Figure 15 (redundant response filtering)", series, notes)
