"""Figure 7: synthetic workloads, Baseline vs C-Clone vs NetClone.

Four panels — Exp(25), Bimodal(90%-25,10%-250), Exp(50),
Bimodal(90%-50,10%-500) — each a throughput / 99%-latency sweep with 6
worker servers and 15 worker threads each, jitter p = 0.01.

Expected shape (paper §5.2): C-Clone saturates at roughly half the
Baseline's throughput; NetClone tracks the Baseline's throughput while
keeping p99 below it at low and mid loads; the improvement shrinks for
the longer 50/500 µs RPCs at high load.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import ClusterConfig
from repro.experiments.harness import format_series, scaled_config, sweep_panels
from repro.experiments.registry import register
from repro.experiments.specs import make_synthetic_spec
from repro.metrics.sweep import SweepResult

__all__ = ["PANELS", "collect", "render"]

SCHEMES = ("baseline", "cclone", "netclone")

#: Panel id -> (kind, mean/modes) mirroring Figure 7 (a)-(d).
PANELS = {
    "a-Exp(25)": ("exp", 25.0, None),
    "b-Bimodal(90-25,10-250)": ("bimodal", None, ((0.9, 25.0), (0.1, 250.0))),
    "c-Exp(50)": ("exp", 50.0, None),
    "d-Bimodal(90-50,10-500)": ("bimodal", None, ((0.9, 50.0), (0.1, 500.0))),
}

NUM_SERVERS = 6
WORKERS = 15


def collect(
    scale: float = 1.0,
    seed: int = 1,
    jobs: int = 1,
    topology: Optional[str] = None,
    placement: Optional[str] = None,
    workload: Optional[str] = None,
    metrics: str = "exact",
) -> Dict[str, Dict[str, SweepResult]]:
    """All four panels' curves, keyed by panel then scheme.

    *workload* (a registered workload name, optionally with inline
    params — ``"mmpp:burst=8"``) replaces the four paper panels with a
    single panel sweeping that workload; ``None`` reproduces the paper
    figure.  *metrics* selects the latency backend (``"exact"`` |
    ``"sketch"``); sketch points carry mergeable O(buckets) sketches
    instead of raw samples, so million-request sweeps stay cheap.
    """
    if workload is not None:
        from repro.experiments.workloads_registry import make_workload_spec

        spec = make_workload_spec(workload)
        panels = {spec.name: spec}
    else:
        panels = {
            panel: make_synthetic_spec(kind, mean_us=mean_us or 25.0, modes=modes)
            for panel, (kind, mean_us, modes) in PANELS.items()
        }
    configs = {
        panel: scaled_config(
            ClusterConfig(
                workload=spec,
                topology=topology,
                placement=placement,
                num_servers=NUM_SERVERS,
                workers_per_server=WORKERS,
                seed=seed,
                metrics=metrics,
            ),
            scale,
        )
        for panel, spec in panels.items()
    }
    return sweep_panels(configs, SCHEMES, scale, jobs)


@register(
    "fig7",
    "synthetic workloads: Baseline vs C-Clone vs NetClone (4 panels)",
    collect,
)
def render(panels: Dict[str, Dict[str, SweepResult]]) -> str:
    """Figure 7's report: one section per panel."""
    sections = []
    for panel, series in panels.items():
        base = series["baseline"]
        cclone = series["cclone"]
        netclone = series["netclone"]
        low = base.points[0].offered_rps
        notes = [
            f"C-Clone max throughput {cclone.max_throughput_mrps():.2f} MRPS vs "
            f"Baseline {base.max_throughput_mrps():.2f} MRPS "
            f"(paper: about half)",
            f"NetClone max throughput {netclone.max_throughput_mrps():.2f} MRPS "
            f"(paper: tracks Baseline)",
            f"p99 at lowest load: Baseline {base.p99_at_load(low):.0f} us, "
            f"NetClone {netclone.p99_at_load(low):.0f} us "
            f"(paper: NetClone lower)",
        ]
        sections.append(format_series(f"Figure 7 ({panel})", series, notes))
    return "\n".join(sections)
